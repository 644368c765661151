import math
from dataclasses import replace

import numpy as np
import pytest

import lpow.bell
from lpow import OptimizerConfig, compute_quantities, preset_functional, sym_sup
from lpow.states import make_state
from lpow.sweeps import (
    SweepSpec,
    format_float,
    point_seed,
    read_csv,
    run_sweep,
    sweep_to_csv,
    write_csv,
)

FAST = OptimizerConfig(restarts=8, seed=0)


def small_spec(**overrides):
    base = dict(
        family="werner",
        sweep_param="p",
        grid=(0.0, 1.0, 5),
        quantities=("s_chsh", "bloch_norm_a"),
        optimizer=FAST,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="count"):
            small_spec(grid=(0.0, 1.0, 1))
        with pytest.raises(ValueError, match="start"):
            small_spec(grid=(1.0, 0.0, 5))
        with pytest.raises(ValueError, match="finite"):
            small_spec(grid=(math.nan, 1.0, 5))
        with pytest.raises(ValueError, match="finite"):
            small_spec(grid=(0.0, math.inf, 5))

    def test_quantities_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            small_spec(quantities=())
        with pytest.raises(ValueError, match="unknown quantity"):
            small_spec(quantities=("bogus",))

    def test_grid_values_linspace(self):
        spec = small_spec(grid=(0.0, 2.0, 5))
        assert np.array_equal(spec.grid_values(), np.linspace(0.0, 2.0, 5))


class TestPointSeed:
    def test_deterministic_and_distinct(self):
        seeds = [point_seed(7, i) for i in range(50)]
        assert seeds == [point_seed(7, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert point_seed(8, 0) != point_seed(7, 0)

    def test_handles_large_global_seeds(self):
        # The whole seed is entropy: seeds that differ by 2^63 or more
        # derive different point seeds.
        assert point_seed(2**70 + 3, 1) == point_seed(2**70 + 3, 1)
        assert point_seed(2**70 + 3, 1) != point_seed(3, 1)
        assert point_seed(2**63, 0) != point_seed(0, 0)

    def test_pinned_values(self):
        # Seeds below 2^63 keep the point seeds the committed figures were made with.
        pinned = {
            0: ["0xdb2cd7e7b0f478be", "0x50ff846cec53f444", "0xa9601648099dae35", "0xc0586f4b59bcff66"],
            2: ["0x8c8ea222a8ed588b", "0x5bb8fe82125601cf", "0x96a64d71e4135878", "0xd51f0481fdcd15d"],
            4: ["0x6c73632b58de42c6", "0x29ecffbe993d4b3c", "0x59ae3b5a5dc53dc7", "0xf39df7a8d3f50311"],
        }
        for seed, expected in pinned.items():
            assert [hex(point_seed(seed, i)) for i in (0, 1, 5, 100)] == expected


class TestRunSweep:
    def test_rows_match_pointwise_evaluation(self):
        spec = small_spec()
        result = run_sweep(spec)
        assert result.warnings == ()
        for i, p in enumerate(result.param_values):
            cfg = OptimizerConfig(
                restarts=FAST.restarts, seed=point_seed(FAST.seed, i)
            )
            direct = compute_quantities(spec.quantities, make_state("werner", p=p), cfg)
            for j, name in enumerate(spec.quantities):
                assert result.table[name][i] == direct[j].value

    def test_arity_mismatch_becomes_nan_with_warning(self):
        spec = small_spec(quantities=("mermin",))
        result = run_sweep(spec)
        assert np.isnan(result.table["mermin"]).all()
        assert len(result.warnings) == 5
        assert "mermin" in result.warnings[0]

    def test_optimized_quantities_on_three_qubits_become_nan_with_warnings(self):
        # The stacked optimizations cannot take a three-qubit state, so each
        # cell meets the registry's own arity error.
        spec = small_spec(
            family="pure_product",
            sweep_param="theta_a",
            grid=(0.0, 1.0, 3),
            quantities=("c3322", "s_chsh_lpo", "mermin"),
            fixed_params=dict(phi_a=0.0, theta_b=0.3, phi_b=0.1, theta_c=0.2, phi_c=0.0),
        )
        result = run_sweep(spec)
        assert np.isnan(result.table["c3322"]).all() and np.isnan(result.table["s_chsh_lpo"]).all()
        assert np.isfinite(result.table["mermin"]).all()
        assert result.warnings == tuple(
            f"point {i}, quantity {name}: quantity {name!r} needs a two-qubit state"
            for i in range(3)
            for name in ("c3322", "s_chsh_lpo")
        )

    def test_family_domain_error_becomes_nan_row(self):
        spec = small_spec(grid=(-0.5, 1.0, 4))
        result = run_sweep(spec)
        assert np.isnan(result.table["s_chsh"][0])
        assert not np.isnan(result.table["s_chsh"][-1])
        assert any("(p=-0.5)" in w for w in result.warnings)

    def test_point_shares_one_optimization_across_quantities(self, monkeypatch):
        # The sweep runs one see-saw call for its c3322 optimizations, with
        # one group per point, shared by both quantities.
        spec = SweepSpec(
            family="cg",
            sweep_param="theta",
            grid=(0.1, 0.4, 3),
            quantities=("c3322", "i3322_tilde"),
            optimizer=FAST,
        )
        groups = []
        seesaw = lpow.bell._seesaw

        def counting(update_a, update_b, a_dirs, b_dirs, *args):
            groups.append(len(b_dirs))
            return seesaw(update_a, update_b, a_dirs, b_dirs, *args)

        monkeypatch.setattr(lpow.bell, "_seesaw", counting)
        result = run_sweep(spec)
        assert groups == [3]
        monkeypatch.undo()
        for i, theta in enumerate(result.param_values):
            cfg = OptimizerConfig(restarts=FAST.restarts, seed=point_seed(FAST.seed, i))
            rho = make_state("cg", theta=theta)
            for name in spec.quantities:
                alone = compute_quantities([name], rho, cfg)[0].value
                assert result.table[name][i].tobytes() == np.float64(alone).tobytes()

    def test_stacked_points_match_points_alone(self):
        # p = -0.25 fails to build and joins no optimization; p = 0 is the
        # triplet, whose unpolarized marginals short-circuit sym_sup.
        spec = SweepSpec(
            family="transition",
            sweep_param="p",
            grid=(-0.25, 1.0, 6),
            quantities=("i3322_tilde", "s_chsh_lpo", "c3322"),
            optimizer=OptimizerConfig(restarts=16, seed=3),
        )
        result = run_sweep(spec)
        assert result.warnings == ("point 0 (p=-0.25): p must lie in [0, 1], got -0.25",)
        assert np.isnan([result.table[name][0] for name in spec.quantities]).all()
        assert result.param_values[1] == 0.0
        for i in range(1, 6):
            cfg = OptimizerConfig(restarts=16, seed=point_seed(3, i))
            rho = make_state("transition", p=result.param_values[i])
            if i == 1:
                assert sym_sup(rho, preset_functional("chsh"), "free", cfg).restarts_used == 0
            for j, alone in enumerate(compute_quantities(spec.quantities, rho, cfg)):
                assert result.table[spec.quantities[j]][i].tobytes() == np.float64(alone.value).tobytes()

    def test_iteration_cap_fails_only_the_capped_points(self):
        cfg = OptimizerConfig(restarts=16, seed=4, max_iterations=17)
        spec = SweepSpec(
            family="transition",
            sweep_param="p",
            grid=(0.0, 1.0, 6),
            quantities=("c3322", "s_chsh_lpo"),
            optimizer=cfg,
        )
        result = run_sweep(spec)
        expected_notes, converged = [], set()
        for i, p in enumerate(result.param_values):
            rho = make_state("transition", p=p)
            for alone in compute_quantities(spec.quantities, rho, replace(cfg, seed=point_seed(4, i))):
                cell = result.table[alone.name][i]
                if alone.converged:
                    converged.add(alone.name)
                    assert cell.tobytes() == np.float64(alone.value).tobytes()
                else:
                    assert np.isnan(cell)
                    expected_notes.append(
                        f"point {i}, quantity {alone.name}: optimizer did not converge; recording NaN"
                    )
        assert result.warnings == tuple(expected_notes)
        # The cap stops some groups of each optimization, not all of them.
        assert converged == set(spec.quantities)
        assert {note.split("quantity ")[1].split(":")[0] for note in expected_notes} == converged

    def test_same_seed_bitwise_reproducible(self):
        spec = SweepSpec(
            family="transition",
            sweep_param="p",
            grid=(0.0, 1.0, 3),
            quantities=("i3322_tilde", "s_chsh_lpo"),
            optimizer=OptimizerConfig(restarts=8, seed=13),
        )
        a = run_sweep(spec)
        b = run_sweep(spec)
        for name in spec.quantities:
            assert np.array_equal(a.table[name], b.table[name])


class TestCsv:
    def test_format_float_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 2.0 * math.sqrt(2.0), 5e-324, 1e308):
            assert float(format_float(x)) == x
        assert format_float(float("nan")) == "nan"

    def test_write_read_round_trip(self, tmp_path):
        spec = small_spec(quantities=("s_chsh", "horodecki_m"))
        result = run_sweep(spec)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        header, columns = read_csv(path)
        assert header == ["param", "s_chsh", "horodecki_m"]
        assert np.array_equal(columns["param"], result.param_values)
        for name in spec.quantities:
            assert np.array_equal(columns[name], result.table[name])

    def test_non_numeric_cell_names_file_line_and_column(self, tmp_path):
        path = tmp_path / "nn.csv"
        path.write_text("param,a,b\n0,1,2\n\n1,2,x1\n")
        with pytest.raises(ValueError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}, line 4, column 'b': not a number: 'x1'"

    def test_line_endings_and_charset(self, tmp_path):
        result = run_sweep(small_spec())
        path = tmp_path / "out.csv"
        write_csv(result, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        raw.decode("ascii")

    def test_nan_cells_survive_round_trip(self, tmp_path):
        spec = small_spec(quantities=("mermin",))
        result = run_sweep(spec)
        path = tmp_path / "nan.csv"
        write_csv(result, path)
        _, columns = read_csv(path)
        assert np.isnan(columns["mermin"]).all()

    def test_sweep_to_csv_forwards_warnings(self, tmp_path, capsys):
        spec = small_spec(quantities=("mermin",), output_path=tmp_path / "w.csv")
        sweep_to_csv(spec)
        err = capsys.readouterr().err
        assert "warning:" in err
        assert (tmp_path / "w.csv").exists()

    def test_sweep_to_csv_requires_target(self):
        with pytest.raises(ValueError, match="output path"):
            sweep_to_csv(small_spec())
