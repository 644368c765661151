"""End-to-end checks of the published behaviors, one test per claim.

Each test is self-contained and carries its stated tolerance and runtime
budget, so a verbose run gives one pass/fail line per claim.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from lpow import (
    OptimizerConfig,
    asym_sup,
    bound_geometry_free,
    bound_orthogonal,
    c3322_value,
    chsh_settings,
    functional_value,
    i2222_probability_value,
    i3322_probability_value,
    lhv_bound,
    lpo_correlator,
    lpo_project,
    mermin_lpo_witness,
    mermin_value,
    optimize_functional_value,
    optimized_chsh,
    perceived_expectation,
    planar_3322_settings,
    preset_functional,
    sym_sup,
    sym_value_fixed,
)
from lpow.states import (
    cg,
    cg_lambda,
    ghz,
    horodecki,
    ket,
    make_state,
    maximally_mixed,
    pure_product,
    sigma_state,
    singlet,
    werner,
)
from lpow.sweeps import SweepSpec, read_csv, run_sweep
from util import (
    ginibre_state,
    random_effect,
    random_orthogonal_scenario,
    random_product_state,
    random_scenario,
)


def interpolated_downward_crossing(p, v, bound):
    """First grid interval where v passes from above the bound to at/below it."""
    d = v - bound
    for i in range(len(p) - 1):
        if d[i] > 0.0 >= d[i + 1]:
            return p[i] + (p[i + 1] - p[i]) * d[i] / (d[i] - d[i + 1])
    raise AssertionError("no downward crossing found")


def test_singlet_reaches_tsirelson_while_symmetric_witness_vanishes():
    t0 = time.perf_counter()
    rho = singlet()
    chsh = preset_functional("chsh")

    closed_form = optimized_chsh(rho)
    assert abs(closed_form - 2.0 * math.sqrt(2.0)) < 1e-6
    opt = optimize_functional_value(rho, chsh, restarts=16, seed=0)
    assert abs(opt.value - 2.0 * math.sqrt(2.0)) < 1e-6
    assert abs(opt.value - closed_form) < 1e-6

    assert abs(sym_value_fixed(rho, chsh, chsh_settings())) < 1e-9
    report = sym_sup(rho, chsh, "free", OptimizerConfig(restarts=16, seed=0))
    assert abs(report.value) < 1e-9

    assert time.perf_counter() - t0 < 1.0


def test_pure_product_lpo_chsh_saturates_classical_bound():
    t0 = time.perf_counter()
    rho = pure_product([ket(0), ket(0)])
    chsh = preset_functional("chsh")

    report = sym_sup(rho, chsh, "free", OptimizerConfig(restarts=64, seed=0))
    assert abs(report.value - 2.0) < 1e-6
    assert report.converged

    asym = asym_sup(rho, chsh)
    assert asym.value == 2.0
    assert asym.value == lhv_bound(chsh)

    assert time.perf_counter() - t0 < 5.0


def test_locally_maximally_mixed_states_have_zero_lpo_witnesses():
    t0 = time.perf_counter()
    chsh = preset_functional("chsh")
    c3322 = preset_functional("c3322")
    cfg = OptimizerConfig(restarts=16, seed=0)

    states = [maximally_mixed(2)] + [werner(p) for p in np.linspace(0.0, 1.0, 101)]
    for rho in states:
        assert abs(sym_sup(rho, chsh, "free", cfg).value) <= 1e-9
        assert abs(asym_sup(rho, chsh).value) <= 1e-9
        assert abs(asym_sup(rho, c3322).value) <= 1e-9

    assert time.perf_counter() - t0 < 30.0


def test_sigma_state_violates_three_setting_inequality_but_never_chsh():
    rho = sigma_state()

    value = c3322_value(rho, planar_3322_settings())
    assert abs(value - 4.05) <= 0.01
    assert value > 4.0

    h = horodecki(rho)
    assert h.m_value < 1.0
    assert h.admits_lhv

    scan = optimize_functional_value(
        rho, preset_functional("chsh"), restarts=100_000, seed=1
    )
    assert scan.converged
    assert scan.value < 2.0 - 1e-3
    assert abs(scan.value - 2.0 * h.m_value) < 1e-6


def test_ghz_violates_mermin_while_lpo_witness_vanishes():
    t0 = time.perf_counter()

    assert abs(mermin_value(ghz()) - 4.0) <= 1e-9
    assert abs(mermin_lpo_witness(ghz(), "asym_sup").value) <= 1e-9

    zero3 = pure_product([ket(0), ket(0), ket(0)])
    assert abs(mermin_lpo_witness(zero3, "asym_sup").value - 2.0) <= 1e-9

    assert time.perf_counter() - t0 < 1.0


def test_transition_sweep_crossings_and_lpo_bump():
    t0 = time.perf_counter()
    spec = SweepSpec(
        family="transition",
        sweep_param="p",
        grid=(0.0, 1.0, 101),
        quantities=("i2222_tilde", "i3322_tilde", "s_chsh_lpo"),
        optimizer=OptimizerConfig(restarts=64, seed=7),
    )
    result = run_sweep(spec)
    assert result.warnings == ()
    p = result.param_values

    chsh_cross = interpolated_downward_crossing(p, result.table["i2222_tilde"], 1.0)
    assert abs(chsh_cross - 0.30) <= 0.02

    i3322_cross = interpolated_downward_crossing(p, result.table["i3322_tilde"], 1.0)
    assert abs(i3322_cross - 0.25) <= 0.02

    window = result.table["s_chsh_lpo"][(p >= 0.1) & (p < 0.5)]
    assert not np.isnan(window).any()
    assert np.any(np.abs(window - 0.05) <= 0.03)

    assert time.perf_counter() - t0 < 120.0


def test_random_state_and_setting_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    chsh = preset_functional("chsh")
    c3322 = preset_functional("c3322")

    # Optimized one-sided witness never exceeds the LHV bound.
    for _ in range(1000):
        rho = ginibre_state(rng)
        assert asym_sup(rho, chsh).value <= 2.0 + 1e-9
        assert asym_sup(rho, c3322).value <= 4.0 + 1e-9

    # Two-sided witness at arbitrary settings stays under the geometry-free
    # cap; the 2-setting scenarios double as probability-form identity checks.
    for _ in range(2500):
        rho = ginibre_state(rng)
        s = random_scenario(rng, 2, 2)
        assert sym_value_fixed(rho, chsh, s) <= bound_geometry_free(rho, chsh) + 1e-9
        assert abs(
            i2222_probability_value(rho, s) - (functional_value(rho, chsh, s) / 4.0 - 0.5)
        ) < 1e-12
    for _ in range(2500):
        rho = ginibre_state(rng)
        s = random_scenario(rng, 3, 3)
        assert sym_value_fixed(rho, c3322, s) <= bound_geometry_free(rho, c3322) + 1e-9
        assert abs(
            c3322_value(rho, s) - 4.0 * (i3322_probability_value(rho, s) + 1.0)
        ) < 1e-10

    # Orthogonal settings obey the sharper cap.
    for _ in range(1250):
        rho = ginibre_state(rng)
        s = random_orthogonal_scenario(rng, 2, 2)
        assert sym_value_fixed(rho, chsh, s) <= bound_orthogonal(rho, chsh) + 1e-9
    for _ in range(1250):
        rho = ginibre_state(rng)
        s = random_orthogonal_scenario(rng, 3, 3)
        assert sym_value_fixed(rho, c3322, s) <= bound_orthogonal(rho, c3322) + 1e-9

    # Per-direction structural identities: the perceived correlator's two
    # computation paths agree (checked internally), perceived POVM pairs
    # stay POVMs, and both parties infer the same product expectation.
    eye = np.eye(4)
    for _ in range(2500):
        rho = ginibre_state(rng)
        s = random_scenario(rng, 1, 1)
        lpo_correlator(s.alice[0], s.bob[0], rho)

        e = random_effect(rng, 4)
        pe = lpo_project(e, rho, 0).matrix
        pc = lpo_project(eye - e, rho, 0).matrix
        assert np.abs(pe + pc - np.eye(2)).max() < 1e-10
        assert np.linalg.eigvalsh(pe).min() > -1e-10

        x = np.kron(s.alice[0].matrix, s.bob[0].matrix)
        assert abs(
            perceived_expectation(x, rho, 0) - perceived_expectation(x, rho, 1)
        ) < 1e-12

    # Bound constants for the 3-setting functional on pure product states.
    for _ in range(50):
        rho = random_product_state(rng)
        assert abs(bound_geometry_free(rho, c3322) - 10.0) < 1e-12
        assert abs(bound_orthogonal(rho, c3322) - (2.0 + math.sqrt(3.0))) < 1e-12

    assert time.perf_counter() - t0 < 300.0


def test_sweeps_with_identical_seeds_are_byte_identical(tmp_path):
    args = [
        sys.executable,
        "-m",
        "lpow",
        "sweep",
        "--state", "transition",
        "--param", "p",
        "--grid", "0:1:7",
        "--quantities", "i3322_tilde,s_chsh_lpo",
        "--seed", "3",
        "--restarts", "16",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for out in (first, second):
        proc = subprocess.run(
            args + ["--out", str(out)], capture_output=True, text=True, timeout=240
        )
        assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()


def test_committed_cg_results_regenerate():
    # scripts/cg_figure.py at its defaults reproduces results/cg.csv.
    t0 = time.perf_counter()
    header, committed = read_csv(Path(__file__).resolve().parents[1] / "results" / "cg.csv")
    spec = SweepSpec(
        family="cg",
        sweep_param="theta",
        grid=(0.02, 0.78, 61),
        quantities=("i3322_tilde", "i2222_tilde", "i2222_lpo_tilde"),
        optimizer=OptimizerConfig(restarts=64, seed=2),
    )
    result = run_sweep(spec)
    assert result.warnings == ()
    assert header == ["param", *spec.quantities]
    assert np.array_equal(committed["param"], result.param_values)
    for name in spec.quantities:
        assert np.max(np.abs(result.table[name] - committed[name])) <= 1e-12
    assert time.perf_counter() - t0 < 60.0


def test_cg_family_violates_i3322_while_pinned_at_chsh_bound():
    # Qualitative shape: with the mixing weight solved so the optimized CHSH
    # value sits exactly at the classical bound, the normalized 3-setting
    # value stays strictly above its own bound across the plotted range.
    for theta in np.linspace(0.1, 0.44, 8):
        lam = cg_lambda(theta)
        rho = cg(theta, lam)

        i2222_tilde = horodecki(rho).m_value
        assert abs(i2222_tilde - 1.0) < 1e-6

        opt = optimize_functional_value(
            rho, preset_functional("c3322"), restarts=32, seed=11
        )
        i3322_tilde = opt.value / 4.0
        assert opt.converged
        assert i3322_tilde > 1.0 + 1e-3
        assert i3322_tilde > i2222_tilde
