import math
import time

import numpy as np
import pytest

from lpow import (
    BellFunctional,
    OptimizerConfig,
    WitnessReport,
    asym_sup,
    asym_value_fixed,
    bound_geometry_free,
    observable,
    bound_orthogonal,
    chsh_settings,
    lhv_bound,
    lpo_correlator,
    marginal_means,
    mermin_lhv_bound,
    mermin_lpo_witness,
    mermin_settings,
    mermin_value,
    preset_functional,
    scenario_from_directions,
    sym_sup,
    sym_value_fixed,
)
from lpow.states import (
    DensityMatrix,
    bloch_vector,
    first_moments,
    ghz,
    ket,
    make_state,
    pure_product,
    sigma_state,
    singlet,
    werner,
)
from lpow.linalg import PAULIS
from lpow.witness import _mermin_terms
from util import (
    ginibre_state,
    random_directions,
    operator_asym_value,
    perceived_sym_value,
    random_orthogonal_scenario,
    random_product_state,
    random_pure_state,
    random_scenario,
    reference_asym_sup,
    reference_bloch_vector,
    reference_mermin_correlator,
    reference_mermin_vertex_max,
)


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError, match="max_iterations"):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError, match="tolerances"):
            OptimizerConfig(value_tolerance=-1.0)

    def test_rejects_non_finite_tolerance(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="value_tolerance"):
                OptimizerConfig(value_tolerance=bad)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("restarts", float("nan")),
            ("restarts", 2.5),
            ("max_iterations", float("inf")),
            ("seed", -1),
            ("seed", 1.5),
            ("restarts", True),
            ("max_iterations", True),
            ("seed", False),
            ("seed", np.True_),
            ("value_tolerance", True),
            ("value_tolerance", np.True_),
        ],
    )
    def test_rejects_non_integer_or_out_of_range_field(self, field, bad):
        kind = "must be positive and finite" if field == "value_tolerance" else f"{field} must be an integer"
        with pytest.raises(ValueError, match=kind) as raised:
            OptimizerConfig(**{field: bad})
        assert field in str(raised.value)

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(restarts=np.int64(4), max_iterations=np.int32(9), seed=np.uint64(2**63))
        assert sym_sup(sigma_state(), preset_functional("chsh"), "free", cfg).restarts_used == 4


class TestWitnessReport:
    def test_rejects_value_above_bound(self):
        with pytest.raises(ArithmeticError, match="exceeds bound"):
            WitnessReport(
                value=2.1,
                optimizing_scenario=None,
                bounds=(("lhv", 2.0),),
                restarts_used=1,
                converged=True,
            )

    def test_bound_lookup(self):
        r = WitnessReport(
            value=1.0,
            optimizing_scenario=None,
            bounds=(("lhv", 2.0), ("geometry_free", 4.0)),
            restarts_used=1,
            converged=True,
        )
        assert r.bound("geometry_free") == 4.0
        with pytest.raises(KeyError):
            r.bound("missing")


class TestAsymWitness:
    def test_fixed_value_vanishes_for_maximally_mixed_marginals(self):
        f = preset_functional("chsh")
        assert abs(asym_value_fixed(singlet(), f, chsh_settings())) < 1e-14

    def test_fixed_value_on_pure_product(self):
        rho = pure_product([ket(0), ket(0)])
        dirs = [(0.0, 0.0, 1.0)] * 2
        s = scenario_from_directions(dirs, dirs)
        assert abs(asym_value_fixed(rho, preset_functional("chsh"), s) - 2.0) < 1e-14

    def test_sup_on_pure_product_reaches_lhv_bound(self):
        rho = pure_product([ket(0), ket(0)])
        for name in ("chsh", "c3322"):
            f = preset_functional(name)
            report = asym_sup(rho, f)
            assert report.value == lhv_bound(f)
            assert report.converged

    def test_sup_dominated_by_lhv_bound_on_random_states(self, rng):
        for name in ("chsh", "c3322"):
            f = preset_functional(name)
            bound = lhv_bound(f)
            for _ in range(50):
                report = asym_sup(ginibre_state(rng), f)
                assert report.value <= bound + 1e-9
                assert report.bound("lhv") == bound

    def test_sup_dominates_every_fixed_setting(self, rng):
        f = preset_functional("chsh")
        for _ in range(10):
            rho = ginibre_state(rng)
            sup = asym_sup(rho, f).value
            for _ in range(20):
                s = random_scenario(rng, 2, 2)
                assert asym_value_fixed(rho, f, s) <= sup + 1e-10

    def test_fixed_value_matches_operator_trace(self, rng):
        skew = BellFunctional(
            alpha=[[1.0, -2.0, 0.5], [0.0, 1.5, -1.0]], beta=[0.7, -1.3], gamma=[-0.4, 0.9, 1.1]
        )
        for f in (preset_functional("chsh"), preset_functional("c3322"), skew):
            m, n = f.shape
            for _ in range(20):
                rho = ginibre_state(rng)
                s = random_scenario(rng, m, n)
                assert abs(asym_value_fixed(rho, f, s) - operator_asym_value(rho, f, s)) <= 1e-12

    def test_degenerate_tie_breaks_to_first_sign_vertex(self):
        report = asym_sup(werner(0.5), preset_functional("chsh"))
        assert report.value == 0.0
        dirs = np.vstack(
            [report.optimizing_scenario.alice_directions, report.optimizing_scenario.bob_directions]
        )
        assert np.array_equal(dirs, np.tile([0.0, 0.0, -1.0], (4, 1)))

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError, match="two-qubit"):
            asym_sup(ghz(), preset_functional("chsh"))

    def test_matches_full_vertex_scan(self, rng):
        skew = BellFunctional(
            alpha=[[1.0, -2.0, 0.5], [0.0, 1.5, -1.0]], beta=[0.7, -1.3], gamma=[-0.4, 0.9, 1.1]
        )
        functionals = (
            preset_functional("chsh"),
            preset_functional("c3322"),
            skew,
            BellFunctional(alpha=skew.alpha.T, beta=skew.gamma, gamma=skew.beta),
        )
        decisive = 0
        for _ in range(200):
            rho = ginibre_state(rng)
            for f in functionals:
                report = asym_sup(rho, f)
                oracle, values = reference_asym_sup(rho, f)
                assert abs(report.value - oracle.value) <= 1e-12
                achieved = asym_value_fixed(rho, f, report.optimizing_scenario)
                assert abs(achieved - report.value) <= 1e-12
                top, runner_up = np.sort(values)[[-1, -2]]
                if top - runner_up > 1e-9:
                    decisive += 1
                    for side in ("alice_directions", "bob_directions"):
                        got = getattr(report.optimizing_scenario, side)
                        assert np.array_equal(got, getattr(oracle.optimizing_scenario, side))
        assert decisive > 350

    def test_oversized_functional_rejected_before_enumerating(self):
        # 2^25 Alice vertices would take minutes to scan; the guard fires first.
        f = BellFunctional(alpha=np.ones((25, 2)), beta=np.zeros(25), gamma=np.zeros(2))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too large"):
            asym_sup(sigma_state(), f)
        assert time.perf_counter() - start < 0.5


class TestSymWitnessFixed:
    def test_vanishes_on_singlet_at_canonical_settings(self):
        value = sym_value_fixed(singlet(), preset_functional("chsh"), chsh_settings())
        assert abs(value) < 1e-14

    def test_pure_product_at_aligned_settings(self):
        rho = pure_product([ket(0), ket(0)])
        dirs = [(0.0, 0.0, 1.0)] * 2
        s = scenario_from_directions(dirs, dirs)
        assert abs(sym_value_fixed(rho, preset_functional("chsh"), s) - 2.0) < 1e-12

    def test_pure_product_at_canonical_settings_cancels(self):
        # a = (0, 1), b = (+-1/sqrt2) and C_xy = a_x b_y make the two
        # quadratic terms cancel exactly.
        rho = pure_product([ket(0), ket(0)])
        value = sym_value_fixed(rho, preset_functional("chsh"), chsh_settings())
        assert abs(value) < 1e-12

    def test_equals_sum_of_perceived_correlators(self, rng):
        f = preset_functional("c3322")
        for _ in range(10):
            rho = ginibre_state(rng)
            s = random_scenario(rng, 3, 3)
            means = marginal_means(rho, s)
            want = sum(
                f.alpha[x, y] * lpo_correlator(s.alice[x], s.bob[y], rho)
                for x in range(3)
                for y in range(3)
            )
            want += f.beta @ means.a**2 + f.gamma @ means.b**2
            assert abs(sym_value_fixed(rho, f, s) - want) < 1e-10
            assert abs(sym_value_fixed(rho, f, s) - perceived_sym_value(rho, f, s)) <= 1e-10


class TestBounds:
    def test_geometry_free_constants_on_pure_products(self, rng):
        for _ in range(10):
            rho = random_product_state(rng)
            assert abs(bound_geometry_free(rho, preset_functional("chsh")) - 4.0) < 1e-12
            assert abs(bound_geometry_free(rho, preset_functional("c3322")) - 10.0) < 1e-12

    def test_orthogonal_constants_on_pure_products(self, rng):
        for _ in range(10):
            rho = random_product_state(rng)
            assert abs(bound_orthogonal(rho, preset_functional("chsh")) - 2.0) < 1e-12
            assert abs(
                bound_orthogonal(rho, preset_functional("c3322")) - (2.0 + math.sqrt(3.0))
            ) < 1e-12

    def test_bounds_vanish_with_maximally_mixed_marginals(self):
        f = preset_functional("chsh")
        assert bound_geometry_free(werner(0.9), f) == 0.0
        assert bound_orthogonal(werner(0.9), f) == 0.0

    def test_fixed_value_dominated_by_geometry_free_bound(self, rng):
        f = preset_functional("chsh")
        for _ in range(50):
            rho = ginibre_state(rng)
            s = random_scenario(rng, 2, 2)
            assert sym_value_fixed(rho, f, s) <= bound_geometry_free(rho, f) + 1e-9

    def test_orthogonal_value_dominated_by_orthogonal_bound(self, rng):
        f = preset_functional("c3322")
        for _ in range(50):
            rho = ginibre_state(rng)
            s = random_orthogonal_scenario(rng, 3, 3)
            assert sym_value_fixed(rho, f, s) <= bound_orthogonal(rho, f) + 1e-9


class TestSymWitnessSup:
    def test_pure_product_reaches_two(self):
        rho = make_state("pure_product", theta_a=0.0, theta_b=0.0)
        cfg = OptimizerConfig(restarts=16, seed=0)
        report = sym_sup(rho, preset_functional("chsh"), "free", cfg)
        assert abs(report.value - 2.0) < 1e-6
        assert report.converged
        assert report.restarts_used == 16

    def test_degenerate_marginals_short_circuit(self):
        report = sym_sup(werner(0.5), preset_functional("chsh"))
        assert report.value == 0.0
        assert report.converged
        assert report.restarts_used == 0
        assert report.optimizing_scenario is None

    def test_orthogonal_never_exceeds_its_bound(self, rng):
        cfg = OptimizerConfig(restarts=8, seed=1)
        f = preset_functional("chsh")
        for _ in range(5):
            rho = ginibre_state(rng)
            report = sym_sup(rho, f, "orthogonal", cfg)
            assert report.value <= report.bound("orthogonal") + 1e-8
            assert report.optimizing_scenario.orthogonal

    def test_orthogonal_setting_count_guard(self):
        f = preset_functional("chsh")
        wide = preset_functional("c3322")
        big = type(wide)(
            alpha=np.ones((4, 4)), beta=np.zeros(4), gamma=np.zeros(4), name="wide"
        )
        with pytest.raises(ValueError, match="at most 3"):
            sym_sup(sigma_state(), big, "orthogonal")
        sym_sup(sigma_state(), f, "orthogonal", OptimizerConfig(restarts=2))

    def test_constraint_and_dims_validation(self):
        with pytest.raises(ValueError, match="unknown constraint"):
            sym_sup(sigma_state(), preset_functional("chsh"), "diagonal")
        with pytest.raises(ValueError, match="two-qubit"):
            sym_sup(ghz(), preset_functional("chsh"))

    def test_conjectured_chsh_cap_on_random_corpus(self, rng):
        # The free CHSH witness is at most 2|r_A||r_B|sqrt(s1^2 + s2^2) for
        # the two largest singular values s1 >= s2 of T: with
        # a'_x = (u_x.r_A) u_x and b'_y = (v_y.r_B) v_y it is the CHSH form
        # sum alpha_xy a'_x^T T b'_y over balls of radii |r_A| and |r_B|,
        # whose maximum is |r_A||r_B| times the Horodecki maximum
        # 2 sqrt(s1^2 + s2^2). Purity caps that product at 2. Pure, rank-2
        # and near-product states and the figure grids are where the cap is
        # nearly tight, so an optimizer that overshoots shows there.
        f = preset_functional("chsh")
        cfg = OptimizerConfig(restarts=64, seed=5)
        states = [ginibre_state(rng) for _ in range(200)]
        for _ in range(20):
            states.append(random_pure_state(rng))
            weight = rng.uniform()
            u, v = random_pure_state(rng).matrix, random_pure_state(rng).matrix
            states.append(DensityMatrix(weight * u + (1.0 - weight) * v, (2, 2)))
            eps = 10.0 ** rng.uniform(-6.0, -2.0)
            near = (1.0 - eps) * random_product_state(rng).matrix + eps * ginibre_state(rng).matrix
            states.append(DensityMatrix(near, (2, 2)))
        states += [make_state("transition", p=p) for p in np.linspace(0.0, 1.0, 101)]
        states += [make_state("cg", theta=t) for t in np.linspace(0.02, 0.78, 61)]
        values = []
        for rho in states:
            r_a, r_b, t = first_moments(rho)
            s1, s2 = np.linalg.svd(t, compute_uv=False)[:2]
            cap = 2.0 * np.linalg.norm(r_a) * np.linalg.norm(r_b) * np.hypot(s1, s2)
            values.append(sym_sup(rho, f, "free", cfg).value)
            assert values[-1] <= cap + 1e-9
        assert max(values) <= 2.0 + 1e-6

    # Free-mode CHSH values of the multi-start compass search over spherical
    # angles that the see-saw replaced, at restarts=64, seed=4.
    COMPASS_CHSH = (
        (("transition", {"p": 0.05}), 0.002249999992064544),
        (("transition", {"p": 0.2}), 0.023999998884693976),
        (("transition", {"p": 0.25}), 0.03153713421372446),
        (("transition", {"p": 0.6}), 0.18029310328407874),
        (("transition", {"p": 0.95}), 1.6251099020084356),
        (("sigma", {}), 0.3593144448473604),
    )

    @pytest.mark.parametrize("state, compass", COMPASS_CHSH)
    def test_never_below_compass_values(self, state, compass):
        family, params = state
        cfg = OptimizerConfig(restarts=64, seed=4)
        report = sym_sup(make_state(family, **params), preset_functional("chsh"), "free", cfg)
        assert report.converged
        assert report.value >= compass - 1e-12

    # Orthogonal-mode values of the multi-start compass search over z-y-z
    # frame rotations that the Jacobi sweep replaced, at restarts=8, seed=0.
    COMPASS_ORTHOGONAL = (
        ("chsh", ("sigma", {}), 0.20612660866355745),
        ("chsh", ("transition", {"p": 0.1}), 0.007999999877133034),
        ("chsh", ("transition", {"p": 0.5}), 0.07574838640323704),
        ("chsh", ("transition", {"p": 0.9}), 0.6524999999525242),
        ("chsh", ("cg", {"theta": 0.4, "lam": 0.8}), 0.2003611877394899),
        ("chsh", ("classical", {"theta": 0.7, "beta": 0.3}), 0.9999999999969255),
        ("chsh", ("ginibre", {"k": 0}), 0.10537417067780049),
        ("chsh", ("ginibre", {"k": 1}), 0.09399940687892724),
        ("chsh", ("ginibre", {"k": 2}), 0.02363177027674726),
        ("chsh", ("ginibre", {"k": 3}), 0.11997460835362786),
        ("c3322", ("sigma", {}), 0.6019199999880565),
        ("c3322", ("transition", {"p": 0.1}), 0.017999999999325375),
        ("c3322", ("transition", {"p": 0.5}), 0.26562145354932115),
        ("c3322", ("transition", {"p": 0.9}), 1.4579999999816966),
        ("c3322", ("cg", {"theta": 0.4, "lam": 0.8}), 0.7359959915582294),
        ("c3322", ("classical", {"theta": 0.7, "beta": 0.3}), 1.9999999999812306),
        ("c3322", ("ginibre", {"k": 0}), 0.25196432297660065),
        ("c3322", ("ginibre", {"k": 1}), 0.32362053057749834),
        ("c3322", ("ginibre", {"k": 2}), 0.07847019699432738),
        ("c3322", ("ginibre", {"k": 3}), 0.1622281876171743),
    )

    @pytest.mark.parametrize("name, state, compass", COMPASS_ORTHOGONAL)
    def test_orthogonal_never_below_compass_values(self, name, state, compass):
        family, params = state
        if family == "ginibre":
            rho = ginibre_state(np.random.default_rng(params["k"]))
        else:
            rho = make_state(family, **params)
        report = sym_sup(rho, preset_functional(name), "orthogonal", OptimizerConfig(restarts=8, seed=0))
        assert report.converged
        assert report.value >= compass - 1e-12

    def test_reported_scenario_achieves_value(self, rng):
        cfg = OptimizerConfig(restarts=16, seed=3)
        for constraint in ("free", "orthogonal"):
            for name in ("chsh", "c3322"):
                f = preset_functional(name)
                for _ in range(5):
                    rho = ginibre_state(rng)
                    report = sym_sup(rho, f, constraint, cfg)
                    scenario = report.optimizing_scenario
                    assert scenario.orthogonal == (constraint == "orthogonal")
                    assert abs(sym_value_fixed(rho, f, scenario) - report.value) < 1e-10
        # A skew functional on pure states: the optimal free a^ may sit within
        # 1e-12 of -r^, where the direction of r^ + a^ is rounding noise, so
        # the settings must map back through the half angle.
        skew = BellFunctional(
            alpha=np.array([[1.0, -0.5, 0.7], [0.3, 1.0, -1.0]]),
            beta=np.array([0.4, -0.2]),
            gamma=np.array([-0.3, 0.5, 0.1]),
        )
        for constraint in ("free", "orthogonal"):
            for _ in range(20):
                rho = random_pure_state(rng)
                report = sym_sup(rho, skew, constraint, cfg)
                assert abs(sym_value_fixed(rho, skew, report.optimizing_scenario) - report.value) < 1e-10

    @pytest.mark.parametrize("p", [0.49, 0.51])
    def test_c3322_converges_on_transition(self, p):
        report = sym_sup(make_state("transition", p=p), preset_functional("c3322"), "free")
        assert report.converged
        assert report.restarts_used == 64

    @pytest.mark.parametrize("side", [0, 1])
    def test_exact_at_a_maximally_mixed_marginal(self, rng, side):
        # rho_A x 1/2 (or 1/2 x rho_B) has T = 0 and one marginal r = 0, so the
        # witness is sum beta_x a_x^2 (or sum gamma_y b_y^2), at most
        # sum beta_+ |r_A|^2 with every positive-beta setting along r_A. A
        # positive coefficient keeps the cap above zero, so it is optimized.
        f = BellFunctional(
            alpha=np.array([[1.0, -0.5, 0.7], [0.3, 1.0, -1.0], [0.2, 0.4, 0.9]]),
            beta=np.array([0.6, -0.3, 0.25]),
            gamma=np.array([0.45, -0.2, 0.3]),
        )
        cfg = OptimizerConfig(restarts=16, seed=2)
        for _ in range(5):
            one = rng.uniform(0.2, 1.0) * random_directions(rng, 1)[0]
            rho_one = 0.5 * (np.eye(2) + np.tensordot(one, PAULIS, axes=1))
            pair = (rho_one, np.eye(2) / 2.0) if side == 0 else (np.eye(2) / 2.0, rho_one)
            rho = DensityMatrix(np.kron(*pair), (2, 2))
            coef = f.beta if side == 0 else f.gamma
            exact = np.maximum(coef, 0.0).sum() * (one @ one)
            report = sym_sup(rho, f, "free", cfg)
            assert report.restarts_used == 16
            assert abs(report.value - exact) <= 1e-12
            assert abs(sym_value_fixed(rho, f, report.optimizing_scenario) - exact) <= 1e-12

    def test_c3322_stays_under_geometry_free_cap(self, rng):
        f = preset_functional("c3322")
        for _ in range(20):
            rho = ginibre_state(rng)
            report = sym_sup(rho, f, "free")
            assert report.converged
            assert report.value <= bound_geometry_free(rho, f) + 1e-9

    def test_converged_describes_reported_optimum(self):
        f = preset_functional("chsh")
        one_step = OptimizerConfig(restarts=8, seed=0, max_iterations=1)
        assert not sym_sup(sigma_state(), f, "free", one_step).converged
        assert not sym_sup(sigma_state(), f, "orthogonal", one_step).converged
        assert sym_sup(werner(0.5), f, "free", one_step).converged

    def test_same_seed_reproduces_bitwise(self):
        cfg = OptimizerConfig(restarts=8, seed=9)
        f = preset_functional("chsh")
        for constraint in ("free", "orthogonal"):
            a = sym_sup(sigma_state(), f, constraint, cfg)
            b = sym_sup(sigma_state(), f, constraint, cfg)
            assert a.value == b.value

    def test_free_mode_calls_no_eigh(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.eigh called")

        states = [ginibre_state(rng), sigma_state(), make_state("transition", p=0.3)]
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for rho in states:
            for name in ("chsh", "c3322"):
                report = sym_sup(rho, preset_functional(name), "free", OptimizerConfig(restarts=8))
                assert report.restarts_used == 8


class TestMermin:
    def test_lhv_bound_is_two(self):
        assert mermin_lhv_bound() == 2.0

    def test_ghz_reaches_algebraic_maximum(self):
        assert abs(mermin_value(ghz()) - 4.0) < 1e-12

    def test_product_state_along_z_scores_zero(self):
        rho = pure_product([ket(0), ket(0), ket(0)])
        assert abs(mermin_value(rho)) < 1e-14

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError, match="three-qubit"):
            mermin_value(singlet())
        with pytest.raises(ValueError, match="three-qubit"):
            mermin_lpo_witness(singlet())

    def test_settings_shape_validated(self):
        s = mermin_settings()
        assert len(s) == 3
        with pytest.raises(ValueError, match="setting pair"):
            mermin_value(ghz(), settings=s[:2])

    def test_lpo_witness_settings_shape_validated(self):
        with pytest.raises(ValueError, match="setting pair"):
            mermin_lpo_witness(ghz(), "sym_fixed", settings=mermin_settings()[:2])

    def test_lpo_witness_vanishes_on_ghz(self):
        assert mermin_lpo_witness(ghz(), "asym_sup").value == 0.0
        assert mermin_lpo_witness(ghz(), "sym_fixed").value == 0.0

    def test_lpo_witness_on_pure_product_reaches_classical_bound(self):
        rho = pure_product([ket(0), ket(0), ket(0)])
        report = mermin_lpo_witness(rho, "asym_sup")
        assert report.value == 2.0
        assert report.bound("lhv") == 2.0

    def test_sym_fixed_cap_scales_with_marginal_norms(self):
        rho = pure_product([ket(0), ket(0), ket(0)])
        report = mermin_lpo_witness(rho, "sym_fixed")
        # Means along x/y vanish for a z-aligned product, so the value is 0
        # while the cap reflects the unit marginal norms.
        assert report.value == 0.0
        assert report.bound("geometry_free") == 4.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            mermin_lpo_witness(ghz(), "bogus")

    def test_lhv_bound_matches_vertex_scan(self):
        assert mermin_lhv_bound() == reference_mermin_vertex_max((1.0, 1.0, 1.0))

    def test_asym_sup_is_norm_product_times_lhv_bound(self, rng):
        states = [ginibre_state(rng, dims=(2, 2, 2)) for _ in range(200)]
        states += [random_product_state(rng, 3) for _ in range(100)]
        for rho in states:
            n0, n1, n2 = (float(np.linalg.norm(bloch_vector(rho.marginal(k)))) for k in range(3))
            value = mermin_lpo_witness(rho, "asym_sup").value
            assert value == n0 * n1 * n2 * 2.0
            oracle = reference_mermin_vertex_max((n0, n1, n2))
            assert oracle - 1e-15 <= value <= oracle

    def test_tensor_contraction_matches_kron_traces(self, rng):
        # At the default x/y settings the contraction of T_ABC picks tensor
        # entries exactly, so the value is bit-identical to the kron traces;
        # at random settings the two sums may round differently.
        for _ in range(200):
            rho = ginibre_state(rng, dims=(2, 2, 2))
            want = 0.0
            for obs, sign in _mermin_terms(None):
                want += sign * reference_mermin_correlator(rho, obs)
            assert mermin_value(rho).hex() == want.hex()
            pairs = tuple(tuple(observable(v) for v in random_directions(rng, 2)) for _ in range(3))
            r_vecs = [reference_bloch_vector(rho.marginal(k).matrix) for k in range(3)]
            want = sym_fixed = 0.0
            for obs, sign in _mermin_terms(pairs):
                corr = reference_mermin_correlator(rho, obs)
                want += sign * corr
                means = [float(r_vecs[k] @ obs[k].direction) for k in range(3)]
                sym_fixed += sign * means[0] * means[1] * means[2] * corr
            assert abs(mermin_value(rho, pairs) - want) <= 1e-15
            assert abs(mermin_lpo_witness(rho, "sym_fixed", pairs).value - sym_fixed) <= 1e-15

    def test_asym_sup_dominated_by_lhv_on_random_states(self, rng):
        for _ in range(20):
            rho = ginibre_state(rng, dims=(2, 2, 2))
            report = mermin_lpo_witness(rho, "asym_sup")
            assert report.value <= 2.0 + 1e-9
