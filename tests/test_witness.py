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
from lpow.states import ghz, ket, make_state, pure_product, sigma_state, singlet, werner
from util import (
    ginibre_state,
    operator_asym_value,
    perceived_sym_value,
    random_orthogonal_scenario,
    random_product_state,
    random_scenario,
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

    def test_oversized_functional_rejected_before_enumerating(self):
        # 2^25 vertices would take minutes to scan; the guard fires first.
        f = BellFunctional(alpha=np.ones((13, 12)), beta=np.zeros(13), gamma=np.zeros(12))
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
        # Free-setting optimized symmetric CHSH witness never found above 2.
        f = preset_functional("chsh")
        cfg = OptimizerConfig(restarts=64, seed=5)
        values = [sym_sup(ginibre_state(rng), f, "free", cfg).value for _ in range(200)]
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

    def test_asym_sup_dominated_by_lhv_on_random_states(self, rng):
        for _ in range(20):
            rho = ginibre_state(rng, dims=(2, 2, 2))
            report = mermin_lpo_witness(rho, "asym_sup")
            assert report.value <= 2.0 + 1e-9
