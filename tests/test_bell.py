import itertools
import math

import numpy as np
import pytest

from lpow import (
    BellFunctional,
    MeasurementScenario,
    bilinear_value,
    chsh_settings,
    functional_value,
    lhv_bound,
    marginal_means,
    normalized_value,
    optimize_functional_value,
    planar_3322_settings,
    preset_functional,
    scenario_from_directions,
)
from lpow import QubitObservable
from lpow.states import ghz, make_state, sigma_state, singlet, transition, werner
from lpow.bell import _normalize_rows, _vertex_max
from util import (
    assert_means_match_traces,
    ginibre_state,
    random_directions,
    random_scenario,
    reference_bell_operator_matrix as bell_operator_matrix,
    reference_c3322_value as c3322_value,
    reference_cond_joint_prob as cond_joint_prob,
    reference_i2222_affine_value as i2222_probability_value,
    reference_i2222_probability_value,
    reference_i3322_affine_value as i3322_probability_value,
    reference_i3322_probability_value,
    reference_lhv_bound,
    reference_masked_normalize_rows,
)


class TestBellFunctional:
    def test_preset_chsh(self):
        f = preset_functional("chsh")
        assert np.array_equal(f.alpha, [[1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(f.beta, [0.0, 0.0])
        assert np.array_equal(f.gamma, [0.0, 0.0])
        assert f.shape == (2, 2)

    def test_preset_c3322(self):
        f = preset_functional("c3322")
        assert np.array_equal(f.alpha, [[1, 1, 1], [1, 1, -1], [1, -1, 0]])
        assert np.array_equal(f.beta, [1.0, 1.0, 0.0])
        assert np.array_equal(f.gamma, [-1.0, -1.0, 0.0])

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown functional"):
            preset_functional("i9999")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="lengths"):
            BellFunctional(alpha=np.eye(2), beta=np.zeros(3), gamma=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            BellFunctional(alpha=np.full((2, 2), np.nan), beta=np.zeros(2), gamma=np.zeros(2))


class TestScenarios:
    def test_orthogonal_flag_validated(self, rng):
        axes = tuple(QubitObservable(d) for d in np.eye(3))
        MeasurementScenario(axes, axes, orthogonal=True)
        skew = random_directions(rng, 3)
        skew[1] = skew[0]
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            scenario_from_directions(skew, np.eye(3), orthogonal=True)

    def test_chsh_settings_layout(self):
        s = chsh_settings()
        inv = 1.0 / math.sqrt(2.0)
        assert np.allclose(s.alice_directions, [[1, 0, 0], [0, 0, 1]])
        assert np.allclose(s.bob_directions, [[inv, 0, inv], [inv, 0, -inv]])

    def test_planar_3322_settings_layout(self):
        s = planar_3322_settings()
        a = s.alice_directions
        b = s.bob_directions
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(b, axis=1), 1.0)
        # cos(eta) = sqrt(7/8) on A's tilted pair, third settings along -x/+x.
        assert np.allclose(a[0][2], math.sqrt(7.0 / 8.0))
        assert np.allclose(a[1], [-a[0][0], 0.0, a[0][2]])
        assert np.allclose(a[2], [-1.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(b[1][2], math.sqrt(2.0 / 3.0))
        assert np.allclose(b[2], [1.0, 0.0, 0.0], atol=1e-15)
        # Everything stays in the x-z plane.
        assert np.allclose(a[:, 1], 0.0)
        assert np.allclose(b[:, 1], 0.0)

    def test_non_finite_direction_rejected(self):
        with pytest.raises(ValueError, match="direction must be finite"):
            scenario_from_directions([[np.nan, 0.0, 0.0]], [[0.0, 0.0, 1.0]])


class TestValues:
    def test_operator_and_means_paths_agree(self, rng):
        f = preset_functional("chsh")
        for _ in range(10):
            rho = ginibre_state(rng)
            s = random_scenario(rng, 2, 2)
            via_operator = np.trace(rho.matrix @ bell_operator_matrix(f, s)).real
            via_means = functional_value(rho, f, s)
            assert abs(via_operator - via_means) < 1e-12

    def test_bell_operator_shape_mismatch(self):
        with pytest.raises(ValueError, match="setting counts"):
            bell_operator_matrix(preset_functional("c3322"), chsh_settings())

    def test_singlet_chsh_at_canonical_settings(self):
        # The canonical settings maximize |S|; the sign is fixed by the
        # anti-correlations of the singlet.
        value = functional_value(singlet(), preset_functional("chsh"), chsh_settings())
        assert abs(abs(value) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_marginal_means_requires_two_qubits(self):
        with pytest.raises(ValueError, match="two-qubit"):
            marginal_means(ghz(), chsh_settings())

    def test_bilinear_value_shape_check(self):
        f = preset_functional("chsh")
        with pytest.raises(ValueError, match="lengths"):
            bilinear_value(f, [1.0, 1.0, 1.0], [1.0, 1.0])

    def test_sigma_state_planar_c3322(self):
        value = c3322_value(sigma_state(), planar_3322_settings())
        assert abs(value - 4.051433700984907) < 1e-12

    def test_c3322_value_needs_three_settings(self):
        with pytest.raises(ValueError, match="3 settings"):
            c3322_value(sigma_state(), chsh_settings())


class TestLhvBound:
    def test_preset_bounds(self):
        assert lhv_bound(preset_functional("chsh")) == 2.0
        assert lhv_bound(preset_functional("c3322")) == 4.0

    def test_matches_full_vertex_enumeration(self, rng):
        for _ in range(10):
            m, n = rng.integers(1, 4, size=2)
            f = BellFunctional(
                alpha=rng.normal(size=(m, n)),
                beta=rng.normal(size=m),
                gamma=rng.normal(size=n),
            )
            brute = max(
                bilinear_value(f, a, b)
                for a in itertools.product((-1.0, 1.0), repeat=int(m))
                for b in itertools.product((-1.0, 1.0), repeat=int(n))
            )
            assert abs(lhv_bound(f) - brute) < 1e-12

    def test_dominates_random_boxes(self, rng):
        f = preset_functional("c3322")
        bound = lhv_bound(f)
        for _ in range(1000):
            a = rng.choice([-1.0, 1.0], size=3)
            b = rng.choice([-1.0, 1.0], size=3)
            assert bilinear_value(f, a, b) <= bound + 1e-12

    def test_enumeration_size_guard(self):
        f = BellFunctional(
            alpha=np.ones((1, 25)), beta=np.zeros(1), gamma=np.zeros(25)
        )
        with pytest.raises(ValueError, match="too large"):
            lhv_bound(f)

    def test_bit_identical_to_reference_scan(self, rng):
        functionals = [preset_functional("chsh"), preset_functional("c3322")]
        for _ in range(300):
            m, n = rng.integers(1, 6, size=2)
            functionals.append(
                BellFunctional(
                    alpha=rng.normal(size=(m, n)), beta=rng.normal(size=m), gamma=rng.normal(size=n)
                )
            )
        for f in functionals:
            assert lhv_bound(f).hex() == reference_lhv_bound(f).hex()


class TestVertexKernel:
    def test_first_lexicographic_maximizer_on_integer_functionals(self, rng):
        # Small integer coefficients make every vertex value exact, so ties
        # are real and the kernel must return the first maximizing (a, b) of
        # the lexicographic scan over all 2^(m+n) sign vertices.
        ties = 0
        for _ in range(200):
            m, n = (int(k) for k in rng.integers(1, 5, size=2))
            alpha = rng.integers(-1, 2, size=(m, n)).astype(float)
            beta = rng.integers(-1, 2, size=m).astype(float)
            gamma = rng.integers(-1, 2, size=n).astype(float)
            vertices = [np.array(v) for v in itertools.product((-1.0, 1.0), repeat=m + n)]
            scores = [v[:m] @ alpha @ v[m:] + beta @ v[:m] + gamma @ v[m:] for v in vertices]
            best = int(np.argmax(scores))
            ties += scores.count(scores[best]) > 1
            value, a, b = _vertex_max(alpha, beta, gamma)
            assert value == scores[best]
            assert np.array_equal(np.concatenate([a, b]), vertices[best])
        assert ties > 100


class TestNormalizeRows:
    def test_bit_identical_to_masked_form(self, rng):
        # Random scales, plus zero, 1e-15, boundary and NaN rows that take
        # the masked +z path; the float.hex of every entry must agree.
        for index in range(300):
            shape = [(64, 3, 3), (6, 64, 2, 3), (2, 16, 3, 3)][index % 3]
            v = rng.normal(size=shape) * 10.0 ** rng.uniform(-16, 8)
            if index % 2:
                rows = v.reshape(-1, 3)
                picks = rng.choice(len(rows), size=4, replace=False)
                rows[picks[0]] = 0.0
                rows[picks[1]] = 1e-15 * rng.normal(size=3)
                rows[picks[2]] = [1e-14, 0.0, 0.0]
                if index % 3 == 1:
                    rows[picks[3], rng.integers(3)] = np.nan
            got, want = _normalize_rows(v), reference_masked_normalize_rows(v)
            assert [x.hex() for x in got.ravel()] == [x.hex() for x in want.ravel()]


class TestJointProbabilities:
    def test_outcome_validation(self):
        with pytest.raises(ValueError, match="bits"):
            cond_joint_prob(2, 0, 0.0, 0.0, 0.0)

    def test_correlator_range_validation(self):
        with pytest.raises(ValueError, match="outside"):
            cond_joint_prob(0, 0, 1.5, 0.0, 0.0)

    def test_warns_on_unphysical_triple(self):
        with pytest.warns(UserWarning, match="unphysical"):
            cond_joint_prob(1, 1, 0.9, 0.9, -0.9)

    def test_uniform_correlators(self):
        assert cond_joint_prob(0, 0, 0.0, 0.0, 0.0) == 0.25
        assert cond_joint_prob(0, 1, 1.0, -1.0, -1.0) == 1.0

    def test_quantum_correlators_give_a_distribution(self, rng):
        for _ in range(50):
            rho = ginibre_state(rng)
            s = random_scenario(rng, 1, 1)
            means = marginal_means(rho, s)
            assert_means_match_traces(rho, s)
            probs = [
                cond_joint_prob(a, b, means.a[0], means.b[0], means.c[0, 0])
                for a in (0, 1)
                for b in (0, 1)
            ]
            assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in probs)
            assert abs(sum(probs) - 1.0) < 1e-10


class TestInequalityIdentities:
    def test_c3322_equals_four_times_shifted_i3322(self, rng):
        for _ in range(25):
            rho = ginibre_state(rng)
            s = random_scenario(rng, 3, 3)
            c = c3322_value(rho, s)
            i = i3322_probability_value(rho, s)
            assert abs(c - 4.0 * (i + 1.0)) < 1e-10

    def test_i2222_equals_quarter_chsh_minus_half(self, rng):
        f = preset_functional("chsh")
        for _ in range(25):
            rho = ginibre_state(rng)
            s = random_scenario(rng, 2, 2)
            assert abs(
                i2222_probability_value(rho, s) - (functional_value(rho, f, s) / 4.0 - 0.5)
            ) < 1e-12

    def test_probability_forms_match_joint_probability_oracles(self, rng):
        # The library forms are affine images of the correlator forms; the
        # oracles sum the joint probabilities term by term.
        for _ in range(25):
            rho = ginibre_state(rng)
            s2, s3 = random_scenario(rng, 2, 2), random_scenario(rng, 3, 3)
            assert abs(i2222_probability_value(rho, s2) - reference_i2222_probability_value(rho, s2)) < 1e-12
            assert abs(
                4.0 * (i3322_probability_value(rho, s3) - reference_i3322_probability_value(rho, s3))
            ) < 1e-10

    def test_setting_count_validation(self):
        with pytest.raises(ValueError, match="3 settings"):
            i3322_probability_value(sigma_state(), chsh_settings())
        with pytest.raises(ValueError, match="2 settings"):
            i2222_probability_value(sigma_state(), planar_3322_settings())

    def test_deterministic_boxes_never_violate_i3322(self):
        # Sign boxes realized by pure product states along +-z; the
        # probability form must stay at or below 0 on all of them.
        for bits_a, bits_b in itertools.product(
            itertools.product((0, 1), repeat=1), repeat=2
        ):
            rho = make_state(
                "pure_product",
                theta_a=math.pi * bits_a[0],
                theta_b=math.pi * bits_b[0],
            )
            dirs = [(0.0, 0.0, 1.0)] * 3
            s = scenario_from_directions(dirs, dirs)
            assert i3322_probability_value(rho, s) <= 1e-12

    def test_normalized_value_mapping(self):
        assert normalized_value("i3322_tilde", 0.0) == 1.0
        assert normalized_value("i2222_tilde", 0.25) == 1.5
        assert normalized_value("i2222_lpo_tilde", 0.0) == 1.0
        with pytest.raises(ValueError, match="unknown normalization"):
            normalized_value("bogus", 0.0)


class TestOptimizeFunctionalValue:
    def test_singlet_reaches_tsirelson(self):
        opt = optimize_functional_value(singlet(), preset_functional("chsh"), restarts=16)
        assert abs(opt.value - 2.0 * math.sqrt(2.0)) < 1e-8
        assert opt.converged

    def test_werner_c3322_linear_in_p(self):
        for p in (0.6, 1.0):
            opt = optimize_functional_value(
                werner(p), preset_functional("c3322"), restarts=32, seed=2
            )
            assert abs(opt.value - 5.0 * p) < 1e-6

    def test_transition_c3322_closed_form(self):
        # On the triplet/|00> path the optimum is 5 - 4p for small p.
        opt = optimize_functional_value(
            transition(0.1), preset_functional("c3322"), restarts=32, seed=3
        )
        assert abs(opt.value - 4.6) < 1e-6

    def test_same_seed_reproduces_bitwise(self):
        f = preset_functional("c3322")
        rho = transition(0.3)
        a = optimize_functional_value(rho, f, restarts=8, seed=11)
        b = optimize_functional_value(rho, f, restarts=8, seed=11)
        assert a.value == b.value
        assert np.array_equal(
            a.scenario.alice_directions, b.scenario.alice_directions
        )

    def test_iteration_cap_is_not_convergence(self):
        opt = optimize_functional_value(sigma_state(), preset_functional("chsh"), max_iterations=1)
        assert opt.iterations == 1
        assert not opt.converged

    @pytest.mark.parametrize("cap", [2, 4, 5])
    def test_iteration_cap_counts_map_calls(self, cap):
        # A SQUAREM cycle makes three map calls; when fewer remain, plain
        # maps run up to the cap, and reaching it never counts as converged.
        opt = optimize_functional_value(sigma_state(), preset_functional("chsh"), max_iterations=cap)
        assert opt.iterations == cap
        assert not opt.converged

    def test_reported_scenario_achieves_value(self, rng):
        # The second functional has alpha != alpha^T, so the B update must
        # contract alpha itself, not its transpose.
        skew = BellFunctional(
            alpha=np.array([[1.0, 2.0], [-0.5, 0.3]]),
            beta=np.array([0.1, 0.0]),
            gamma=np.array([0.0, 0.2]),
        )
        for f in (preset_functional("chsh"), skew):
            for seed in range(4):
                rho = ginibre_state(rng)
                opt = optimize_functional_value(rho, f, restarts=16, seed=seed + 5)
                assert opt.converged
                assert abs(functional_value(rho, f, opt.scenario) - opt.value) < 1e-10

    def test_never_below_lhv_reachable_and_never_above_quantum_max(self, rng):
        f = preset_functional("chsh")
        for _ in range(5):
            rho = ginibre_state(rng)
            opt = optimize_functional_value(rho, f, restarts=16, seed=7)
            assert opt.value <= 2.0 * math.sqrt(2.0) + 1e-9
