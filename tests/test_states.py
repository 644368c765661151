import itertools
import math

import numpy as np
import pytest

import lpow.states
from lpow import (
    DensityMatrix,
    OptimizerConfig,
    QubitObservable,
    bloch_vector,
    bound_geometry_free,
    bound_orthogonal,
    cg_lambda,
    compute_quantities,
    correlation_matrix,
    horodecki,
    make_state,
    observable,
    optimize_functional_value,
    optimized_chsh,
    preset_functional,
    sym_sup,
)
from lpow.linalg import PAULIS, kron
from lpow.states import (
    _cg_chsh_gap,
    cg,
    classical,
    first_moments,
    ghz,
    ket,
    maximally_mixed,
    projector,
    pure_product,
    sigma_state,
    singlet,
    transition,
    werner,
)
from util import (
    ginibre_state,
    random_pure_state,
    random_product_state,
    reference_bloch_vector,
    reference_correlation_matrix,
    reference_partial_trace,
)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4.0 + 0j
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(m)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.full((4, 4), np.nan))

    def test_rejects_shape_dims_mismatch(self):
        with pytest.raises(ValueError, match="does not match dims"):
            DensityMatrix(np.eye(4) / 4.0, dims=(2, 2, 2))

    def test_accepts_tiny_negative_float_noise(self):
        eps = 5e-11
        m = np.diag([0.5, 0.5 + eps, 0.0, -eps]).astype(complex)
        DensityMatrix(m)

    def test_marginal_of_product_recovers_factor(self, rng):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        w /= np.linalg.norm(w)
        rho = pure_product([v, w])
        assert np.allclose(rho.marginal(0).matrix, projector(v))
        assert np.allclose(rho.marginal(1).matrix, projector(w))
        assert rho.n_parties == 2


class TestObservables:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValueError, match="unit"):
            QubitObservable(np.array([1.0, 1.0, 0.0]))

    def test_observable_normalizes(self):
        o = observable([0.0, 0.0, 2.5])
        assert np.allclose(o.direction, [0.0, 0.0, 1.0])
        assert np.allclose(o.matrix, np.diag([1.0, -1.0]))

    def test_direction_must_be_finite(self):
        with pytest.raises(ValueError, match="direction must be finite"):
            QubitObservable(np.array([np.nan, 0.0, 0.0]))

    def test_observable_rejects_non_finite(self):
        for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="observable vector must be finite"):
                observable(bad)

    def test_observable_rejects_zero(self):
        with pytest.raises(ValueError, match="zero"):
            observable([0.0, 0.0, 0.0])

    def test_matrix_has_plus_minus_one_spectrum(self, rng):
        v = rng.normal(size=3)
        o = observable(v)
        eig = np.sort(np.linalg.eigvalsh(o.matrix))
        assert np.allclose(eig, [-1.0, 1.0])


class TestFamilies:
    def test_singlet_correlation_matrix_is_minus_identity(self):
        assert np.allclose(correlation_matrix(singlet()), -np.eye(3), atol=1e-14)

    def test_werner_interpolates_between_noise_and_singlet(self):
        assert np.allclose(werner(1.0).matrix, singlet().matrix)
        assert np.allclose(werner(0.0).matrix, np.eye(4) / 4.0)

    def test_werner_is_locally_maximally_mixed(self):
        for p in (0.0, 0.3, 0.7, 1.0):
            rho = werner(p)
            assert np.allclose(rho.marginal(0).matrix, np.eye(2) / 2.0, atol=1e-14)
            assert np.allclose(bloch_vector(rho.marginal(1)), 0.0, atol=1e-14)

    def test_werner_correlation_matrix_scales_with_p(self):
        assert np.allclose(correlation_matrix(werner(0.4)), -0.4 * np.eye(3), atol=1e-14)

    def test_werner_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            werner(1.2)

    def test_sigma_state_marginals(self):
        rho = sigma_state()
        assert np.allclose(bloch_vector(rho.marginal(0)), [0.0, 0.0, 0.66], atol=1e-12)
        assert np.allclose(bloch_vector(rho.marginal(1)), [0.0, 0.0, 0.36], atol=1e-12)

    def test_transition_endpoints(self):
        triplet = (ket(0, 1) + ket(1, 0)) / math.sqrt(2)
        assert np.allclose(transition(0.0).matrix, projector(triplet))
        assert np.allclose(transition(1.0).matrix, projector(ket(0, 0)))

    def test_transition_marginal_bloch_grows_linearly(self):
        # Both marginals sit at (0, 0, p); in particular p = 0.5 is *not*
        # locally maximally mixed.
        for p in (0.1, 0.5, 0.9):
            rho = transition(p)
            assert np.allclose(bloch_vector(rho.marginal(0)), [0.0, 0.0, p], atol=1e-12)
            assert np.allclose(bloch_vector(rho.marginal(1)), [0.0, 0.0, p], atol=1e-12)

    def test_classical_is_pure_product(self):
        rho = classical(0.3, 1.1)
        a = math.cos(0.3) * ket(0) + np.exp(1.1j) * math.sin(0.3) * ket(1)
        assert np.allclose(rho.matrix, pure_product([a, ket(0)]).matrix)

    def test_ghz_marginals_are_maximally_mixed(self):
        rho = ghz()
        assert rho.dims == (2, 2, 2)
        for k in range(3):
            assert np.allclose(rho.marginal(k).matrix, np.eye(2) / 2.0, atol=1e-14)

    def test_maximally_mixed(self):
        assert np.allclose(maximally_mixed(2).matrix, np.eye(4) / 4.0)
        assert maximally_mixed(3).dims == (2, 2, 2)

    def test_pure_product_validation(self):
        with pytest.raises(ValueError, match="normalized"):
            pure_product([np.array([1.0, 1.0])])
        with pytest.raises(ValueError, match="single-qubit"):
            pure_product([np.ones(3) / math.sqrt(3)])
        with pytest.raises(ValueError, match="at least one"):
            pure_product([])


class TestMakeState:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown state family"):
            make_state("bogus")

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError, match="missing parameter"):
            make_state("werner")
        with pytest.raises(ValueError, match="unknown parameter"):
            make_state("werner", p=0.5, q=1.0)

    def test_non_finite_parameters_are_named(self):
        with pytest.raises(ValueError, match="'theta' must be finite"):
            make_state("classical", theta=math.nan, beta=0.0)
        with pytest.raises(ValueError, match="'beta' must be finite"):
            make_state("classical", theta=0.3, beta=math.inf)
        with pytest.raises(ValueError, match="'theta' must be finite"):
            make_state("cg", theta=-math.inf)
        with pytest.raises(ValueError, match="'phi_b' must be finite"):
            make_state("pure_product", theta_a=0.0, theta_b=0.0, phi_b=math.nan)

    def test_cg_solves_lambda_when_omitted(self):
        theta = 0.3
        rho = make_state("cg", theta=theta)
        assert np.allclose(rho.matrix, cg(theta, cg_lambda(theta)).matrix)

    def test_pure_product_from_angles(self):
        rho = make_state("pure_product", theta_a=0.0, theta_b=0.0)
        assert np.allclose(rho.matrix, projector(ket(0, 0)))
        rho3 = make_state("pure_product", theta_a=0.0, theta_b=0.0, theta_c=0.0)
        assert rho3.dims == (2, 2, 2)

    def test_pure_product_from_kets(self):
        rho = make_state("pure_product", kets=[ket(1), ket(0)])
        assert np.allclose(rho.matrix, projector(ket(1, 0)))

    def test_pure_product_rejects_mixed_param_styles(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            make_state("pure_product", kets=[ket(0), ket(0)], theta_a=0.1)
        with pytest.raises(ValueError, match="needs kets or theta"):
            make_state("pure_product")


class TestBlochLevel:
    def test_bloch_vector_requires_single_qubit(self):
        with pytest.raises(ValueError, match="single-qubit"):
            bloch_vector(np.eye(4) / 4.0)

    def test_pure_qubit_has_unit_bloch_norm(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            assert abs(np.linalg.norm(bloch_vector(projector(v))) - 1.0) < 1e-12

    def test_correlation_matrix_requires_two_qubits(self):
        with pytest.raises(ValueError, match="two-qubit"):
            correlation_matrix(ghz())

    def test_correlation_entries_bounded(self, rng):
        for _ in range(20):
            t = correlation_matrix(ginibre_state(rng))
            assert np.abs(t).max() <= 1.0 + 1e-12


def hex_table(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def two_qubit_corpus(rng) -> list[DensityMatrix]:
    """3,117 two-qubit states: random ones and the figure families' grids."""
    states = [ginibre_state(rng) for _ in range(1400)]
    states += [random_pure_state(rng) for _ in range(600)]
    states += [random_product_state(rng) for _ in range(400)]
    states += [make_state("cg", theta=t) for t in np.linspace(0.02, 0.78, 61)]
    states += [make_state("transition", p=p) for p in np.linspace(0.0, 1.0, 101)]
    states += [make_state("werner", p=p) for p in np.linspace(0.0, 1.0, 101)]
    states += [
        make_state("classical", theta=t, beta=b)
        for t in np.linspace(0.0, math.pi / 2.0, 41)
        for b in np.linspace(0.0, 2.0 * math.pi, 11)
    ]
    return states + [singlet(), sigma_state(), maximally_mixed()]


class TestFirstMoments:
    def test_built_once_per_state(self, rng, monkeypatch):
        traced = []
        gathered = []
        original_trace = lpow.states.partial_trace
        original_gather = lpow.states._pauli_traces

        def counted_trace(m, dims, keep):
            traced.append(keep)
            return original_trace(m, dims, keep)

        def counted_gather(m, n):
            gathered.append(n)
            return original_gather(m, n)

        monkeypatch.setattr(lpow.states, "partial_trace", counted_trace)
        monkeypatch.setattr(lpow.states, "_pauli_traces", counted_gather)
        rho = ginibre_state(rng)
        cfg = OptimizerConfig(restarts=8, seed=0)
        two_qubit = [
            "s_chsh",
            "s_chsh_lpo",
            "i3322_tilde",
            "c3322",
            "i2222_tilde",
            "i2222_lpo_tilde",
            "horodecki_m",
            "bloch_norm_a",
            "bloch_norm_b",
        ]
        compute_quantities(two_qubit, rho, cfg)
        report = sym_sup(rho, preset_functional("c3322"), "orthogonal", cfg)
        assert [name for name, _ in report.bounds] == ["geometry_free", "orthogonal"]
        # The two marginals are taken once, and the two-qubit gather runs once.
        assert traced == [(0,), (1,)]
        assert gathered.count(2) == 1 and set(gathered) == {1, 2}

    def test_cached_arrays_are_read_only(self, rng):
        rho = ginibre_state(rng)
        r_a, r_b, t = first_moments(rho)
        assert all(x is y for x, y in zip(first_moments(rho), (r_a, r_b, t)))
        for array in (r_a, r_b, t):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert np.array_equal(t, correlation_matrix(rho))

    def test_requires_two_qubits(self):
        # Two and three qubits are accepted; every other qubit count raises.
        for rho in (maximally_mixed(1), maximally_mixed(4)):
            with pytest.raises(ValueError, match="two- or three-qubit"):
                first_moments(rho)
        assert len(first_moments(ghz())) == 4

    def test_match_kron_traces_bit_for_bit(self, rng):
        # A change in the gather's phases or in numpy's summation order
        # shows here as a last-bit difference.
        for rho in two_qubit_corpus(rng):
            moments = first_moments(rho)
            want_t = reference_correlation_matrix(rho)
            assert hex_table(moments[2]) == hex_table(want_t)
            assert hex_table(correlation_matrix(rho)) == hex_table(want_t)
            for k in range(2):
                want_r = reference_bloch_vector(reference_partial_trace(rho.matrix, (2, 2), (k,)))
                assert hex_table(moments[k]) == hex_table(want_r)
                assert hex_table(bloch_vector(rho.marginal(k))) == hex_table(want_r)

    def test_three_qubit_pauli_strings_match_kron_traces(self, rng):
        states = [ginibre_state(rng, (2, 2, 2)) for _ in range(120)]
        states += [random_pure_state(rng, (2, 2, 2)) for _ in range(60)]
        states += [random_product_state(rng, 3) for _ in range(40)]
        states.append(ghz())
        for rho in states:
            *r_vecs, t = first_moments(rho)
            assert t.shape == (3, 3, 3)
            for i, j, k in itertools.product(range(3), repeat=3):
                op = kron(PAULIS[i], PAULIS[j], PAULIS[k])
                assert t[i, j, k].hex() == np.trace(rho.matrix @ op).real.hex()
            for k, r in enumerate(r_vecs):
                want = reference_bloch_vector(reference_partial_trace(rho.matrix, (2, 2, 2), (k,)))
                assert hex_table(r) == hex_table(want)

    def test_correlation_matrix_is_a_writable_copy(self, rng):
        rho = ginibre_state(rng)
        t = correlation_matrix(rho)
        t[0, 0] = 5.0
        assert first_moments(rho)[2][0, 0] != 5.0

    @pytest.mark.parametrize(
        "evaluate",
        [
            horodecki,
            lambda rho: bound_geometry_free(rho, preset_functional("chsh")),
            lambda rho: bound_orthogonal(rho, preset_functional("chsh")),
            lambda rho: optimize_functional_value(rho, preset_functional("chsh"), restarts=2),
        ],
        ids=["horodecki", "bound_geometry_free", "bound_orthogonal", "optimize_functional_value"],
    )
    def test_two_qubit_readers_reject_three_qubits(self, evaluate):
        with pytest.raises(ValueError, match="needs a two-qubit state"):
            evaluate(ghz())


class TestMarginals:
    def test_same_read_only_object_on_every_call(self, rng):
        rho = ginibre_state(rng, (2, 3))
        for k in range(2):
            sub = rho.marginal(k)
            assert sub is rho.marginal(k)
            assert sub.dims == (rho.dims[k],)
            with pytest.raises(ValueError, match="read-only"):
                sub.matrix[0, 0] = 0.0
            assert hex_table(sub.matrix.view(float)) == hex_table(
                reference_partial_trace(rho.matrix, rho.dims, (k,)).view(float)
            )

    def test_party_out_of_range(self):
        for party in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                singlet().marginal(party)


class TestHorodecki:
    def test_singlet_maximally_violates(self):
        h = horodecki(singlet())
        assert abs(h.s1 - 1.0) < 1e-12 and abs(h.s2 - 1.0) < 1e-12
        assert abs(h.m_value - math.sqrt(2.0)) < 1e-12
        assert not h.admits_lhv
        assert abs(optimized_chsh(singlet()) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_werner_m_value_scales_with_p(self):
        for p in (0.2, 0.5, 1.0 / math.sqrt(2.0), 0.9):
            h = horodecki(werner(p))
            assert abs(h.m_value - p * math.sqrt(2.0)) < 1e-12
        assert horodecki(werner(0.70)).admits_lhv
        assert not horodecki(werner(0.72)).admits_lhv

    def test_product_states_admit_lhv(self, rng):
        for _ in range(10):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            w /= np.linalg.norm(w)
            h = horodecki(pure_product([v, w]))
            assert h.m_value <= 1.0 + 1e-10
            assert h.admits_lhv


class TestCgLambda:
    def test_quarter_pi_closed_form(self):
        # At theta = pi/4 the correlation matrix is diag(l, -l, 2l - 1), so
        # s1 = s2 = l and the unit-m condition solves to l = 1/sqrt(2).
        assert abs(cg_lambda(math.pi / 4.0) - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_solved_weight_pins_chsh_to_classical_bound(self):
        for theta in (0.15, 0.3, 0.7, 1.2):
            lam = cg_lambda(theta)
            assert 0.0 < lam <= 1.0
            assert abs(optimized_chsh(cg(theta, lam)) - 2.0) < 1e-8

    def test_weights_are_pinned_bit_for_bit(self):
        # Values of the earlier root-find (trace-built correlation matrices,
        # a library bisection): the first-moment bisection reproduces them
        # exactly, so every cg sweep cell is unchanged.
        pinned = [
            (0.02, "0x1.ffcb9ebe147aep-1"),
            (0.172, "0x1.f1d7fa4851eb8p-1"),
            (0.324, "0x1.d54263470a3d8p-1"),
            (0.476, "0x1.b726d89f5c28fp-1"),
            (0.628, "0x1.7cbfb66ae147bp-1"),
            (0.78, "0x1.6a0f4d447ae15p-1"),
            (math.pi / 4.0, "0x1.6a09e66851eb8p-1"),
            (0.15, "0x1.f50f718333334p-1"),
            (0.3, "0x1.da34172d70a3ep-1"),
            (0.7, "0x1.6f625baeb8520p-1"),
            (1.2, "0x1.cb9445d000001p-1"),
        ]
        # The first six are the cg benchmark grid, taken from linspace itself.
        grid = np.linspace(0.02, 0.78, 6)
        assert [theta for theta, _ in pinned[:6]] == list(grid)
        for theta, lam_hex in pinned:
            assert float.hex(cg_lambda(float(theta))) == lam_hex

    def test_agrees_with_closed_form_root(self):
        # With s = sin 2theta the gap is lam^2 s^2 + max(lam^2 s^2, (2 lam - 1)^2) - 1.
        # Its largest root is 4 / (4 + s^2) where the z entry dominates there,
        # else 1 / (sqrt(2) s).
        for theta in np.linspace(0.0, math.pi / 2.0, 402)[1:-1]:
            s = math.sin(2.0 * theta)
            lam_z = 4.0 / (4.0 + s * s)
            exact = lam_z if abs(2.0 * lam_z - 1.0) >= lam_z * s else 1.0 / (math.sqrt(2.0) * s)
            assert abs(cg_lambda(float(theta)) - exact) < 1e-10

    def test_first_moment_gap_matches_trace_oracle(self):
        lams = np.linspace(0.0, 1.0, 41)
        for theta in (0.02, 0.3, math.pi / 4.0, 1.2):
            gap = _cg_chsh_gap(theta, lams)
            for lam, g in zip(lams, gap):
                oracle = horodecki(cg(theta, float(lam))).m_value ** 2 - 1.0
                assert abs(g - oracle) < 1e-12
                assert _cg_chsh_gap(theta, float(lam)) == g

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="theta"):
            cg_lambda(0.0)
        with pytest.raises(ValueError, match="theta"):
            cg_lambda(math.pi / 2.0)
