import numpy as np
import pytest

from lpow import (
    lpo_correlator,
    lpo_project,
    observable,
)
from lpow.linalg import PAULIS, SIGMA_X, SIGMA_Z, kron
from lpow.states import ghz, ket, pure_product, sigma_state, singlet, werner
from util import (
    explicit_lpo_correlator,
    ginibre_state,
    random_directions,
    random_effect,
    reference_perceived_expectation as perceived_expectation,
)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


class TestLpoProject:
    def test_product_operator_compresses_to_weighted_factor(self, rng):
        # Tr_B[(I x rho_B)(A x B)] = A * Tr(rho_B B) for any state.
        rho = ginibre_state(rng)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        got = lpo_project(kron(a, b), rho, 0).matrix
        want = a * np.trace(rho.marginal(1).matrix @ b)
        assert np.allclose(got, want, atol=1e-12)
        got_b = lpo_project(kron(a, b), rho, 1).matrix
        want_b = b * np.trace(rho.marginal(0).matrix @ a)
        assert np.allclose(got_b, want_b, atol=1e-12)

    def test_identity_is_a_fixed_point(self, rng):
        rho = ginibre_state(rng)
        assert np.allclose(lpo_project(np.eye(4), rho, 0).matrix, np.eye(2), atol=1e-12)
        assert np.allclose(lpo_project(np.eye(4), rho, 1).matrix, np.eye(2), atol=1e-12)

    def test_linearity(self, rng):
        rho = ginibre_state(rng)
        x = random_hermitian(rng, 4)
        y = random_hermitian(rng, 4)
        lhs = lpo_project(2.0 * x - 0.5 * y, rho, 0).matrix
        rhs = 2.0 * lpo_project(x, rho, 0).matrix - 0.5 * lpo_project(y, rho, 0).matrix
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_kept_index_recorded(self, rng):
        rho = ginibre_state(rng)
        assert lpo_project(np.eye(4), rho, 1).kept == 1

    def test_tripartite_projection(self):
        # GHZ marginals are maximally mixed, so any traceless factor kills
        # the projection; on |000> the z-string survives intact.
        x = kron(SIGMA_X, SIGMA_X, SIGMA_X)
        assert np.allclose(lpo_project(x, ghz(), 0).matrix, np.zeros((2, 2)), atol=1e-14)
        z = kron(SIGMA_Z, SIGMA_Z, SIGMA_Z)
        zero3 = pure_product([ket(0), ket(0), ket(0)])
        assert np.allclose(lpo_project(z, zero3, 0).matrix, SIGMA_Z, atol=1e-14)

    def test_validation(self, rng):
        rho = ginibre_state(rng)
        with pytest.raises(ValueError, match="out of range"):
            lpo_project(np.eye(4), rho, 2)
        with pytest.raises(ValueError, match="shape"):
            lpo_project(np.eye(8), rho, 0)


class TestPerceivedExpectation:
    def test_equals_product_marginal_expectation(self, rng):
        rho = ginibre_state(rng)
        x = random_hermitian(rng, 4)
        want = np.trace(
            kron(rho.marginal(0).matrix, rho.marginal(1).matrix) @ x
        ).real
        assert abs(perceived_expectation(x, rho, 0) - want) < 1e-12

    def test_side_symmetry(self, rng):
        for _ in range(20):
            rho = ginibre_state(rng)
            x = random_hermitian(rng, 4)
            assert abs(
                perceived_expectation(x, rho, 0) - perceived_expectation(x, rho, 1)
            ) < 1e-12

    def test_rejects_non_hermitian(self, rng):
        rho = ginibre_state(rng)
        x = np.eye(4, dtype=complex)
        x[0, 1] = 1j
        with pytest.raises(ValueError, match="Hermitian"):
            perceived_expectation(x, rho)


class TestPovmStructure:
    def test_perceived_effects_stay_positive_and_sum_to_identity(self, rng):
        for _ in range(20):
            rho = ginibre_state(rng)
            e = random_effect(rng, 4)
            for side in (0, 1):
                pe = lpo_project(e, rho, side).matrix
                pc = lpo_project(np.eye(4) - e, rho, side).matrix
                assert np.abs(pe - pe.conj().T).max() < 1e-12
                assert np.linalg.eigvalsh(pe).min() > -1e-10
                assert np.linalg.eigvalsh(pc).min() > -1e-10
                assert np.abs(pe + pc - np.eye(2)).max() < 1e-10


class TestLpoCorrelator:
    def test_matches_bloch_product_form(self, rng):
        rho = sigma_state()
        for _ in range(10):
            da, db = random_directions(rng, 2)
            ax, by = observable(da), observable(db)
            r_a = np.array([np.trace(rho.marginal(0).matrix @ p).real for p in PAULIS])
            r_b = np.array([np.trace(rho.marginal(1).matrix @ p).real for p in PAULIS])
            t = np.array(
                [
                    [np.trace(rho.matrix @ kron(pi, pj)).real for pj in PAULIS]
                    for pi in PAULIS
                ]
            )
            want = (r_a @ da) * (r_b @ db) * (da @ t @ db)
            assert abs(lpo_correlator(ax, by, rho) - want) < 1e-12
            assert abs(lpo_correlator(ax, by, rho) - explicit_lpo_correlator(ax, by, rho)) <= 1e-10

    def test_vanishes_on_locally_maximally_mixed_states(self, rng):
        z = observable([0.0, 0.0, 1.0])
        assert lpo_correlator(z, z, singlet()) == 0.0
        assert lpo_correlator(z, z, werner(0.7)) == 0.0

    def test_pure_product_along_z(self):
        rho = pure_product([ket(0), ket(0)])
        z = observable([0.0, 0.0, 1.0])
        assert abs(lpo_correlator(z, z, rho) - 1.0) < 1e-14

    def test_requires_two_qubits(self):
        z = observable([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="two-qubit"):
            lpo_correlator(z, z, ghz())
