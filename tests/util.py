"""Random-instance generators shared across test modules."""

from __future__ import annotations

import numpy as np

from lpow import DensityMatrix, bell_operator_matrix, lpo_project, marginal_means, scenario_from_directions
from lpow.linalg import kron
from lpow.states import first_moments


def ginibre_state(rng: np.random.Generator, dims: tuple[int, ...] = (2, 2)) -> DensityMatrix:
    """Random full-rank density matrix G G^dag / Tr(G G^dag)."""
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    # Symmetrize away the last bits of float noise so validation stays tight.
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, dims)


def random_pure_state(rng: np.random.Generator, dims: tuple[int, ...] = (2, 2)) -> DensityMatrix:
    d = int(np.prod(dims))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def random_product_state(rng: np.random.Generator, n_parties: int = 2) -> DensityMatrix:
    from lpow import make_state

    kets = []
    for _ in range(n_parties):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        kets.append(v / np.linalg.norm(v))
    return make_state("pure_product", kets=kets)


def random_directions(rng: np.random.Generator, k: int) -> np.ndarray:
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_scenario(rng: np.random.Generator, m: int = 2, n: int = 2):
    return scenario_from_directions(random_directions(rng, m), random_directions(rng, n))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish 3x3 rotation from the QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_orthogonal_scenario(rng: np.random.Generator, m: int = 3, n: int = 3):
    rot_a = random_rotation(rng)
    rot_b = random_rotation(rng)
    return scenario_from_directions(rot_a.T[:m], rot_b.T[:n], orthogonal=True)


def random_effect(rng: np.random.Generator, d: int = 4) -> np.ndarray:
    """Random POVM effect with spectrum inside [0, 1]."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g @ g.conj().T
    h = h / (np.linalg.eigvalsh(h).max() + 1e-9)
    return 0.5 * (h + h.conj().T)


# Reference see-saw: the loop as it ran before each block update became one
# Kronecker-map product and before the round's value was read off the last
# update. Every update is an einsum over the (restarts, k, 3) direction
# batches and every round is scored by a separate three-operand evaluation.

_Z = np.array([0.0, 0.0, 1.0])


def _reference_normalize_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(norms > 1e-14, v / np.where(norms == 0.0, 1.0, norms), fallback)


def reference_seesaw(update_a, update_b, value, n: int, cfg):
    """Lockstep block ascent scored by ``value(a_dirs, b_dirs)`` each round."""
    rng = np.random.default_rng(cfg.seed)
    b_dirs = _reference_normalize_rows(rng.normal(size=(cfg.restarts, n, 3)), _Z)
    values = np.full(cfg.restarts, -np.inf)
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        a_dirs = update_a(b_dirs)
        b_dirs = update_b(a_dirs)
        new_values = value(a_dirs, b_dirs)
        converged = bool(np.all(new_values - values <= cfg.value_tolerance))
        values = np.maximum(values, new_values)
        if converged:
            break
    best = int(np.argmax(values))
    return a_dirs[best], b_dirs[best], float(values[best]), iterations, converged


def reference_functional_seesaw(rho: DensityMatrix, f, cfg):
    """Tr(rho B) see-saw with einsum gradient updates and a separate batch value."""
    r_a, r_b, t = first_moments(rho)

    def update_a(b_dirs):
        grad = np.einsum("mn,rny->rmy", f.alpha, b_dirs @ t.T) + f.beta[:, None] * r_a[None, None, :]
        return _reference_normalize_rows(grad, _Z)

    def update_b(a_dirs):
        # g_y = sum_x alpha_xy T^T a_x. The library loop once contracted
        # alpha^T here, which agrees only for symmetric alpha and fails on
        # non-square alpha.
        grad = np.einsum("mn,rmy->rny", f.alpha, a_dirs @ t) + f.gamma[:, None] * r_b[None, None, :]
        return _reference_normalize_rows(grad, _Z)

    def batch_value(a_d, b_d):
        a = a_d @ r_a
        b = b_d @ r_b
        c = np.einsum("rmx,xy,rny->rmn", a_d, t, b_d)
        return np.einsum("mn,rmn->r", f.alpha, c) + a @ f.beta + b @ f.gamma

    return reference_seesaw(update_a, update_b, batch_value, f.shape[1], cfg)


def reference_witness_seesaw(rho: DensityMatrix, f, cfg):
    """Free two-sided witness see-saw: eigenvector updates, value from the directions."""
    r_a, r_b, t = first_moments(rho)

    def top_eigenvectors(r, w, q):
        rw = r[:, None] * w[..., None, :]
        mats = 0.5 * (rw + rw.swapaxes(-1, -2)) + q[:, None, None] * np.outer(r, r)
        return np.linalg.eigh(mats)[1][..., -1]

    def update_a(b_dirs):
        w = (f.alpha * (b_dirs @ r_b)[:, None, :]) @ (b_dirs @ t.T)
        return top_eigenvectors(r_a, w, f.beta)

    def update_b(a_dirs):
        w = (f.alpha.T * (a_dirs @ r_a)[:, None, :]) @ (a_dirs @ t)
        return top_eigenvectors(r_b, w, f.gamma)

    def value_from_dirs(a_dirs, b_dirs):
        a = a_dirs @ r_a
        b = b_dirs @ r_b
        c = np.einsum("rmx,xy,rny->rmn", a_dirs, t, b_dirs)
        return (
            np.einsum("xy,rx,ry,rxy->r", f.alpha, a, b, c)
            + (a**2) @ f.beta
            + (b**2) @ f.gamma
        )

    return reference_seesaw(update_a, update_b, value_from_dirs, f.shape[1], cfg)


# Explicit oracles: the trace and perceived-operator evaluations that the
# first-moment formulas of marginal_means, asym_value_fixed, sym_value_fixed
# and lpo_correlator must reproduce. They work on 2x2 and 4x4 matrices and
# draw no random numbers.


def trace_means(rho: DensityMatrix, s):
    """Tables a_x = Tr(rho_A A_x), b_y = Tr(rho_B B_y), C_xy = Tr[rho (A_x x B_y)]."""
    rho_a = rho.marginal(0).matrix
    rho_b = rho.marginal(1).matrix
    a = np.array([np.trace(rho_a @ o.matrix).real for o in s.alice])
    b = np.array([np.trace(rho_b @ o.matrix).real for o in s.bob])
    c = np.array(
        [
            [np.trace(rho.matrix @ kron(ax.matrix, by.matrix)).real for by in s.bob]
            for ax in s.alice
        ]
    )
    return a, b, c


def assert_means_match_traces(rho: DensityMatrix, s, tol: float = 1e-12) -> None:
    means = marginal_means(rho, s)
    a, b, c = trace_means(rho, s)
    assert np.abs(means.a - a).max() <= tol
    assert np.abs(means.b - b).max() <= tol
    assert np.abs(means.c - c).max() <= tol


def operator_asym_value(rho: DensityMatrix, f, s) -> float:
    """Tr[(rho_A x rho_B) B(s)] with the assembled 4x4 Bell operator."""
    rho_prod = kron(rho.marginal(0).matrix, rho.marginal(1).matrix)
    return float(np.trace(rho_prod @ bell_operator_matrix(f, s)).real)


def perceived_product(x: np.ndarray, rho: DensityMatrix) -> float:
    """Tr[rho (X)^A x (X)^B] with both perceived operators projected explicitly."""
    xa = lpo_project(x, rho, 0).matrix
    xb = lpo_project(x, rho, 1).matrix
    return float(np.trace(rho.matrix @ kron(xa, xb)).real)


def perceived_sym_value(rho: DensityMatrix, f, s) -> float:
    """Two-sided witness as the coefficient-weighted sum of perceived products."""
    m, n = f.shape
    i2 = np.eye(2)
    explicit = 0.0
    for x in range(m):
        for y in range(n):
            if f.alpha[x, y] == 0.0:
                continue
            explicit += f.alpha[x, y] * perceived_product(
                kron(s.alice[x].matrix, s.bob[y].matrix), rho
            )
    for x in range(m):
        if f.beta[x] != 0.0:
            explicit += f.beta[x] * perceived_product(kron(s.alice[x].matrix, i2), rho)
    for y in range(n):
        if f.gamma[y] != 0.0:
            explicit += f.gamma[y] * perceived_product(kron(i2, s.bob[y].matrix), rho)
    return explicit


def explicit_lpo_correlator(ax, by, rho: DensityMatrix) -> float:
    """Perceived correlator as the explicit product of the projected ax x by."""
    return perceived_product(kron(ax.matrix, by.matrix), rho)
