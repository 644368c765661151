"""Random-instance generators shared across test modules."""

from __future__ import annotations

import numpy as np

from lpow import DensityMatrix, scenario_from_directions
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
