"""Asymmetric and symmetric perception witnesses, their optimization, and bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kron, singular_values
from .states import DensityMatrix, QubitObservable, bloch_vector, first_moments
from .bell import (
    BellFunctional,
    MeasurementScenario,
    OptimizerConfig,
    _Z,
    _gaussian_directions,
    _seesaw,
    _sign_vertices,
    bilinear_value,
    lhv_bound,
    marginal_means,
    scenario_from_directions,
)

BOUND_SLACK = 1e-8
DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class WitnessReport:
    """A witness value with its optimizing settings and applicable upper bounds."""

    value: float
    optimizing_scenario: MeasurementScenario | None
    bounds: tuple[tuple[str, float], ...]
    restarts_used: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple((str(k), float(v)) for k, v in self.bounds))
        for name, bound in self.bounds:
            if self.value > bound + BOUND_SLACK:
                raise ArithmeticError(
                    f"witness value {self.value!r} exceeds bound {name}={bound!r}"
                )

    def bound(self, name: str) -> float:
        for key, value in self.bounds:
            if key == name:
                return value
        raise KeyError(name)


def asym_value_fixed(rho: DensityMatrix, f: BellFunctional, s: MeasurementScenario) -> float:
    """One-sided witness Tr[(rho_A x rho_B) B(s)] at fixed settings.

    On the product of the marginals every correlator factorizes, so the
    witness is the bilinear form F(a, b) of the means a = D_A r_A and
    b = D_B r_B.
    """
    means = marginal_means(rho, s)
    return bilinear_value(f, means.a, means.b)


def asym_sup(rho: DensityMatrix, f: BellFunctional) -> WitnessReport:
    """Supremum of the one-sided witness over all free settings.

    Each mean ranges independently over [-|r|, |r|], so the maximum of the
    bilinear form sits at a vertex of the scaled hypercube; all 2^(m+n)
    vertices are scored at once and ties break to the first maximum in
    lexicographic sign order.
    """
    if rho.dims != (2, 2):
        raise ValueError("asym_sup needs a two-qubit state")
    m, n = f.shape
    signs = _sign_vertices(m + n)
    r_a, r_b, _ = first_moments(rho)
    norm_a = float(np.linalg.norm(r_a))
    norm_b = float(np.linalg.norm(r_b))
    a = norm_a * signs[:, None, :m]
    b = norm_b * signs[:, m:, None]
    # Row and column stacks multiply in bilinear_value's order, so each
    # vertex scores exactly as bilinear_value would score it.
    values = (a @ f.alpha @ b)[:, 0, 0] + (a @ f.beta)[:, 0] + (f.gamma @ b)[:, 0]
    best = int(np.argmax(values))
    best_value = values[best]
    best_signs = signs[best]
    unit_a = r_a / norm_a if norm_a > DEGENERATE_NORM else _Z
    unit_b = r_b / norm_b if norm_b > DEGENERATE_NORM else _Z
    scenario = scenario_from_directions(
        [s * unit_a for s in best_signs[:m]],
        [s * unit_b for s in best_signs[m:]],
    )
    return WitnessReport(
        value=float(best_value),
        optimizing_scenario=scenario,
        bounds=(("lhv", lhv_bound(f)),),
        restarts_used=0,
        converged=True,
    )


def sym_value_fixed(rho: DensityMatrix, f: BellFunctional, s: MeasurementScenario) -> float:
    """Two-sided witness at fixed settings.

    Each perceived product Tr[rho (X)^A x (X)^B] of a term X of the Bell
    operator is its correlator weighted by the two means, so the witness is
    the quadratic form sum(alpha a b C) + sum(beta a^2) + sum(gamma b^2) of
    the first-moment tables a, b and C.
    """
    means = marginal_means(rho, s)
    return float(
        np.einsum("xy,x,y,xy->", f.alpha, means.a, means.b, means.c)
        + f.beta @ means.a**2
        + f.gamma @ means.b**2
    )


def _positive_part(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def bound_geometry_free(rho: DensityMatrix, f: BellFunctional) -> float:
    """Settings-independent cap on the two-sided witness.

    |r_A||r_B| sum|alpha| + |r_A|^2 sum(beta)_+ + |r_B|^2 sum(gamma)_+; only
    positive quadratic coefficients can contribute since the squared means
    may always be sent to zero.
    """
    r_a, r_b, _ = first_moments(rho)
    na = float(np.linalg.norm(r_a))
    nb = float(np.linalg.norm(r_b))
    return float(
        np.abs(f.alpha).sum() * na * nb
        + _positive_part(f.beta).sum() * na**2
        + _positive_part(f.gamma).sum() * nb**2
    )


def bound_orthogonal(rho: DensityMatrix, f: BellFunctional) -> float:
    """Cap on the two-sided witness under orthogonal per-party settings.

    Spectral norm of entrywise |alpha| times |r_A||r_B|, plus the largest
    positive quadratic coefficients times the squared norms; orthogonality
    makes the per-party mean vectors Parseval-bounded.
    """
    r_a, r_b, _ = first_moments(rho)
    na = float(np.linalg.norm(r_a))
    nb = float(np.linalg.norm(r_b))
    spectral = float(singular_values(np.abs(f.alpha))[0])
    beta_max = float(max(_positive_part(f.beta).max(), 0.0))
    gamma_max = float(max(_positive_part(f.gamma).max(), 0.0))
    return float(spectral * na * nb + beta_max * na**2 + gamma_max * nb**2)


def _setting_forms(r: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-setting 3x3 forms M_k = sym(r w_k^T) + q_k r r^T, batched over w (..., k, 3).

    With the other party's directions fixed, setting k contributes
    (u.r)(u.w_k) + q_k (u.r)^2 = u^T M_k u to the two-sided witness.
    """
    rw = r[:, None] * w[..., None, :]
    return 0.5 * (rw + rw.swapaxes(-1, -2)) + q[:, None, None] * np.outer(r, r)


def _top_eigenvectors(_, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit u_k maximizing u_k^T M_k u_k for each form in ``mats`` (..., k, 3, 3).

    The maximizer is M_k's top eigenvector and the maximum its top
    eigenvalue; both come from one batched eigh and are returned as
    (vectors (..., k, 3), maxima (..., k)). The vector's sign is immaterial
    because the form is even in u. The first argument (the previous
    directions) is not needed.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(mats)
    return eigenvectors[..., -1], eigenvalues[..., -1]


def _jacobi_sweep(frame: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One cyclic Jacobi sweep raising sum_k u_k^T M_k u_k over orthonormal frames.

    ``frame`` (..., 3, 3) holds the rows u_k and ``mats`` (..., 3, 3, 3) the
    symmetric forms M_k. Rotating rows i and j by theta turns the sum into
    const + P cos 2theta + Q sin 2theta, with P = [(p_ii + q_jj) - (p_jj + q_ii)]/2
    and Q = p_ij - q_ij for the pair's 2x2 forms p (of M_i) and q (of M_j),
    so 2theta = atan2(Q, P) maximizes it exactly and the sum never
    decreases (the cyclic Jacobi scheme of Golub & Van Loan, Matrix
    Computations, sec. 8.5). Rotates ``frame`` in place through the planes
    (0,1), (0,2), (1,2) and returns it with the per-row forms u_k^T M_k u_k.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pair = frame[..., (i, j), :]
        g = np.einsum("...pa,...kab,...qb->...kpq", pair, mats[..., (i, j), :, :], pair)
        p, q = g[..., 0, :, :], g[..., 1, :, :]
        half = 0.5 * np.arctan2(
            p[..., 0, 1] - q[..., 0, 1],
            0.5 * ((p[..., 0, 0] + q[..., 1, 1]) - (p[..., 1, 1] + q[..., 0, 0])),
        )
        c, s = np.cos(half)[..., None], np.sin(half)[..., None]
        u, v = pair[..., 0, :], pair[..., 1, :]
        frame[..., i, :] = c * u + s * v
        frame[..., j, :] = c * v - s * u
    return frame, np.einsum("...ka,...kab,...kb->...k", frame, mats, frame)


def _random_frames(cfg: OptimizerConfig) -> np.ndarray:
    """(2, restarts, 3, 3) orthonormal frames per party; restart 0 is the canonical frame."""
    rng = np.random.default_rng(cfg.seed)
    frames = np.linalg.qr(rng.normal(size=(2, cfg.restarts, 3, 3)))[0]
    frames[:, 0] = np.eye(3)
    return frames


def sym_sup(
    rho: DensityMatrix,
    f: BellFunctional,
    constraint: str = "free",
    cfg: OptimizerConfig | None = None,
) -> WitnessReport:
    """Supremum of the two-sided witness over settings, by see-saw block ascent.

    With one party's directions fixed, the witness is a sum of per-setting
    quadratic forms u^T M_k u in the other party's directions (3x3 M_k), so
    each block update maximizes that sum. ``free`` takes each M_k's top
    eigenvector, starting from Gaussian-drawn b-directions. ``orthogonal``
    keeps one orthonormal frame per party (setting k is row k; alpha, beta
    and gamma are padded with zeros to 3 settings, so unused rows carry
    M = 0) and runs one cyclic Jacobi sweep of plane rotations per update,
    starting from the canonical frames in restart 0 and random rotations in
    the others. Each round's value is read off the B update: the sum of
    b_y^T M_y b_y plus the beta terms of the fixed a-directions. When the
    applicable cap already pins the witness to zero (e.g. a maximally mixed
    marginal with no positive quadratic coefficient), the optimization is
    skipped. ``converged`` describes the reported restart.
    """
    if constraint not in ("free", "orthogonal"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if rho.dims != (2, 2):
        raise ValueError("sym_sup needs a two-qubit state")
    cfg = cfg or OptimizerConfig()
    m, n = f.shape
    r_a, r_b, t = first_moments(rho)

    bounds = [("geometry_free", bound_geometry_free(rho, f))]
    if constraint == "orthogonal":
        if max(m, n) > 3:
            raise ValueError("orthogonal mode supports at most 3 settings per party")
        bounds.append(("orthogonal", bound_orthogonal(rho, f)))

    if bounds[-1][1] <= DEGENERATE_NORM:
        return WitnessReport(
            value=0.0,
            optimizing_scenario=None,
            bounds=tuple(bounds),
            restarts_used=0,
            converged=True,
        )

    if constraint == "free":
        alpha, beta, gamma = f.alpha, f.beta, f.gamma
        maximize = _top_eigenvectors
        a_start, b_start = None, _gaussian_directions(n, cfg)
    else:
        alpha = np.pad(f.alpha, ((0, 3 - m), (0, 3 - n)))
        beta = np.pad(f.beta, (0, 3 - m))
        gamma = np.pad(f.gamma, (0, 3 - n))
        maximize = _jacobi_sweep
        a_start, b_start = _random_frames(cfg)

    def update_a(a_dirs: np.ndarray, b_dirs: np.ndarray) -> np.ndarray:
        # w_x = sum_y alpha_xy (b_y . r_B) T b_y
        w = (alpha * (b_dirs @ r_b)[:, None, :]) @ (b_dirs @ t.T)
        return maximize(a_dirs, _setting_forms(r_a, w, beta))[0]

    def update_b(a_dirs: np.ndarray, b_dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = a_dirs @ r_a
        w = (alpha.T * a[:, None, :]) @ (a_dirs @ t)
        b_dirs, forms = maximize(b_dirs, _setting_forms(r_b, w, gamma))
        return b_dirs, forms.sum(axis=-1) + (a**2) @ beta

    a_best, b_best, value, _, converged = _seesaw(update_a, update_b, a_start, b_start, cfg)
    return WitnessReport(
        value=value,
        optimizing_scenario=scenario_from_directions(
            a_best[:m], b_best[:n], orthogonal=(constraint == "orthogonal")
        ),
        bounds=tuple(bounds),
        restarts_used=cfg.restarts,
        converged=converged,
    )


MERMIN_SIGNS = {
    ("x", "x", "x"): 1.0,
    ("x", "y", "y"): -1.0,
    ("y", "x", "y"): -1.0,
    ("y", "y", "x"): -1.0,
}


def mermin_settings() -> tuple[tuple[QubitObservable, QubitObservable], ...]:
    """Canonical x/y setting pair for each of the three parties."""
    x = QubitObservable(np.array([1.0, 0.0, 0.0]))
    y = QubitObservable(np.array([0.0, 1.0, 0.0]))
    return ((x, y), (x, y), (x, y))


def _mermin_correlator(rho: DensityMatrix, obs: tuple[QubitObservable, ...]) -> float:
    op = kron(*[o.matrix for o in obs])
    return float(np.trace(rho.matrix @ op).real)


def _mermin_terms(settings) -> list[tuple[tuple[QubitObservable, ...], float]]:
    """(per-party observables, sign) of each term, from the default or given setting pairs."""
    settings = settings or mermin_settings()
    if len(settings) != 3 or any(len(pair) != 2 for pair in settings):
        raise ValueError("need one (x-like, y-like) setting pair per party")
    index = {"x": 0, "y": 1}
    return [
        (tuple(settings[party][index[lab]] for party, lab in enumerate(labels)), sign)
        for labels, sign in MERMIN_SIGNS.items()
    ]


def mermin_value(
    rho: DensityMatrix,
    settings: tuple[tuple[QubitObservable, QubitObservable], ...] | None = None,
) -> float:
    """Three-party correlator combination xxx - xyy - yxy - yyx (classical bound 2)."""
    if rho.dims != (2, 2, 2):
        raise ValueError("mermin_value needs a three-qubit state")
    total = 0.0
    for obs, sign in _mermin_terms(settings):
        total += sign * _mermin_correlator(rho, obs)
    return total


def _mermin_vertex_max(norms) -> float:
    """Max of the Mermin combination over per-party mean boxes [-|r_J|, |r_J|]^2.

    The combination is multilinear, so the maximum sits at a sign vertex.
    """
    signs = _sign_vertices(6)
    means = [norms[party] * signs[:, 2 * party : 2 * party + 2] for party in range(3)]
    index = {"x": 0, "y": 1}
    values = sum(
        sign * means[0][:, index[la]] * means[1][:, index[lb]] * means[2][:, index[lc]]
        for (la, lb, lc), sign in MERMIN_SIGNS.items()
    )
    return float(values.max())


def mermin_lhv_bound() -> float:
    """Classical bound of the three-party combination by sign enumeration."""
    return _mermin_vertex_max((1.0, 1.0, 1.0))


def mermin_lpo_witness(
    rho: DensityMatrix,
    mode: str = "asym_sup",
    settings: tuple[tuple[QubitObservable, QubitObservable], ...] | None = None,
) -> WitnessReport:
    """Perceived three-party witness.

    ``asym_sup`` maximizes the correlator combination over per-party mean
    boxes [-|r_J|, |r_J|]^2 by vertex enumeration. ``sym_fixed`` evaluates the perceived combination
    sum(sign * a b c * C) at the given settings.
    """
    if rho.dims != (2, 2, 2):
        raise ValueError("mermin_lpo_witness needs a three-qubit state")
    r_vecs = [bloch_vector(rho.marginal(k)) for k in range(3)]
    norms = [float(np.linalg.norm(r)) for r in r_vecs]

    if mode == "asym_sup":
        return WitnessReport(
            value=_mermin_vertex_max(norms),
            optimizing_scenario=None,
            bounds=(("lhv", mermin_lhv_bound()),),
            restarts_used=0,
            converged=True,
        )

    if mode == "sym_fixed":
        total = 0.0
        for obs, sign in _mermin_terms(settings):
            means = [float(r_vecs[k] @ obs[k].direction) for k in range(3)]
            corr = _mermin_correlator(rho, obs)
            total += sign * means[0] * means[1] * means[2] * corr
        cap = 4.0 * norms[0] * norms[1] * norms[2]
        return WitnessReport(
            value=float(total),
            optimizing_scenario=None,
            bounds=(("geometry_free", cap),),
            restarts_used=0,
            converged=True,
        )

    raise ValueError(f"unknown mode {mode!r}")
