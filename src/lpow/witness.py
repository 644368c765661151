"""Asymmetric and symmetric perception witnesses, their optimization, and bounds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import kron, singular_values
from .lpo import lpo_project
from .states import DensityMatrix, QubitObservable, bloch_vector, correlation_matrix
from .bell import (
    BellFunctional,
    MeasurementScenario,
    OptimizerConfig,
    _Z,
    _seesaw,
    bell_operator_matrix,
    bilinear_value,
    lhv_bound,
    marginal_means,
    scenario_from_directions,
)

BOUND_SLACK = 1e-8
DUAL_PATH_TOL = 1e-10
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


def _marginal_geometry(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r_a = bloch_vector(rho.marginal(0))
    r_b = bloch_vector(rho.marginal(1))
    return r_a, r_b, correlation_matrix(rho)


def asym_value_fixed(rho: DensityMatrix, f: BellFunctional, s: MeasurementScenario) -> float:
    """One-sided witness integrand Tr[(rho_A x rho_B) B(s)] at fixed settings."""
    rho_prod = kron(rho.marginal(0).matrix, rho.marginal(1).matrix)
    operator = bell_operator_matrix(f, s)
    value = float(np.trace(rho_prod @ operator).real)
    means = marginal_means(rho, s)
    bilinear = bilinear_value(f, means.a, means.b)
    if abs(value - bilinear) > 1e-12:
        raise ArithmeticError("operator and bilinear evaluations disagree")
    return value


def asym_sup(rho: DensityMatrix, f: BellFunctional) -> WitnessReport:
    """Supremum of the one-sided witness over all free settings.

    Each mean ranges independently over [-|r|, |r|], so the maximum of the
    bilinear form sits at a vertex of the scaled hypercube; vertices are
    enumerated exhaustively and ties break to the first maximum in
    lexicographic sign order.
    """
    if rho.dims != (2, 2):
        raise ValueError("asym_sup needs a two-qubit state")
    m, n = f.shape
    r_a, r_b, _ = _marginal_geometry(rho)
    norm_a = float(np.linalg.norm(r_a))
    norm_b = float(np.linalg.norm(r_b))
    best_value = -math.inf
    best_signs = None
    for signs in itertools.product((-1.0, 1.0), repeat=m + n):
        a = norm_a * np.array(signs[:m])
        b = norm_b * np.array(signs[m:])
        value = bilinear_value(f, a, b)
        if value > best_value:
            best_value = value
            best_signs = signs
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

    Quadratic form sum(alpha a b C) + sum(beta a^2) + sum(gamma b^2),
    cross-checked term by term against the explicit perceived-operator
    products Tr[rho (T)^A x (T)^B].
    """
    means = marginal_means(rho, s)
    m, n = f.shape
    value = float(
        np.einsum("xy,x,y,xy->", f.alpha, means.a, means.b, means.c)
        + f.beta @ means.a**2
        + f.gamma @ means.b**2
    )

    i2 = np.eye(2)
    explicit = 0.0
    for x in range(m):
        for y in range(n):
            if f.alpha[x, y] == 0.0:
                continue
            explicit += f.alpha[x, y] * _perceived_product(
                kron(s.alice[x].matrix, s.bob[y].matrix), rho
            )
    for x in range(m):
        if f.beta[x] != 0.0:
            explicit += f.beta[x] * _perceived_product(kron(s.alice[x].matrix, i2), rho)
    for y in range(n):
        if f.gamma[y] != 0.0:
            explicit += f.gamma[y] * _perceived_product(kron(i2, s.bob[y].matrix), rho)
    if abs(value - explicit) > DUAL_PATH_TOL:
        raise ArithmeticError("quadratic-form and operator evaluations disagree")
    return value


def _perceived_product(x: np.ndarray, rho: DensityMatrix) -> float:
    xa = lpo_project(x, rho, 0).matrix
    xb = lpo_project(x, rho, 1).matrix
    return float(np.trace(rho.matrix @ kron(xa, xb)).real)


def _positive_part(v: np.ndarray) -> np.ndarray:
    return np.maximum(v, 0.0)


def bound_geometry_free(rho: DensityMatrix, f: BellFunctional) -> float:
    """Settings-independent cap on the two-sided witness.

    |r_A||r_B| sum|alpha| + |r_A|^2 sum(beta)_+ + |r_B|^2 sum(gamma)_+; only
    positive quadratic coefficients can contribute since the squared means
    may always be sent to zero.
    """
    r_a, r_b, _ = _marginal_geometry(rho)
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
    r_a, r_b, _ = _marginal_geometry(rho)
    na = float(np.linalg.norm(r_a))
    nb = float(np.linalg.norm(r_b))
    spectral = float(singular_values(np.abs(f.alpha))[0])
    beta_max = float(max(_positive_part(f.beta).max(), 0.0))
    gamma_max = float(max(_positive_part(f.gamma).max(), 0.0))
    return float(spectral * na * nb + beta_max * na**2 + gamma_max * nb**2)


def _top_eigenvectors(r: np.ndarray, w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit u maximizing (u.r)(u.w) + q (u.r)^2, batched over w (..., k, 3) and q (k,).

    The form is u^T M u with M = sym(r w^T) + q r r^T, so the maximizer is
    M's top eigenvector and the maximum is its top eigenvalue; both come from
    one batched eigh and are returned as (vectors (..., k, 3), maxima (..., k)).
    The vector's sign is immaterial because the form is even in u.
    """
    rw = r[:, None] * w[..., None, :]
    mats = 0.5 * (rw + rw.swapaxes(-1, -2)) + q[:, None, None] * np.outer(r, r)
    eigenvalues, eigenvectors = np.linalg.eigh(mats)
    return eigenvectors[..., -1], eigenvalues[..., -1]


def _rotation_matrices(angles: np.ndarray) -> np.ndarray:
    """Batched z-y-z rotations from angle triples (..., 3)."""
    a, b, c = angles[..., 0], angles[..., 1], angles[..., 2]

    def rz(t):
        ct, st = np.cos(t), np.sin(t)
        zero = np.zeros_like(t)
        one = np.ones_like(t)
        return np.stack(
            [
                np.stack([ct, -st, zero], axis=-1),
                np.stack([st, ct, zero], axis=-1),
                np.stack([zero, zero, one], axis=-1),
            ],
            axis=-2,
        )

    def ry(t):
        ct, st = np.cos(t), np.sin(t)
        zero = np.zeros_like(t)
        one = np.ones_like(t)
        return np.stack(
            [
                np.stack([ct, zero, st], axis=-1),
                np.stack([zero, one, zero], axis=-1),
                np.stack([-st, zero, ct], axis=-1),
            ],
            axis=-2,
        )

    return rz(c) @ ry(b) @ rz(a)


def _compass_maximize(objective, n_params: int, cfg: OptimizerConfig):
    """Multi-start pattern search: coordinate steps with per-restart shrinking step.

    The first restart starts from the zero angle vector (canonical frame);
    the rest are uniform random. Returns best parameters, per-restart values
    and the final step sizes.
    """
    rng = np.random.default_rng(cfg.seed)
    params = rng.uniform(0.0, 2.0 * math.pi, size=(cfg.restarts, n_params))
    params[0] = 0.0
    values = objective(params)
    steps = np.full(cfg.restarts, 0.5)
    for _ in range(cfg.max_iterations):
        improved = np.zeros(cfg.restarts, dtype=bool)
        # Sufficient-decrease rule: gains must beat a step-size-squared forcing
        # term, otherwise plateau wandering keeps large steps alive forever.
        threshold = np.maximum(cfg.value_tolerance, 1e-4 * steps * steps)
        for j in range(n_params):
            for sign in (1.0, -1.0):
                candidate = params.copy()
                candidate[:, j] += sign * steps
                cand_values = objective(candidate)
                accept = cand_values > values + threshold
                params[accept] = candidate[accept]
                values[accept] = cand_values[accept]
                improved |= accept
        steps[~improved] *= 0.5
        if (steps < cfg.step_tolerance).all():
            break
    return params, values, steps


def sym_sup(
    rho: DensityMatrix,
    f: BellFunctional,
    constraint: str = "free",
    cfg: OptimizerConfig | None = None,
) -> WitnessReport:
    """Supremum of the two-sided witness over settings.

    ``free`` runs the see-saw eigen-ascent: with one party's directions
    fixed, the witness is a sum of per-setting quadratic forms in the other
    party's directions, so each block update is a top eigenvector of a 3x3
    matrix. ``orthogonal`` keeps the compass search over one rotation of the
    canonical axis frame per party, so the constraint holds by construction.
    When the applicable cap already pins the witness to zero (e.g. a
    maximally mixed marginal with no positive quadratic coefficient), the
    optimization is skipped. ``converged`` describes the reported restart.
    """
    if constraint not in ("free", "orthogonal"):
        raise ValueError(f"unknown constraint {constraint!r}")
    if rho.dims != (2, 2):
        raise ValueError("sym_sup needs a two-qubit state")
    cfg = cfg or OptimizerConfig()
    m, n = f.shape
    r_a, r_b, t = _marginal_geometry(rho)

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

        def update_a(b_dirs: np.ndarray) -> np.ndarray:
            # w_x = sum_y alpha_xy (b_y . r_B) T b_y
            w = (f.alpha * (b_dirs @ r_b)[:, None, :]) @ (b_dirs @ t.T)
            return _top_eigenvectors(r_a, w, f.beta)[0]

        def update_b(a_dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # The witness is sum_y lambda_max(M_y) + sum_x beta_x (a_x . r_A)^2
            # at the b-directions this update returns.
            a = a_dirs @ r_a
            w = (f.alpha.T * a[:, None, :]) @ (a_dirs @ t)
            b_dirs, top = _top_eigenvectors(r_b, w, f.gamma)
            return b_dirs, top.sum(axis=-1) + (a**2) @ f.beta

        a_best, b_best, value, _, converged = _seesaw(update_a, update_b, n, cfg)
    else:

        def value_from_dirs(a_dirs: np.ndarray, b_dirs: np.ndarray) -> np.ndarray:
            a = a_dirs @ r_a
            b = b_dirs @ r_b
            c = np.einsum("rmx,xy,rny->rmn", a_dirs, t, b_dirs)
            return (
                np.einsum("xy,rx,ry,rxy->r", f.alpha, a, b, c)
                + (a**2) @ f.beta
                + (b**2) @ f.gamma
            )

        def unpack(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            rot_a = _rotation_matrices(params[:, :3])
            rot_b = _rotation_matrices(params[:, 3:])
            # Direction i is the image of the i-th canonical axis.
            return rot_a.swapaxes(-1, -2)[:, :m, :], rot_b.swapaxes(-1, -2)[:, :n, :]

        params, values, steps = _compass_maximize(lambda p: value_from_dirs(*unpack(p)), 6, cfg)
        best = int(np.argmax(values))
        a_dirs, b_dirs = unpack(params[best : best + 1])
        a_best, b_best = a_dirs[0], b_dirs[0]
        value = float(values[best])
        converged = bool(steps[best] < cfg.step_tolerance)

    return WitnessReport(
        value=value,
        optimizing_scenario=scenario_from_directions(
            a_best, b_best, orthogonal=(constraint == "orthogonal")
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


def mermin_value(
    rho: DensityMatrix,
    settings: tuple[tuple[QubitObservable, QubitObservable], ...] | None = None,
) -> float:
    """Three-party correlator combination xxx - xyy - yxy - yyx (classical bound 2)."""
    if rho.dims != (2, 2, 2):
        raise ValueError("mermin_value needs a three-qubit state")
    settings = settings or mermin_settings()
    if len(settings) != 3 or any(len(pair) != 2 for pair in settings):
        raise ValueError("need one (x-like, y-like) setting pair per party")
    index = {"x": 0, "y": 1}
    total = 0.0
    for labels, sign in MERMIN_SIGNS.items():
        obs = tuple(settings[party][index[lab]] for party, lab in enumerate(labels))
        total += sign * _mermin_correlator(rho, obs)
    return total


def mermin_lhv_bound() -> float:
    """Classical bound of the three-party combination by sign enumeration."""
    best = -math.inf
    for signs in itertools.product((-1.0, 1.0), repeat=6):
        a, b, c = signs[0:2], signs[2:4], signs[4:6]
        index = {"x": 0, "y": 1}
        value = sum(
            sign * a[index[la]] * b[index[lb]] * c[index[lc]]
            for (la, lb, lc), sign in MERMIN_SIGNS.items()
        )
        best = max(best, value)
    return best


def mermin_lpo_witness(
    rho: DensityMatrix,
    mode: str = "asym_sup",
    settings: tuple[tuple[QubitObservable, QubitObservable], ...] | None = None,
) -> WitnessReport:
    """Perceived three-party witness.

    ``asym_sup`` maximizes the correlator combination over per-party mean
    boxes [-|r_J|, |r_J|]^2 by vertex enumeration (first lexicographic
    maximum reported). ``sym_fixed`` evaluates the perceived combination
    sum(sign * a b c * C) at the given settings.
    """
    if rho.dims != (2, 2, 2):
        raise ValueError("mermin_lpo_witness needs a three-qubit state")
    norms = [float(np.linalg.norm(bloch_vector(rho.marginal(k)))) for k in range(3)]

    if mode == "asym_sup":
        index = {"x": 0, "y": 1}
        best_value = -math.inf
        best_signs = None
        for signs in itertools.product((-1.0, 1.0), repeat=6):
            means = [
                (norms[party] * signs[2 * party], norms[party] * signs[2 * party + 1])
                for party in range(3)
            ]
            value = sum(
                sign
                * means[0][index[la]]
                * means[1][index[lb]]
                * means[2][index[lc]]
                for (la, lb, lc), sign in MERMIN_SIGNS.items()
            )
            if value > best_value:
                best_value = value
                best_signs = signs
        return WitnessReport(
            value=float(best_value),
            optimizing_scenario=None,
            bounds=(("lhv", mermin_lhv_bound()),),
            restarts_used=0,
            converged=True,
        )

    if mode == "sym_fixed":
        settings = settings or mermin_settings()
        index = {"x": 0, "y": 1}
        r_vecs = [bloch_vector(rho.marginal(k)) for k in range(3)]
        total = 0.0
        for labels, sign in MERMIN_SIGNS.items():
            obs = tuple(settings[party][index[lab]] for party, lab in enumerate(labels))
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
