"""Asymmetric and symmetric perception witnesses, their optimization, and bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import singular_values
from .states import DensityMatrix, QubitObservable, _two_qubit_moments, first_moments
from .bell import (
    BellFunctional,
    MeasurementScenario,
    OptimizerConfig,
    _Z,
    _gaussian_directions,
    _normalize_rows,
    _seesaw,
    _shared_config,
    _sign_vertices,
    _vertex_max,
    bilinear_value,
    lhv_bound,
    marginal_means,
    scenario_from_directions,
)

BOUND_SLACK = 1e-8
DEGENERATE_NORM = 1e-12
_ROUNDING = 8.0 * np.finfo(float).eps


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

    Each mean ranges independently over [-|r|, |r|], so the witness is the
    classical maximum of the marginal-scaled functional (|r_A||r_B| alpha,
    |r_A| beta, |r_B| gamma): one exact 2^m vertex-kernel scan, refused above
    20 Alice settings, with ties to the first vertex in lexicographic sign
    order. The directions are the signs times the unit marginals (or +z).
    """
    r_a, r_b, _ = _two_qubit_moments(rho, "asym_sup")
    norm_a = float(np.linalg.norm(r_a))
    norm_b = float(np.linalg.norm(r_b))
    value, a, b = _vertex_max(norm_a * norm_b * f.alpha, norm_a * f.beta, norm_b * f.gamma)
    unit_a = r_a / norm_a if norm_a > DEGENERATE_NORM else _Z
    unit_b = r_b / norm_b if norm_b > DEGENERATE_NORM else _Z
    return WitnessReport(
        value=value,
        optimizing_scenario=scenario_from_directions(np.outer(a, unit_a), np.outer(b, unit_b)),
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
    r_a, r_b, _ = _two_qubit_moments(rho, "bound_geometry_free")
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
    r_a, r_b, _ = _two_qubit_moments(rho, "bound_orthogonal")
    na = float(np.linalg.norm(r_a))
    nb = float(np.linalg.norm(r_b))
    spectral = float(singular_values(np.abs(f.alpha))[0])
    beta_max = float(max(_positive_part(f.beta).max(), 0.0))
    gamma_max = float(max(_positive_part(f.gamma).max(), 0.0))
    return float(spectral * na * nb + beta_max * na**2 + gamma_max * nb**2)


def _setting_forms(r: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-setting 3x3 forms M_k = sym(r w_k^T) + q_k r r^T, batched over w (..., k, 3).

    With the other party's directions fixed, setting k contributes
    (u.r)(u.w_k) + q_k (u.r)^2 = u^T M_k u to the two-sided witness. ``r``
    broadcasts against the rows of ``w``: (3,), or (groups, 1, 1, 3).
    """
    rw = r[..., :, None] * w[..., None, :]
    return 0.5 * (rw + rw.swapaxes(-1, -2)) + q[:, None, None] * (r[..., :, None] * r[..., None, :])


def _unit_normal(u: np.ndarray) -> np.ndarray:
    """A fixed unit vector orthogonal to the unit vector ``u``.

    The orthonormal-basis construction of Duff et al., J. Comput. Graph. Tech.
    6(1), 1 (2017).
    """
    x, y, z = u
    sign = 1.0 if z >= 0.0 else -1.0
    a = -1.0 / (sign + z)
    return np.array([1.0 + sign * x * x * a, sign * x * y * a, -sign * x])


def _group_product(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x (groups, ..., i) @ its group's (i, j) matrix: one product per group, bit for bit x @ mat[:, None]."""
    return (x.reshape(len(x), -1, x.shape[-1]) @ mat).reshape(*x.shape[:-1], mat.shape[-1])


def _plane_axes(r: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-group constants of ``_top_eigenpairs`` for a (groups, 3) stack of vectors r.

    Returns |r| (groups, 1, 1), r^ = r/|r| (+z for r = 0) as rows (groups, 1, 3) and
    columns (groups, 3, 1), and a fixed unit normal to r^ (groups, 1, 1, 3) for the batches.
    """
    norms = [math.sqrt(v.dot(v)) for v in r]  # np.linalg.norm(v) bit for bit: sqrt(v.dot(v))
    units = np.array([v / norm if norm > 0.0 else _Z for v, norm in zip(r, norms)])
    normals = [_unit_normal(u) for u in units]
    return (
        np.array(norms)[:, None, None],
        units[:, None, :],
        units[:, :, None],
        np.array(normals)[:, None, None, :],
    )


def _top_eigenpairs(axes, w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit u_k maximizing u_k^T M_k u_k for M_k = sym(r w_k^T) + q_k r r^T.

    Batched over w (groups, restarts, k, 3); ``axes`` holds each group's
    ``_plane_axes`` of r. M_k vanishes outside span{r, w_k}. In the
    orthonormal basis r^ = r/|r|, p = w_perp/|w_perp| of that plane it is
    [[tau, h], [h, 0]], with w_perp = w - (w.r^) r^, tau = q|r|^2 + r.w and
    h = |r||w_perp|/2. So the maximum is lambda = (tau + d)/2 >= 0,
    d = sqrt(tau^2 + 4h^2), with eigenvector lambda r^ + h p; for tau < 0
    both are formed without cancellation, as lambda = 2h^2/(d - tau) and
    2h r^ + (d - tau) p. The projection off r^ is taken twice, so p stays
    orthogonal to r^ when w is nearly parallel to r; a w_perp at rounding
    level relative to w is replaced by a fixed unit vector orthogonal to r,
    with h = 0. The zero form (r = 0, or w parallel to r with tau = 0)
    returns r^ (+z for r = 0) with lambda = 0. Returns (vectors (..., k, 3),
    maxima (..., k)); the vector's sign is immaterial because the form is
    even in u. Every product with r^ is one ``_group_product`` per group.
    """
    norm_r, unit_row, unit_col, normal = axes
    along = _group_product(w, unit_col)
    perp = w - _group_product(along, unit_row)
    perp -= _group_product(_group_product(perp, unit_col), unit_row)
    norm_perp = np.sqrt(np.einsum("...i,...i->...", perp, perp))
    flat = norm_perp <= _ROUNDING * np.sqrt(np.einsum("...i,...i->...", w, w))
    perp = np.where(flat[..., None], normal, perp / np.where(flat, 1.0, norm_perp)[..., None])
    two_h = np.where(flat, 0.0, norm_r * norm_perp)
    tau = norm_r * (along[..., 0] + q * norm_r)
    big = np.hypot(tau, two_h) + np.abs(tau)
    rising = tau >= 0.0
    maxima = 0.5 * np.where(rising, big, two_h**2 / np.where(rising, 1.0, big))
    coef_r = np.where(rising, big, two_h)
    coef_p = np.where(rising, two_h, big)
    length = np.hypot(coef_r, coef_p)
    empty = length == 0.0
    length = np.where(empty, 1.0, length)
    coef_r = np.where(empty, 1.0, coef_r / length)
    return _group_product(coef_r[..., None], unit_row) + (coef_p / length)[..., None] * perp, maxima


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
    eigenvector, a closed form because M_k has rank <= 2 and vanishes
    outside span{r, w_k} (``_top_eigenpairs``), from Gaussian-drawn
    b-directions, in SQUAREM cycles that renormalize extrapolated rows.
    ``orthogonal`` keeps one orthonormal frame per party (setting k is row
    k; alpha, beta and gamma are padded with zeros to 3 settings, so unused
    rows carry M = 0) and runs one cyclic Jacobi sweep of plane rotations
    per update, from the canonical frames in restart 0 and random rotations
    in the others, in plain maps: an extrapolated frame's renormalized rows
    are not orthonormal, and its polar factor cost more than it saved. Each
    map's value is read off the B update: the sum of b_y^T M_y b_y plus the
    beta terms of the fixed a-directions. When the applicable cap already
    pins the witness to zero (e.g. a maximally mixed marginal with no
    positive quadratic coefficient), the optimization is skipped.
    ``converged`` describes the reported restart.
    """
    return WitnessReport(**_sym_sup_fields([rho], f, constraint, [cfg or OptimizerConfig()])[0])


def _sym_sup_fields(rhos, f: BellFunctional, constraint: str, cfgs) -> list[dict]:
    """``WitnessReport`` fields of ``sym_sup`` for each state, optimized as groups of one ``_seesaw`` call.

    ``cfgs`` holds one config per state; they may differ only in seed. Each
    state's fields are bit for bit those it gets alone. The caller builds
    the reports, whose bound check may raise for one state and not another.
    """
    if constraint not in ("free", "orthogonal"):
        raise ValueError(f"unknown constraint {constraint!r}")
    m, n = f.shape
    moments = [_two_qubit_moments(rho, "sym_sup") for rho in rhos]
    if constraint == "orthogonal" and max(m, n) > 3:
        raise ValueError("orthogonal mode supports at most 3 settings per party")
    fields = []
    for rho in rhos:
        bounds = [("geometry_free", bound_geometry_free(rho, f))]
        if constraint == "orthogonal":
            bounds.append(("orthogonal", bound_orthogonal(rho, f)))
        fields.append(
            dict(value=0.0, optimizing_scenario=None, bounds=tuple(bounds), restarts_used=0, converged=True)
        )
    # A cap that already pins the witness to zero skips the optimization.
    run = [i for i, entry in enumerate(fields) if entry["bounds"][-1][1] > DEGENERATE_NORM]
    if not run:
        return fields
    cfg = _shared_config([cfgs[i] for i in run])
    r_a, r_b, t = (np.array([moments[i][part] for i in run]) for part in range(3))

    if constraint == "free":
        alpha, beta, gamma = f.alpha, f.beta, f.gamma
        forms_a, forms_b = _plane_axes(r_a), _plane_axes(r_b)

        def maximize(_, forms, w, q):
            return _top_eigenpairs(forms, w, q)

        a_start, retract = None, _normalize_rows
        b_start = np.array([_gaussian_directions(n, cfgs[i]) for i in run])
    else:
        alpha = np.pad(f.alpha, ((0, 3 - m), (0, 3 - n)))
        beta = np.pad(f.beta, (0, 3 - m))
        gamma = np.pad(f.gamma, (0, 3 - n))
        forms_a, forms_b = (r_a[:, None, None, :],), (r_b[:, None, None, :],)

        def maximize(frame, forms, w, q):
            return _jacobi_sweep(frame, _setting_forms(forms[0], w, q))

        a_start, b_start = np.stack([_random_frames(cfgs[i]) for i in run], axis=1)
        retract = None

    # Per block: the other party's r column, its map onto the rows of w, the block's form constants.
    consts = (r_b[..., None], t.swapaxes(1, 2), *forms_a, r_a[..., None], t, *forms_b)
    half = len(consts) // 2

    def best_block(consts, dirs, other, coef, q):
        """The best ``dirs`` for fixed ``other`` directions, their forms, and the other party's means."""
        col, mat, *forms = consts
        means = _group_product(other, col)[..., 0]
        w = (coef * means[..., None, :]) @ _group_product(other, mat)
        return *maximize(dirs, forms, w, q), means

    def update_a(consts, a_dirs: np.ndarray, b_dirs: np.ndarray) -> np.ndarray:
        # w_x = sum_y alpha_xy (b_y . r_B) T b_y
        return best_block(consts[:half], a_dirs, b_dirs, alpha, beta)[0]

    def update_b(consts, a_dirs: np.ndarray, b_dirs: np.ndarray, valued: bool):
        b_dirs, forms, a = best_block(consts[half:], b_dirs, a_dirs, alpha.T, gamma)
        return b_dirs, (forms.sum(axis=-1) + (a**2) @ beta if valued else None)

    optima = _seesaw(update_a, update_b, a_start, b_start, consts, cfg, retract)
    for i, (a_best, b_best, value, _, converged) in zip(run, optima):
        fields[i].update(
            value=value,
            optimizing_scenario=scenario_from_directions(
                a_best[:m], b_best[:n], orthogonal=(constraint == "orthogonal")
            ),
            restarts_used=cfg.restarts,
            converged=converged,
        )
    return fields


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
    """Tr[rho (A x B x C)]: the correlation tensor T_ABC contracted with the three directions."""
    u, v, w = (o.direction for o in obs)
    return float(u @ (first_moments(rho)[3] @ w) @ v)


def _mermin_terms(settings) -> list[tuple[tuple[QubitObservable, ...], float]]:
    """(per-party observables, sign) of each term, from the default or given setting pairs."""
    settings = settings or mermin_settings()
    if len(settings) != 3 or any(len(pair) != 2 for pair in settings):
        raise ValueError("need one (x-like, y-like) setting pair per party")
    return [
        (tuple(settings[party]["xy".index(lab)] for party, lab in enumerate(labels)), sign)
        for labels, sign in MERMIN_SIGNS.items()
    ]


def mermin_value(
    rho: DensityMatrix,
    settings: tuple[tuple[QubitObservable, QubitObservable], ...] | None = None,
) -> float:
    """Three-party correlator combination xxx - xyy - yxy - yyx (classical bound 2)."""
    if rho.dims != (2, 2, 2):
        raise ValueError("mermin_value needs a three-qubit state")
    return sum(sign * _mermin_correlator(rho, obs) for obs, sign in _mermin_terms(settings))


def mermin_lhv_bound() -> float:
    """Classical bound of the three-party combination by sign enumeration.

    For each of party C's four sign vertices c, the vertex kernel maximizes
    the A-B bilinear form whose alpha is the sign tensor contracted with c.
    """
    form = np.zeros((2, 2, 2))
    for labels, sign in MERMIN_SIGNS.items():
        form[tuple("xy".index(label) for label in labels)] = sign
    return max(_vertex_max(form @ c, np.zeros(2), np.zeros(2))[0] for c in _sign_vertices(2))


def mermin_lpo_witness(
    rho: DensityMatrix,
    mode: str = "asym_sup",
    settings: tuple[tuple[QubitObservable, QubitObservable], ...] | None = None,
) -> WitnessReport:
    """Perceived three-party witness.

    ``asym_sup`` maximizes the multilinear combination over per-party mean boxes
    [-|r_J|, |r_J|]^2, which is |r_A||r_B||r_C| times ``mermin_lhv_bound()``.
    ``sym_fixed`` evaluates sum(sign * a b c * C) at the given settings.
    """
    if rho.dims != (2, 2, 2):
        raise ValueError("mermin_lpo_witness needs a three-qubit state")
    r_vecs = first_moments(rho)[:3]
    norms = [float(np.linalg.norm(r)) for r in r_vecs]

    if mode == "asym_sup":
        lhv = mermin_lhv_bound()
        return WitnessReport(
            value=norms[0] * norms[1] * norms[2] * lhv,
            optimizing_scenario=None,
            bounds=(("lhv", lhv),),
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
