"""Bell functionals: coefficients, operators, values, LHV bounds, settings optimization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import DensityMatrix, QubitObservable, _two_qubit_moments

ORTHOGONALITY_TOL = 1e-10
ENUMERATION_LIMIT = 20
_Z = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class BellFunctional:
    """Coefficient triple (alpha: m x n, beta: m, gamma: n) of a linear Bell expression."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    name: str = ""

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("alpha must be an m x n matrix with m, n >= 1")
        if b.shape != (a.shape[0],) or g.shape != (a.shape[1],):
            raise ValueError("beta/gamma lengths must match alpha's shape")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(g).all()):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    @property
    def shape(self) -> tuple[int, int]:
        return self.alpha.shape


@dataclass(frozen=True)
class MeasurementScenario:
    """Ordered per-party measurement directions, optionally flagged orthogonal."""

    alice: tuple[QubitObservable, ...]
    bob: tuple[QubitObservable, ...]
    orthogonal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))
        if self.orthogonal:
            for party in (self.alice, self.bob):
                dirs = np.array([o.direction for o in party])
                gram = dirs @ dirs.T
                off = gram - np.diag(np.diag(gram))
                if np.abs(off).max() > ORTHOGONALITY_TOL:
                    raise ValueError("orthogonal flag set but directions are not pairwise orthogonal")

    @property
    def alice_directions(self) -> np.ndarray:
        return np.array([o.direction for o in self.alice])

    @property
    def bob_directions(self) -> np.ndarray:
        return np.array([o.direction for o in self.bob])


@dataclass(frozen=True)
class MarginalMeans:
    """Single-party means a, b and the joint correlator table c."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def scenario_from_directions(alice_dirs, bob_dirs, orthogonal: bool = False) -> MeasurementScenario:
    alice = tuple(QubitObservable(np.asarray(d, dtype=float)) for d in alice_dirs)
    bob = tuple(QubitObservable(np.asarray(d, dtype=float)) for d in bob_dirs)
    return MeasurementScenario(alice, bob, orthogonal)


def preset_functional(name: str) -> BellFunctional:
    """Named coefficient presets: ``chsh`` and correlator-form ``c3322``."""
    if name == "chsh":
        return BellFunctional(
            alpha=np.array([[1.0, 1.0], [1.0, -1.0]]),
            beta=np.zeros(2),
            gamma=np.zeros(2),
            name="chsh",
        )
    if name == "c3322":
        return BellFunctional(
            alpha=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 0.0]]),
            beta=np.array([1.0, 1.0, 0.0]),
            gamma=np.array([-1.0, -1.0, 0.0]),
            name="c3322",
        )
    raise ValueError(f"unknown functional {name!r}")


def chsh_settings() -> MeasurementScenario:
    """Standard CHSH-maximizing settings for the singlet: x/z for A, diagonals for B."""
    s = 1.0 / math.sqrt(2.0)
    return scenario_from_directions(
        [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)],
        [(s, 0.0, s), (s, 0.0, -s)],
    )


def planar_3322_settings() -> MeasurementScenario:
    """Three coplanar settings per party in the x-z plane.

    Polar angles are eta = arccos(sqrt(7/8)) for A and zeta = arccos(sqrt(2/3))
    for B; the third setting of each party lies along -x / +x. The signed polar
    angle enters as rotation away from +z inside the x-z plane (azimuth zero),
    the reading of the published angle pair that actually reproduces the
    3-setting correlator value ~4.05 on the benchmark mixed state; the other
    reading degenerates to all-z settings.
    """
    eta = math.acos(math.sqrt(7.0 / 8.0))
    zeta = math.acos(math.sqrt(2.0 / 3.0))

    def planar(angle: float) -> tuple[float, float, float]:
        return (math.sin(angle), 0.0, math.cos(angle))

    alice = [planar(eta), planar(-eta), planar(-math.pi / 2.0)]
    bob = [planar(-zeta), planar(zeta), planar(math.pi / 2.0)]
    return scenario_from_directions(alice, bob)


def marginal_means(rho: DensityMatrix, s: MeasurementScenario) -> MarginalMeans:
    """Tables a = D_A r_A, b = D_B r_B and C = D_A T D_B^T of the state's first moments.

    The rows of D_A and D_B are the scenario's measurement directions, so
    a_x = Tr(rho_A sigma.u_x), b_y = Tr(rho_B sigma.v_y) and
    C_xy = Tr[rho (sigma.u_x x sigma.v_y)].
    """
    r_a, r_b, t = _two_qubit_moments(rho, "marginal_means")
    alice, bob = s.alice_directions, s.bob_directions
    return MarginalMeans(a=alice @ r_a, b=bob @ r_b, c=alice @ t @ bob.T)


def bilinear_value(f: BellFunctional, a, b) -> float:
    """F(a, b) = a^T alpha b + beta.a + gamma.b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = f.shape
    if a.shape != (m,) or b.shape != (n,):
        raise ValueError("mean vector lengths do not match functional shape")
    return float(a @ f.alpha @ b + f.beta @ a + f.gamma @ b)


def functional_value(rho: DensityMatrix, f: BellFunctional, s: MeasurementScenario) -> float:
    """Tr(rho B) evaluated from the correlator tables."""
    means = marginal_means(rho, s)
    return float((f.alpha * means.c).sum() + f.beta @ means.a + f.gamma @ means.b)


def _sign_vertices(k: int) -> np.ndarray:
    """All 2^k sign vectors as rows of a (2^k, k) table, -1 before +1 in each column.

    The row order is that of ``itertools.product((-1, 1), repeat=k)``, so the
    first maximum of a vectorized scan is the first in lexicographic sign
    order. Raises for k above ``ENUMERATION_LIMIT`` before building anything.
    """
    if k > ENUMERATION_LIMIT:
        raise ValueError(
            f"scenario too large for vertex enumeration ({k} signs, limit {ENUMERATION_LIMIT})"
        )
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return 2.0 * bits - 1.0


def _vertex_max(alpha, beta, gamma) -> tuple[float, np.ndarray, np.ndarray]:
    """Max of a^T alpha b + beta.a + gamma.b over sign vectors, with its (a, b).

    For each of the 2^m rows a the best b is the sign of grad = a alpha + gamma,
    worth |grad|_1. Ties break to the first (a, b) in lexicographic sign order:
    argmax takes the first a, and a zero gradient entry takes b = -1.
    """
    signs = _sign_vertices(alpha.shape[0])
    grad = signs @ alpha + gamma
    values = np.abs(grad).sum(axis=1) + signs @ beta
    best = int(np.argmax(values))
    return float(values[best]), signs[best], np.where(grad[best] > 0, 1.0, -1.0)


def lhv_bound(f: BellFunctional) -> float:
    """Exact deterministic bound: max of F over all sign vertices, scanning Bob's 2^n."""
    return _vertex_max(f.alpha.T, f.gamma, f.beta)[0]


def normalized_value(kind: str, raw: float) -> float:
    """Affine rescales placing every inequality's classical bound at 1."""
    if kind == "i3322_tilde":
        return raw + 1.0
    if kind in ("i2222_tilde", "i2222_lpo_tilde"):
        return 2.0 * raw + 1.0
    raise ValueError(f"unknown normalization {kind!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start see-saw parameters.

    Every optimizer runs ``restarts`` lockstep starts drawn from ``seed`` and
    stops once no start gains more than ``value_tolerance`` over one cycle
    of ``bell._seesaw``, or after ``max_iterations`` see-saw maps.
    """

    restarts: int = 64
    max_iterations: int = 20000
    value_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not 0.0 < self.value_tolerance < math.inf:
            raise ValueError(
                f"tolerances must be positive and finite, got value_tolerance={self.value_tolerance!r}"
            )


@dataclass(frozen=True)
class BellOptimum:
    """Result of settings optimization of a Bell functional value.

    ``iterations`` counts see-saw maps; ``converged``: the stopping rule, not the cap, ended them.
    """

    value: float
    scenario: MeasurementScenario
    iterations: int
    converged: bool


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    """Rows of ``v`` scaled to unit length; a row of norm <= 1e-14 (or NaN) becomes +z.

    The squares are summed as (x^2 + y^2) + z^2, the order of ``add.reduce``
    over a last axis of three, so the norms equal ``sqrt((v * v).sum(-1))``
    bit for bit.
    """
    sq = v * v
    norms = np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])[..., None]
    if norms.min() > 1e-14:
        return v / norms
    out = np.empty_like(v)
    out[...] = _Z
    return np.divide(v, norms, out=out, where=norms > 1e-14)


def _gaussian_directions(n: int, cfg: OptimizerConfig) -> np.ndarray:
    """(restarts, n, 3) unit directions normalized from Gaussian draws of ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    return _normalize_rows(rng.normal(size=(cfg.restarts, n, 3)))


def _shared_config(cfgs) -> OptimizerConfig:
    """The one loop configuration of stacked groups, whose configs may differ only in seed."""
    cfg = cfgs[0]
    loop = (cfg.restarts, cfg.max_iterations, cfg.value_tolerance)
    if any((c.restarts, c.max_iterations, c.value_tolerance) != loop for c in cfgs):
        raise ValueError("stacked optimizations must share every OptimizerConfig field but seed")
    return cfg


def _squarem_point(b0: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """SQUAREM point b0 - 2 alpha r + alpha^2 v of three successive iterates.

    r = b1 - b0, v = b2 - b1 - r, and alpha = -|r|/|v| per restart over its
    flattened directions, clipped to <= -1 (-1 when v = 0, which gives b2).
    The iterates have shape (groups, restarts, k, 3), summed as (groups, restarts, 3k).
    """
    r = b1 - b0
    v = b2 - b1 - r
    flat = (*r.shape[:2], -1)
    r_norm = np.sqrt((r * r).reshape(flat).sum(axis=2))
    v_norm = np.sqrt((v * v).reshape(flat).sum(axis=2))
    alpha = np.minimum(-r_norm / np.where(v_norm > 0.0, v_norm, np.inf), -1.0)[..., None, None]
    return b0 - 2.0 * alpha * r + alpha**2 * v


def _seesaw(update_a, update_b, a_dirs, b_dirs, consts, cfg: OptimizerConfig, retract=None):
    """Multi-start alternating block ascent over measurement directions, for stacked groups.

    The batches have shape (groups, restarts, k, 3): each group is one
    optimization (one state) with its own restarts, and every group runs the
    same maps in lockstep. ``consts`` is a tuple of per-group arrays, group
    on the leading axis, narrowed with the batches when a group retires.
    ``update_a(consts, a_dirs, b_dirs)`` returns the best a-directions for
    the given b-directions; ``update_b(consts, a_dirs, b_dirs, valued)`` the
    best b-directions and, if ``valued``, the (groups, restarts) values of
    the pair it formed (else None), so a map needs no separate evaluation.
    An update that ignores its own block may start from ``a_dirs=None``.

    A cycle is two maps b0 -> b1 -> b2 and, given a ``retract``, one more
    map from retract(``_squarem_point(b0, b1, b2)``) that each restart keeps
    only if its value is not below b2's: safeguarded SQUAREM (Varadhan &
    Roland, Scand. J. Stat. 35, 335, 2008), under which no restart's value
    decreases. Without one, a cycle is one map. A group stops when none of
    its restarts gains more than ``cfg.value_tolerance`` over a cycle; in
    the first cycle, whose start has no value, a group also stops where the
    plain loop does, when its second map gains no more than that (the only
    read of a cycle's first value). A group that stops is retired: its
    lanes leave the batches, so a group's result does not depend on the
    others. The iteration count is the
    number of maps, at most ``cfg.max_iterations``; when fewer than three
    remain, untested plain maps fill the cap. Returns one (directions a,
    directions b, value, iterations, converged) tuple per group, from its
    best restart; ``converged`` says the rule, not the cap, stopped it.
    """
    results: list = [None] * len(b_dirs)
    ids = np.arange(len(b_dirs))
    values = np.full(b_dirs.shape[:2], -np.inf)
    iterations = 0

    def step(a, b, valued=True):
        a = update_a(consts, a, b)
        b, v = update_b(consts, a, b, valued)
        return a, b, v

    def retire(stop: np.ndarray, converged: np.ndarray) -> None:
        nonlocal ids, consts, a_dirs, b_dirs, values
        best = values.argmax(axis=1)
        for lane in np.flatnonzero(stop):
            results[ids[lane]] = (
                a_dirs[lane, best[lane]],
                b_dirs[lane, best[lane]],
                float(values[lane, best[lane]]),
                iterations,
                bool(converged[lane]),
            )
        keep = ~stop
        ids = ids[keep]
        if len(ids):
            consts = tuple(c[keep] for c in consts)
            a_dirs, b_dirs, values = a_dirs[keep], b_dirs[keep], values[keep]

    while len(ids):
        if retract is None or cfg.max_iterations - iterations < 3:
            a_dirs, b_dirs, new_values = step(a_dirs, b_dirs)
            iterations += 1
            done = (new_values - values <= cfg.value_tolerance).all(axis=1) & (retract is None)
        else:
            b0 = b_dirs
            a1, b1, v1 = step(a_dirs, b0, iterations == 0)
            a_dirs, b_dirs, new_values = step(a1, b1)
            iterations += 2
            if iterations == 2:
                # The first cycle's start has no value: stop where the plain loop would.
                first = (new_values - v1 <= cfg.value_tolerance).all(axis=1)
                if first.any():
                    values[first] = new_values[first]
                    retire(first, first)
                    if not len(ids):
                        break
                    b0, b1, new_values = b0[~first], b1[~first], new_values[~first]
            a3, b3, v3 = step(a_dirs, retract(_squarem_point(b0, b1, b_dirs)))
            iterations += 1
            keep = (v3 >= new_values)[..., None, None]
            a_dirs, b_dirs = np.where(keep, a3, a_dirs), np.where(keep, b3, b_dirs)
            new_values = np.fmax(new_values, v3)
            done = (new_values - values <= cfg.value_tolerance).all(axis=1)
        values = np.maximum(values, new_values)
        capped = iterations >= cfg.max_iterations
        if capped or done.any():
            retire(done | capped, done)
    return results


def optimize_functional_value(
    rho: DensityMatrix,
    f: BellFunctional,
    restarts: int = 64,
    seed: int = 0,
    max_iterations: int = 20000,
    value_tolerance: float = 1e-10,
) -> BellOptimum:
    """Maximize Tr(rho B) over measurement directions.

    See-saw ascent on first moments: Tr(rho B) = sum_xy alpha_xy a_x^T T b_y
    + sum_x beta_x a_x.r_A + sum_y gamma_y b_y.r_B is linear in each party's
    directions once the other party's are fixed. It is ``_bilinear_seesaw``'s
    problem with shifts L_x = beta_x r_A and K_y = gamma_y r_B. All restarts
    advance in lockstep through safeguarded SQUAREM cycles of ``_seesaw``,
    which defines ``converged``.
    """
    cfg = OptimizerConfig(
        restarts=restarts, max_iterations=max_iterations, value_tolerance=value_tolerance, seed=seed
    )
    return _optimize_functional_values([rho], f, [cfg])[0]


def _optimize_functional_values(rhos, f: BellFunctional, cfgs) -> list[BellOptimum]:
    """``optimize_functional_value`` of each state, stacked as groups of one ``_seesaw`` call.

    ``cfgs`` holds one config per state; they may differ only in seed. Each
    state's optimum is bit for bit the one it reaches alone.
    """
    cfg = _shared_config(cfgs)
    moments = [_two_qubit_moments(rho, "optimize_functional_value") for rho in rhos]
    r_a, r_b, t = (np.array([moment[part] for moment in moments]) for part in range(3))
    shifts = (f.beta[:, None] * r_a[:, None, :], f.gamma[:, None] * r_b[:, None, :])
    starts = np.array([_gaussian_directions(f.shape[1], c) for c in cfgs])
    return [
        BellOptimum(value, scenario_from_directions(a_best, b_best), iterations, converged)
        for a_best, b_best, value, iterations, converged in _bilinear_seesaw(f.alpha, t, *shifts, starts, cfg)
    ]


def _bilinear_seesaw(alpha, t, shift_a, shift_b, starts, cfg: OptimizerConfig):
    """``_seesaw`` maximizing sum_xy alpha_xy a_x^T T b_y + sum_x a_x.L_x + sum_y b_y.K_y per group.

    Over unit directions a_x and b_y, with per-group T (groups, 3, 3) in
    ``t``, L (groups, m, 3) in ``shift_a`` and K (groups, n, 3) in
    ``shift_b``, from the b-directions ``starts`` (groups, restarts, n, 3).
    Each block update is one product of the flattened (restarts, 3n)
    directions with a fixed Kronecker map (kron(alpha^T, T^T) towards A,
    kron(alpha, T) towards B), plus the shifts, followed by a row
    normalization (a zero gradient falls back to +z). The map's value is
    read off the B update: with gradients g_y, it is sum_y b_y.g_y +
    sum_x a_x.L_x, which is sum_y |g_y| plus the A shift term. Returns
    ``_seesaw``'s group tuples.
    """
    m, n = alpha.shape
    # Per-group Kronecker products, each entry the one product np.kron forms.
    to_a = (alpha.T[:, None, :, None] * t.swapaxes(1, 2)[:, None, :, None, :]).reshape(-1, 3 * n, 3 * m)
    to_b = (alpha[:, None, :, None] * t[:, None, :, None, :]).reshape(-1, 3 * m, 3 * n)
    shift_a = shift_a.reshape(-1, 1, 3 * m)
    shift_a_col = shift_a.reshape(-1, 3 * m, 1)
    shift_b = shift_b.reshape(-1, 1, 3 * n)
    consts = (to_a, shift_a, to_b, shift_b, shift_a_col)

    def update_a(consts, _, b_dirs):
        to_a, shift_a = consts[:2]
        groups, restarts = b_dirs.shape[:2]
        grad = b_dirs.reshape(groups, restarts, -1) @ to_a + shift_a
        return _normalize_rows(grad.reshape(groups, restarts, m, 3))

    def update_b(consts, a_dirs, _, valued):
        to_b, shift_b, shift_a_col = consts[2:]
        groups, restarts = a_dirs.shape[:2]
        a_flat = a_dirs.reshape(groups, restarts, -1)
        grad = (a_flat @ to_b + shift_b).reshape(groups, restarts, n, 3)
        b_dirs = _normalize_rows(grad)
        if not valued:
            return b_dirs, None
        marginal = (a_flat @ shift_a_col)[..., 0]
        return b_dirs, np.einsum("grny,grny->gr", b_dirs, grad) + marginal

    return _seesaw(update_a, update_b, None, starts, consts, cfg, _normalize_rows)
