"""Bell functionals: coefficients, operators, values, LHV bounds, settings optimization."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import kron
from .states import DensityMatrix, QubitObservable, first_moments

IDENTITY_TOL = 1e-10
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


def bell_operator_matrix(f: BellFunctional, s: MeasurementScenario) -> np.ndarray:
    """Assemble the 4x4 Bell operator from coefficients and settings."""
    m, n = f.shape
    if len(s.alice) != m or len(s.bob) != n:
        raise ValueError("scenario setting counts do not match functional shape")
    i2 = np.eye(2)
    out = np.zeros((4, 4), dtype=complex)
    for x in range(m):
        for y in range(n):
            out += f.alpha[x, y] * kron(s.alice[x].matrix, s.bob[y].matrix)
    for x in range(m):
        out += f.beta[x] * kron(s.alice[x].matrix, i2)
    for y in range(n):
        out += f.gamma[y] * kron(i2, s.bob[y].matrix)
    return out


def marginal_means(rho: DensityMatrix, s: MeasurementScenario) -> MarginalMeans:
    """Tables a = D_A r_A, b = D_B r_B and C = D_A T D_B^T of the state's first moments.

    The rows of D_A and D_B are the scenario's measurement directions, so
    a_x = Tr(rho_A sigma.u_x), b_y = Tr(rho_B sigma.v_y) and
    C_xy = Tr[rho (sigma.u_x x sigma.v_y)].
    """
    if rho.dims != (2, 2):
        raise ValueError("marginal_means needs a two-qubit state")
    r_a, r_b, t = first_moments(rho)
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


def lhv_bound(f: BellFunctional) -> float:
    """Exact deterministic bound: max of F over all sign assignments.

    The b-side vertices are enumerated; for each, the optimal a is the
    coordinate-wise sign choice, so the scan is exact at 2^n cost.
    """
    signs = _sign_vertices(f.shape[1])
    values = np.abs(signs @ f.alpha.T + f.beta).sum(axis=1) + signs @ f.gamma
    return float(values.max())


def cond_joint_prob(a_out: int, b_out: int, c_ai: float, c_ib: float, c_ab: float) -> float:
    """Joint outcome probability from one- and two-party correlators.

    P(a, b) = (1 + (-1)^a C_AI + (-1)^b C_IB + (-1)^(a+b) C_AB) / 4. Triples
    outside the physical range produce values outside [0, 1]; those are
    flagged with a warning rather than an error.
    """
    if a_out not in (0, 1) or b_out not in (0, 1):
        raise ValueError("outcomes must be bits")
    for name, c in (("c_ai", c_ai), ("c_ib", c_ib), ("c_ab", c_ab)):
        if abs(c) > 1.0 + IDENTITY_TOL:
            raise ValueError(f"{name}={c} outside [-1, 1]")
    sa = -1.0 if a_out else 1.0
    sb = -1.0 if b_out else 1.0
    p = 0.25 * (1.0 + sa * c_ai + sb * c_ib + sa * sb * c_ab)
    if p < -IDENTITY_TOL or p > 1.0 + IDENTITY_TOL:
        warnings.warn(f"unphysical correlator triple: probability {p}", stacklevel=2)
    return float(p)


def c3322_value(rho: DensityMatrix, s: MeasurementScenario) -> float:
    """Correlator-form 3-setting inequality value (classical bound 4)."""
    if len(s.alice) != 3 or len(s.bob) != 3:
        raise ValueError("c3322_value needs 3 settings per party")
    return functional_value(rho, preset_functional("c3322"), s)


def i3322_probability_value(rho: DensityMatrix, s: MeasurementScenario) -> float:
    """Probability-form 3-setting inequality value (classical bound 0).

    Built from the correlator tables through the joint-probability identity;
    satisfies the correlator-form relation C = 4 (I + 1).
    """
    if len(s.alice) != 3 or len(s.bob) != 3:
        raise ValueError("i3322_probability_value needs 3 settings per party")
    means = marginal_means(rho, s)
    alpha = preset_functional("c3322").alpha

    def p_joint(x: int, y: int) -> float:
        return cond_joint_prob(0, 0, means.a[x], means.b[y], means.c[x, y])

    joint = sum(
        alpha[x, y] * p_joint(x, y) for x in range(3) for y in range(3) if alpha[x, y] != 0.0
    )
    p_a1 = 0.5 * (1.0 + means.a[0])
    p_b1 = 0.5 * (1.0 + means.b[0])
    p_b2 = 0.5 * (1.0 + means.b[1])
    return float(joint - p_a1 - 2.0 * p_b1 - p_b2)


def i2222_probability_value(rho: DensityMatrix, s: MeasurementScenario) -> float:
    """Probability-form 2-setting inequality value (classical bound 0).

    Equals S/4 - 1/2 for the CHSH combination S at the same settings.
    """
    if len(s.alice) != 2 or len(s.bob) != 2:
        raise ValueError("i2222_probability_value needs 2 settings per party")
    means = marginal_means(rho, s)

    def p_joint(x: int, y: int) -> float:
        return cond_joint_prob(0, 0, means.a[x], means.b[y], means.c[x, y])

    joint = p_joint(0, 0) + p_joint(0, 1) + p_joint(1, 0) - p_joint(1, 1)
    p_a1 = 0.5 * (1.0 + means.a[0])
    p_b1 = 0.5 * (1.0 + means.b[0])
    return float(joint - p_a1 - p_b1)


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
    stops once no start gains more than ``value_tolerance`` in one round, or
    after ``max_iterations`` rounds.
    """

    restarts: int = 64
    max_iterations: int = 20000
    value_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.value_tolerance < math.inf:
            raise ValueError(
                f"tolerances must be positive and finite, got value_tolerance={self.value_tolerance!r}"
            )


@dataclass(frozen=True)
class BellOptimum:
    """Result of settings optimization of a Bell functional value."""

    value: float
    scenario: MeasurementScenario
    iterations: int
    converged: bool


def _normalize_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Rows of ``v`` scaled to unit length; a row of norm <= 1e-14 becomes ``fallback``."""
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    out = np.empty_like(v)
    out[...] = fallback
    return np.divide(v, norms, out=out, where=norms > 1e-14)


def _gaussian_directions(n: int, cfg: OptimizerConfig) -> np.ndarray:
    """(restarts, n, 3) unit directions normalized from Gaussian draws of ``cfg.seed``."""
    rng = np.random.default_rng(cfg.seed)
    return _normalize_rows(rng.normal(size=(cfg.restarts, n, 3)), _Z)


def _seesaw(update_a, update_b, a_dirs, b_dirs, cfg: OptimizerConfig):
    """Multi-start alternating block ascent over measurement directions.

    Both updates take the current batches ``(a_dirs, b_dirs)``, each of
    shape (restarts, k, 3), so an update may start from its own block's
    previous directions. ``update_a`` returns the best a-directions for the
    given b-directions; ``update_b`` returns the best b-directions for the
    given a-directions and also the batch value of the pair (a, b) it just
    formed, read off its own block update, so a round is scored without a
    separate evaluation. The caller supplies the starting batches (an update
    that ignores its own block may start from ``a_dirs=None``); all restarts
    advance in lockstep until no restart gains more than
    ``cfg.value_tolerance`` in one round. Returns the best restart's a- and
    b-directions and value, the iteration count, and whether that stopping
    rule fired.
    """
    values = np.full(cfg.restarts, -np.inf)
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        a_dirs = update_a(a_dirs, b_dirs)
        b_dirs, new_values = update_b(a_dirs, b_dirs)
        converged = bool((new_values - values <= cfg.value_tolerance).all())
        values = np.maximum(values, new_values)
        if converged:
            break
    best = int(np.argmax(values))
    return a_dirs[best], b_dirs[best], float(values[best]), iterations, converged


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
    directions once the other party's are fixed, so each block update is one
    product of the flattened (restarts, 3n) directions with a fixed
    Kronecker map (kron(alpha^T, T^T) towards A, kron(alpha, T) towards B),
    plus a constant, followed by a row normalization (a zero gradient falls
    back to +z). The round's value is read off the B update: with gradients
    g_y, F = sum_y b_y.g_y + sum_x beta_x a_x.r_A, which is sum_y |g_y| plus
    the A marginal term. All restarts advance in lockstep; ``converged`` is
    true only when every restart's last gain is within ``value_tolerance``.
    """
    m, n = f.shape
    r_a, r_b, t = first_moments(rho)
    to_a = np.kron(f.alpha.T, t.T)
    to_b = np.kron(f.alpha, t)
    shift_a = np.kron(f.beta, r_a)
    shift_b = np.kron(f.gamma, r_b)

    def update_a(_, b_dirs):
        grad = b_dirs.reshape(len(b_dirs), -1) @ to_a + shift_a
        return _normalize_rows(grad.reshape(-1, m, 3), _Z)

    def update_b(a_dirs, _):
        a_flat = a_dirs.reshape(len(a_dirs), -1)
        grad = (a_flat @ to_b + shift_b).reshape(-1, n, 3)
        b_dirs = _normalize_rows(grad, _Z)
        return b_dirs, np.einsum("rny,rny->r", b_dirs, grad) + a_flat @ shift_a

    cfg = OptimizerConfig(
        restarts=restarts, max_iterations=max_iterations, value_tolerance=value_tolerance, seed=seed
    )
    a_best, b_best, value, iterations, converged = _seesaw(
        update_a, update_b, None, _gaussian_directions(n, cfg), cfg
    )
    return BellOptimum(
        value=value,
        scenario=scenario_from_directions(a_best, b_best),
        iterations=iterations,
        converged=converged,
    )
