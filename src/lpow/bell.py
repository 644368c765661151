"""Bell functionals: coefficients, operators, values, LHV bounds, settings optimization."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import kron
from .states import DensityMatrix, QubitObservable, bloch_vector, correlation_matrix

MEANS_CROSS_CHECK_TOL = 1e-12
IDENTITY_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
ENUMERATION_LIMIT = 24
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
    """Tables a_x, b_y, C_xy, cross-checked against Bloch-vector dot products."""
    if rho.dims != (2, 2):
        raise ValueError("marginal_means needs a two-qubit state")
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
    r_a = bloch_vector(rho_a)
    r_b = bloch_vector(rho_b)
    t = correlation_matrix(rho)
    a_bloch = s.alice_directions @ r_a
    b_bloch = s.bob_directions @ r_b
    c_bloch = s.alice_directions @ t @ s.bob_directions.T
    if (
        np.abs(a - a_bloch).max() > MEANS_CROSS_CHECK_TOL
        or np.abs(b - b_bloch).max() > MEANS_CROSS_CHECK_TOL
        or np.abs(c - c_bloch).max() > MEANS_CROSS_CHECK_TOL
    ):
        raise ArithmeticError("trace and Bloch evaluations of marginal means disagree")
    return MarginalMeans(a=a, b=b, c=c)


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


def lhv_bound(f: BellFunctional) -> float:
    """Exact deterministic bound: max of F over all sign assignments.

    The b-side vertices are enumerated; for each, the optimal a is the
    coordinate-wise sign choice, so the scan is exact at 2^n cost.
    """
    m, n = f.shape
    if m + n > ENUMERATION_LIMIT:
        raise ValueError(f"scenario too large for vertex enumeration (m+n={m + n})")
    signs = np.array([[1.0 - 2.0 * ((k >> j) & 1) for j in range(n)] for k in range(2**n)])
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
    """Multi-start optimizer parameters.

    ``step_tolerance`` stops only the compass search of the orthogonal mode;
    the see-saw optimizers stop on ``value_tolerance``.
    """

    restarts: int = 64
    max_iterations: int = 20000
    step_tolerance: float = 1e-9
    value_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.step_tolerance <= 0 or self.value_tolerance <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class BellOptimum:
    """Result of settings optimization of a Bell functional value."""

    value: float
    scenario: MeasurementScenario
    iterations: int
    converged: bool


def _normalize_rows(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    out = np.where(norms > 1e-14, v / np.where(norms == 0.0, 1.0, norms), fallback)
    return out


def _seesaw(update_a, update_b, value, n: int, cfg: OptimizerConfig):
    """Multi-start alternating block ascent over measurement directions.

    ``update_a`` maps a batch of b-directions (restarts, n, 3) to the best
    a-directions for them, ``update_b`` maps a-directions back to the best
    b-directions, and ``value`` scores a batch of direction pairs. Every
    restart starts from Gaussian-drawn b-directions and all advance in
    lockstep until no restart gains more than ``cfg.value_tolerance`` in
    one round. Returns the best restart's a- and b-directions and value, the
    iteration count, and whether that stopping rule fired.
    """
    rng = np.random.default_rng(cfg.seed)
    b_dirs = _normalize_rows(rng.normal(size=(cfg.restarts, n, 3)), _Z)
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


def optimize_functional_value(
    rho: DensityMatrix,
    f: BellFunctional,
    restarts: int = 64,
    seed: int = 0,
    max_iterations: int = 20000,
    value_tolerance: float = 1e-10,
) -> BellOptimum:
    """Maximize Tr(rho B) over measurement directions.

    See-saw ascent: with one party's directions fixed, the value is linear
    in each of the other party's directions, so each block update is the
    normalized gradient. All restarts advance in lockstep as batched array
    operations; ``converged`` is true only when every restart's last gain
    is within ``value_tolerance``.
    """
    n = f.shape[1]
    r_a = bloch_vector(rho.marginal(0))
    r_b = bloch_vector(rho.marginal(1))
    t = correlation_matrix(rho)

    def update_a(b_dirs):
        grad = np.einsum("mn,rny->rmy", f.alpha, b_dirs @ t.T) + f.beta[:, None] * r_a[None, None, :]
        return _normalize_rows(grad, _Z)

    def update_b(a_dirs):
        grad = np.einsum("mn,rmy->rny", f.alpha.T, a_dirs @ t) + f.gamma[:, None] * r_b[None, None, :]
        return _normalize_rows(grad, _Z)

    def batch_value(a_d, b_d):
        a = a_d @ r_a
        b = b_d @ r_b
        c = np.einsum("rmx,xy,rny->rmn", a_d, t, b_d)
        return np.einsum("mn,rmn->r", f.alpha, c) + a @ f.beta + b @ f.gamma

    cfg = OptimizerConfig(
        restarts=restarts, max_iterations=max_iterations, value_tolerance=value_tolerance, seed=seed
    )
    a_best, b_best, value, iterations, converged = _seesaw(update_a, update_b, batch_value, n, cfg)
    return BellOptimum(
        value=value,
        scenario=scenario_from_directions(a_best, b_best),
        iterations=iterations,
        converged=converged,
    )
