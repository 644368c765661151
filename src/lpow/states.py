"""State families and Bloch-level descriptors for few-qubit density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .linalg import HERMITICITY_TOL, PSD_EIG_FLOOR, PAULIS, dagger, kron, partial_trace, singular_values

TRACE_TOL = 1e-12
BISECTION_TOL = 1e-10
_BISECTION_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over an explicit qubit factorization."""

    matrix: np.ndarray
    dims: tuple[int, ...] = (2, 2)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        total = math.prod(self.dims)
        if m.shape != (total, total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if np.abs(m - dagger(m)).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1")
        if np.linalg.eigvalsh(m).min() < PSD_EIG_FLOOR:
            raise ValueError("density matrix has a negative eigenvalue")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def marginal(self, party: int) -> "DensityMatrix":
        """Single-party reduced state, built and validated once per state; its matrix is read-only."""
        if not 0 <= party < self.n_parties:
            raise ValueError(f"party {party} out of range for {self.n_parties} parties")
        return self._marginals[party]

    @cached_property
    def _marginals(self) -> tuple["DensityMatrix", ...]:
        marginals = tuple(
            DensityMatrix(partial_trace(self.matrix, self.dims, (k,)), (d,)) for k, d in enumerate(self.dims)
        )
        for rho in marginals:
            rho.matrix.flags.writeable = False
        return marginals

    @cached_property
    def _first_moments(self) -> tuple[np.ndarray, ...]:
        """Read-only (r_A, r_B[, r_C], T), built on first use; read it through ``first_moments``."""
        n = self.n_parties
        moments = (*(bloch_vector(self.marginal(k)) for k in range(n)), _pauli_traces(self.matrix, n))
        for v in moments:
            v.flags.writeable = False
        return moments


@dataclass(frozen=True)
class QubitObservable:
    """Dichotomic +-1 observable given by a unit Bloch direction."""

    direction: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", d)
        if d.shape != (3,):
            raise ValueError("direction must be a 3-vector")
        if not np.isfinite(d).all():
            raise ValueError(f"direction must be finite, got {d}")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")

    @property
    def matrix(self) -> np.ndarray:
        n = self.direction
        return n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]


def observable(vec) -> QubitObservable:
    """Observable along ``vec``, normalized first."""
    v = np.asarray(vec, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"observable vector must be finite, got {v}")
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return QubitObservable(v / n)


@dataclass(frozen=True)
class HorodeckiResult:
    s1: float
    s2: float
    m_value: float
    admits_lhv: bool


def ket(*bits: int) -> np.ndarray:
    """Computational-basis ket over one qubit per bit."""
    v = np.array([1.0 + 0j])
    for b in bits:
        e = np.zeros(2, dtype=complex)
        e[int(b)] = 1.0
        v = np.kron(v, e)
    return v


def projector(vec: np.ndarray) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def _check_unit(x: float, name: str) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")
    return x


def singlet() -> DensityMatrix:
    psi = (ket(0, 1) - ket(1, 0)) / math.sqrt(2)
    return DensityMatrix(projector(psi))


def werner(p: float) -> DensityMatrix:
    """p-weighted singlet mixed with white noise; locally maximally mixed for all p."""
    p = _check_unit(p, "p")
    psi = (ket(0, 1) - ket(1, 0)) / math.sqrt(2)
    return DensityMatrix(p * projector(psi) + (1.0 - p) / 4.0 * np.eye(4))


def sigma_state() -> DensityMatrix:
    """0.85/0.15 mixture of (2|00> + |11>)/sqrt(5) with |01>; nontrivial marginals, no CHSH violation."""
    phi = (2 * ket(0, 0) + ket(1, 1)) / math.sqrt(5)
    return DensityMatrix(0.85 * projector(phi) + 0.15 * projector(ket(0, 1)))


def cg(theta: float, lam: float) -> DensityMatrix:
    """Mixture of cos(theta)|00> + sin(theta)|11> with |01>, weight lam on the superposition."""
    lam = _check_unit(lam, "lam")
    kth = math.cos(theta) * ket(0, 0) + math.sin(theta) * ket(1, 1)
    return DensityMatrix(lam * projector(kth) + (1.0 - lam) * projector(ket(0, 1)))


def classical(theta: float, beta: float) -> DensityMatrix:
    """Pure product state (cos(theta)|0> + e^{i beta} sin(theta)|1>) x |0>."""
    a = math.cos(theta) * ket(0) + np.exp(1j * beta) * math.sin(theta) * ket(1)
    return pure_product([a, ket(0)])


def transition(p: float) -> DensityMatrix:
    """Path from the triplet (|01> + |10>)/sqrt(2) at p=0 to the product |00> at p=1."""
    p = _check_unit(p, "p")
    psi = (ket(0, 1) + ket(1, 0)) / math.sqrt(2)
    return DensityMatrix((1.0 - p) * projector(psi) + p * projector(ket(0, 0)))


def ghz() -> DensityMatrix:
    g = (ket(0, 0, 0) + ket(1, 1, 1)) / math.sqrt(2)
    return DensityMatrix(projector(g), dims=(2, 2, 2))


def pure_product(kets) -> DensityMatrix:
    """Product state from a list of normalized single-qubit kets."""
    mats = []
    for v in kets:
        v = np.asarray(v, dtype=complex)
        if v.shape != (2,):
            raise ValueError("each factor must be a single-qubit ket")
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-10:
            raise ValueError("each factor ket must be normalized")
        mats.append(projector(v))
    if not mats:
        raise ValueError("need at least one factor")
    return DensityMatrix(kron(*mats), dims=(2,) * len(mats))


def maximally_mixed(n_parties: int = 2) -> DensityMatrix:
    d = 2**n_parties
    return DensityMatrix(np.eye(d) / d, dims=(2,) * n_parties)


_FAMILIES = {
    "singlet": (singlet, ()),
    "werner": (werner, ("p",)),
    "sigma": (sigma_state, ()),
    "cg": (cg, ("theta", "lam")),
    "classical": (classical, ("theta", "beta")),
    "transition": (transition, ("p",)),
    "ghz": (ghz, ()),
}


def _ket_from_angles(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0)])


def _pure_product_from_params(params) -> DensityMatrix:
    if "kets" in params:
        extra = set(params) - {"kets"}
        if extra:
            raise ValueError(f"unknown parameter(s) {sorted(extra)} for family 'pure_product'")
        return pure_product(params["kets"])
    kets = []
    used = set()
    for suffix in "abc":
        key = f"theta_{suffix}"
        if key not in params:
            break
        phi_key = f"phi_{suffix}"
        kets.append(_ket_from_angles(float(params[key]), float(params.get(phi_key, 0.0))))
        used.update({key, phi_key} & set(params))
    extra = set(params) - used
    if extra:
        raise ValueError(f"unknown parameter(s) {sorted(extra)} for family 'pure_product'")
    if not kets:
        raise ValueError("pure_product needs kets or theta_a[, phi_a, theta_b, ...] angles")
    return pure_product(kets)


def make_state(family: str, **params) -> DensityMatrix:
    """Build a named state family instance.

    ``cg`` accepts ``theta`` alone, in which case ``lam`` is solved on the
    fly so the settings-optimized CHSH value sits exactly at the classical
    bound. ``pure_product`` accepts explicit ``kets`` or per-party Bloch
    angles ``theta_a``/``phi_a``, ``theta_b``/``phi_b``, ...
    """
    for key, value in params.items():
        if key != "kets" and not math.isfinite(float(value)):
            raise ValueError(f"state parameter {key!r} must be finite, got {value!r}")
    if family == "pure_product":
        return _pure_product_from_params(params)
    if family not in _FAMILIES:
        raise ValueError(f"unknown state family {family!r}")
    fn, names = _FAMILIES[family]
    if family == "cg" and "lam" not in params:
        params = dict(params)
        params["lam"] = cg_lambda(params["theta"])
    extra = set(params) - set(names)
    missing = set(names) - set(params)
    if extra:
        raise ValueError(f"unknown parameter(s) {sorted(extra)} for family {family!r}")
    if missing:
        raise ValueError(f"missing parameter(s) {sorted(missing)} for family {family!r}")
    return fn(**{k: float(params[k]) for k in names})


@cache
def _pauli_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and phases of the diagonal of m P for every n-qubit Pauli string P.

    P = sigma_mu1 x ... x sigma_mun has one nonzero entry per column, so
    (m P)_ii = m_ij P_ji, where j is i XOR the string's flip mask (sigma_x
    and sigma_y flip their bit) and P_ji is the product, in Kronecker order,
    of one +-1 or +-i per bit of i. Columns and phases are (3,)*n + (2^n,).
    """
    rows = np.arange(2**n)
    shifts = np.arange(n - 1, -1, -1)
    bits = (rows >> shifts[:, None]) & 1
    mus = np.indices((3,) * n).reshape(n, -1, 1)
    cols = rows ^ (np.array([1, 1, 0])[mus] << shifts[:, None, None]).sum(axis=0)
    phase = np.array([[1, 1], [1j, -1j], [1, -1]])
    phases = phase[mus[0], bits[0]]
    for k in range(1, n):
        phases = phases * phase[mus[k], bits[k]]
    shape = (3,) * n + (2**n,)
    return rows, cols.reshape(shape), phases.reshape(shape)


def _pauli_traces(m: np.ndarray, n: int) -> np.ndarray:
    """(3,)*n table of Tr(m sigma_mu1 x ... x sigma_mun) for a 2^n x 2^n matrix m.

    Each entry gathers the 2^n nonzero diagonal products of m P and sums
    them along the last axis, in the pairwise order in which ``np.trace``
    adds a diagonal, so the table equals the explicit traces bit for bit.
    """
    rows, cols, phases = _pauli_gather(n)
    return (m[rows, cols] * phases).sum(axis=-1).real.copy()


def bloch_vector(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Pauli expectation 3-vector of a single-qubit state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("bloch_vector needs a single-qubit state")
    return _pauli_traces(m, 1)


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """3x3 table of Pauli-Pauli expectations of a two-qubit state, a writable copy of the cached T."""
    return _two_qubit_moments(rho, "correlation_matrix")[2].copy()


def first_moments(rho: DensityMatrix) -> tuple[np.ndarray, ...]:
    """Marginal Bloch vectors and Pauli correlation tensor of a two- or three-qubit state.

    (r_A, r_B, T) for two qubits and (r_A, r_B, r_C, T_ABC) for three, with
    r_k = ``bloch_vector(rho.marginal(k))`` and T_{ij...} the expectation of
    sigma_i x sigma_j x ... . Every two- and three-qubit evaluator reads
    these arrays. They are computed once per state instance, cached on it,
    and returned read-only.
    """
    if rho.dims not in ((2, 2), (2, 2, 2)):
        raise ValueError("first_moments needs a two- or three-qubit state")
    return rho._first_moments


def _two_qubit_moments(rho: DensityMatrix, caller: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_A, r_B, T) of ``rho``, which ``caller`` requires to be a two-qubit state."""
    if rho.dims != (2, 2):
        raise ValueError(f"{caller} needs a two-qubit state")
    return rho._first_moments


def horodecki(rho: DensityMatrix) -> HorodeckiResult:
    """Two largest singular values of the correlation matrix and the LHV verdict.

    The verdict is equivalent to the settings-optimized CHSH value
    2*sqrt(s1^2 + s2^2) staying at or below the classical bound 2.
    """
    sv = singular_values(_two_qubit_moments(rho, "horodecki")[2])
    s1, s2 = float(sv[0]), float(sv[1])
    m_value = math.hypot(s1, s2)
    return HorodeckiResult(s1=s1, s2=s2, m_value=m_value, admits_lhv=m_value <= 1.0 + 1e-10)


def optimized_chsh(rho: DensityMatrix) -> float:
    """Settings-optimized CHSH value, 2*sqrt(s1^2 + s2^2)."""
    return 2.0 * horodecki(rho).m_value


def _cg_chsh_gap(theta: float, lam):
    """s1^2 + s2^2 - 1 of ``cg(theta, lam)``, elementwise over an array of ``lam``.

    The correlation matrix is diag(lam s, -lam s, 2 lam - 1) with
    s = sin(2 theta), so its singular values are the absolute diagonal
    entries: s2 = lam s and s1 = max(lam s, |2 lam - 1|).
    """
    t = lam * math.sin(2.0 * theta)
    z = 2.0 * lam - 1.0
    return t * t + np.maximum(t * t, z * z) - 1.0


def cg_lambda(theta: float) -> float:
    """Mixing weight at which the optimized CHSH value of ``cg(theta, .)`` equals 2.

    The root of s1^2 + s2^2 - 1, computed from the first-moment correlation
    matrix diag(lam s, -lam s, 2 lam - 1), s = sin(2 theta), so no state is
    built and no settings optimization enters. A 401-point scan of [0, 1]
    brackets the last sign change. The bisection follows the usual
    bracketing rule step for step: halve the step and probe lo + step; move
    lo there when the gap has lo's sign (or is zero); return the probe once
    the gap is zero or the step is below ``BISECTION_TOL`` + 4 eps |probe|.
    """
    if not 0.0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    grid = np.linspace(0.0, 1.0, 401)
    vals = _cg_chsh_gap(theta, grid)
    rising = np.flatnonzero((vals[1:] > 0.0) & (vals[:-1] <= 0.0))
    if rising.size == 0:
        raise ValueError(f"no crossing of the classical CHSH bound for theta={theta}")
    i = rising[-1]
    lo, f_lo = float(grid[i]), vals[i]
    if f_lo == 0.0:
        return lo
    step = float(grid[i + 1]) - lo
    # The bracket is 1/400 wide, so this stops after about 25 halvings.
    while True:
        step *= 0.5
        mid = lo + step
        f_mid = _cg_chsh_gap(theta, mid)
        if f_mid * f_lo >= 0.0:
            lo = mid
        if f_mid == 0.0 or abs(step) < BISECTION_TOL + _BISECTION_RTOL * abs(mid):
            return mid
