"""Reference computations made apart from lpow, used to check its outputs.

Everything here is plain numpy on first moments: the marginal Bloch vectors
r_A, r_B and the correlation matrix T of a two-qubit state, taken by Pauli
traces of a 4x4 density matrix or from closed forms for the swept families.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
I2 = np.eye(2, dtype=complex)

CHSH_ALPHA = np.array([[1.0, 1.0], [1.0, -1.0]])
C3322_ALPHA = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [1.0, -1.0, 0.0]])
C3322_BETA = np.array([1.0, 1.0, 0.0])
C3322_GAMMA = np.array([-1.0, -1.0, 0.0])


def pauli_moments(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_A, r_B, T) of a 4x4 two-qubit density matrix by explicit traces."""
    m = np.asarray(matrix, dtype=complex)
    r_a = np.array([np.trace(m @ np.kron(p, I2)).real for p in PAULI])
    r_b = np.array([np.trace(m @ np.kron(I2, p)).real for p in PAULI])
    t = np.array([[np.trace(m @ np.kron(p, q)).real for q in PAULI] for p in PAULI])
    return r_a, r_b, t


def m_value(t: np.ndarray) -> float:
    """sqrt(s1^2 + s2^2) from the two largest singular values of T."""
    s = np.linalg.svd(t, compute_uv=False)
    return math.hypot(float(s[0]), float(s[1]))


def transition_moments(p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1-p) triplet + p |00>: r_A = r_B = (0, 0, p), T = diag(1-p, 1-p, 2p-1)."""
    r = np.array([0.0, 0.0, p])
    return r, r.copy(), np.diag([1.0 - p, 1.0 - p, 2.0 * p - 1.0])


def cg_moments(theta: float, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam (cos|00> + sin|11>) + (1-lam) |01>: T = diag(lam s, -lam s, 2 lam - 1), s = sin 2theta."""
    s = math.sin(2.0 * theta)
    c = math.cos(2.0 * theta)
    r_a = np.array([0.0, 0.0, lam * c + (1.0 - lam)])
    r_b = np.array([0.0, 0.0, lam * c - (1.0 - lam)])
    return r_a, r_b, np.diag([lam * s, -lam * s, 2.0 * lam - 1.0])


def cg_lambda(theta: float) -> float:
    """Largest lam in (0, 1] with s1^2 + s2^2 = 1 for the cg family, in closed form.

    With s = sin 2theta the singular values are lam*s (twice) and |2 lam - 1|.
    If lam*s is the second largest, 2 lam^2 s^2 = 1; otherwise
    lam^2 s^2 + (2 lam - 1)^2 = 1, whose non-zero root is 4 / (s^2 + 4).
    """
    s = abs(math.sin(2.0 * theta))
    roots = []
    both_transverse = 1.0 / (math.sqrt(2.0) * s)
    if both_transverse <= 1.0 and both_transverse * s >= abs(2.0 * both_transverse - 1.0):
        roots.append(both_transverse)
    with_z = 4.0 / (s * s + 4.0)
    if abs(2.0 * with_z - 1.0) >= with_z * s:
        roots.append(with_z)
    if not roots:
        raise ValueError(f"no CHSH-bound crossing for theta={theta}")
    return max(roots)


def directions(*vectors) -> np.ndarray:
    return np.array([np.asarray(v, dtype=float) for v in vectors])


def chsh_directions() -> tuple[np.ndarray, np.ndarray]:
    """Canonical CHSH settings: x, z for A and (x +- z)/sqrt2 for B."""
    s = 1.0 / math.sqrt(2.0)
    return directions((1, 0, 0), (0, 0, 1)), directions((s, 0, s), (s, 0, -s))


def planar_3322_directions() -> tuple[np.ndarray, np.ndarray]:
    """Coplanar x-z settings at polar angles +-acos(sqrt(7/8)) / +-acos(sqrt(2/3)) and -+pi/2."""
    eta = math.acos(math.sqrt(7.0 / 8.0))
    zeta = math.acos(math.sqrt(2.0 / 3.0))

    def planar(angle: float) -> tuple[float, float, float]:
        return (math.sin(angle), 0.0, math.cos(angle))

    return (
        directions(planar(eta), planar(-eta), planar(-math.pi / 2.0)),
        directions(planar(-zeta), planar(zeta), planar(math.pi / 2.0)),
    )


def all_z_directions(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    z = (0.0, 0.0, 1.0)
    return directions(*[z] * m), directions(*[z] * n)


def one_sided_value(alpha, beta, gamma, r_a, r_b, t, a_dirs, b_dirs) -> float:
    """Bell value at fixed settings: sum alpha a_x^T T b_y + sum beta a_x.r_A + sum gamma b_y.r_B."""
    return float(
        (alpha * (a_dirs @ t @ b_dirs.T)).sum() + beta @ (a_dirs @ r_a) + gamma @ (b_dirs @ r_b)
    )


def two_sided_value(alpha, beta, gamma, r_a, r_b, t, a_dirs, b_dirs) -> float:
    """Perceived two-sided value sum alpha (a.r_A)(b.r_B)(a^T T b) + sum beta (a.r_A)^2 + sum gamma (b.r_B)^2."""
    a = a_dirs @ r_a
    b = b_dirs @ r_b
    c = a_dirs @ t @ b_dirs.T
    return float((alpha * np.outer(a, b) * c).sum() + beta @ a**2 + gamma @ b**2)


def two_sided_by_traces(matrix, alpha, beta, gamma, a_dirs, b_dirs) -> float:
    """The same two-sided value from explicit traces of the 4x4 state.

    Each term uses the means Tr[rho (A x I)], Tr[rho (I x B)] and the
    correlator Tr[rho (A x B)] of the observables A = a.sigma, B = b.sigma.
    """
    m = np.asarray(matrix, dtype=complex)
    obs_a = [np.einsum("i,ijk->jk", d, PAULI) for d in a_dirs]
    obs_b = [np.einsum("i,ijk->jk", d, PAULI) for d in b_dirs]
    a = np.array([np.trace(m @ np.kron(o, I2)).real for o in obs_a])
    b = np.array([np.trace(m @ np.kron(I2, o)).real for o in obs_b])
    c = np.array([[np.trace(m @ np.kron(oa, ob)).real for ob in obs_b] for oa in obs_a])
    return float((alpha * np.outer(a, b) * c).sum() + beta @ a**2 + gamma @ b**2)


def i2222_lpo_tilde(r_a, r_b, t) -> float:
    """Half the two-sided CHSH value at the canonical settings."""
    zeros = np.zeros(2)
    a_dirs, b_dirs = chsh_directions()
    return 0.5 * two_sided_value(CHSH_ALPHA, zeros, zeros, r_a, r_b, t, a_dirs, b_dirs)


def i3322_window(r_a, r_b, t) -> tuple[float, float]:
    """(floor, cap) for the normalized optimized 3-setting value c3322 / 4.

    The floor is the better of two fixed settings (planar and all-z); the cap
    is (sum|alpha| s1 + sum|beta| |r_A| + sum|gamma| |r_B|) / 4, since every
    a^T T b is at most s1 and every a.r_A at most |r_A|.
    """
    fixed = [
        one_sided_value(C3322_ALPHA, C3322_BETA, C3322_GAMMA, r_a, r_b, t, *dirs)
        for dirs in (planar_3322_directions(), all_z_directions(3, 3))
    ]
    s1 = float(np.linalg.svd(t, compute_uv=False)[0])
    cap = (
        np.abs(C3322_ALPHA).sum() * s1
        + np.abs(C3322_BETA).sum() * np.linalg.norm(r_a)
        + np.abs(C3322_GAMMA).sum() * np.linalg.norm(r_b)
    )
    return max(fixed) / 4.0, float(cap) / 4.0


def s_chsh_lpo_window_transition(p: float) -> tuple[float, float]:
    """[max(0, 2p^2(2p-1)), 4p^2]: all-z settings give the floor, |r_A||r_B| sum|alpha| the cap."""
    return max(0.0, 2.0 * p * p * (2.0 * p - 1.0)), 4.0 * p * p
