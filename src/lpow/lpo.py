"""Local perception operators: project global observables onto one party's view."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HERMITICITY_TOL, dagger, kron, partial_trace
from .states import DensityMatrix, QubitObservable, first_moments

DUAL_PATH_TOL = 1e-10


@dataclass(frozen=True)
class LocalPerceivedOperator:
    """A global observable compressed to the subsystem named by ``kept``."""

    matrix: np.ndarray
    kept: int


def lpo_project(x: np.ndarray, rho: DensityMatrix, keep: int) -> LocalPerceivedOperator:
    """Trace out all parties but ``keep`` against the product of their marginals.

    For a bipartite state this is Tr_B[(I x rho_B) X] (and the mirrored
    form for keep=B); with more parties the complement factor is the tensor
    product of the complement's single-party marginals.
    """
    x = np.asarray(x, dtype=complex)
    n = rho.n_parties
    if not 0 <= keep < n:
        raise ValueError(f"keep={keep} out of range for {n} parties")
    total = rho.matrix.shape[0]
    if x.shape != (total, total):
        raise ValueError(f"operator shape {x.shape} does not match state dimension {total}")
    factors = [
        np.eye(rho.dims[k]) if k == keep else rho.marginal(k).matrix for k in range(n)
    ]
    weighted = kron(*factors) @ x if n > 1 else x
    return LocalPerceivedOperator(partial_trace(weighted, rho.dims, (keep,)), keep)


def perceived_expectation(x: np.ndarray, rho: DensityMatrix, side: int = 0) -> float:
    """Expectation of the perceived operator in the kept party's marginal.

    Equals Tr[(rho_A x rho_B x ...) X], hence the same number for every
    choice of ``side``.
    """
    x = np.asarray(x, dtype=complex)
    if np.abs(x - dagger(x)).max() > HERMITICITY_TOL:
        raise ValueError("perceived_expectation requires a Hermitian operator")
    local = lpo_project(x, rho, side)
    return float(np.trace(rho.marginal(side).matrix @ local.matrix).real)


def lpo_correlator(ax: QubitObservable, by: QubitObservable, rho: DensityMatrix) -> float:
    """Perceived two-party correlator a_x * b_y * C_xy.

    Evaluated both from Bloch data and from the explicit perceived-operator
    product Tr[rho (X)^A x (X)^B]; the two paths must agree.
    """
    if rho.dims != (2, 2):
        raise ValueError("lpo_correlator needs a two-qubit state")
    r_a, r_b, t = first_moments(rho)
    a = float(r_a @ ax.direction)
    b = float(r_b @ by.direction)
    c = float(ax.direction @ t @ by.direction)
    value = a * b * c

    x = kron(ax.matrix, by.matrix)
    xa = lpo_project(x, rho, 0).matrix
    xb = lpo_project(x, rho, 1).matrix
    explicit = float(np.trace(rho.matrix @ kron(xa, xb)).real)
    if abs(value - explicit) > DUAL_PATH_TOL:
        raise ArithmeticError(
            f"perceived-correlator paths disagree: {value!r} vs {explicit!r}"
        )
    return value
