"""Local perception operators: project global observables onto one party's view."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import kron, partial_trace
from .states import DensityMatrix, QubitObservable, _two_qubit_moments


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


def lpo_correlator(ax: QubitObservable, by: QubitObservable, rho: DensityMatrix) -> float:
    """Perceived two-party correlator a_x * b_y * C_xy.

    The perceived product Tr[rho (X)^A x (X)^B] of X = ax x by, read off the
    first moments: a_x = u.r_A, b_y = v.r_B and C_xy = u^T T v for the
    directions u of ``ax`` and v of ``by``.
    """
    r_a, r_b, t = _two_qubit_moments(rho, "lpo_correlator")
    a = float(r_a @ ax.direction)
    b = float(r_b @ by.direction)
    c = float(ax.direction @ t @ by.direction)
    return a * b * c
