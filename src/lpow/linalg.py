"""Dense complex linear algebra over explicitly factorized tensor-product spaces."""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_EIG_FLOOR = -1e-10

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.abs(m - dagger(m)).max() <= tol)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor outermost."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def partial_trace(m: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    The matrix is viewed as a tensor with one row and one column axis per
    subsystem, so the routine works for any subsystem dimensions and any
    subset of kept parties (order of ``keep`` is normalized to ascending,
    matching the tensor-factor convention). The kept axes move first, and a
    contiguous copy of the traced block's diagonal is summed along its last
    axis, which adds each entry's terms in numpy's pairwise order.
    """
    m = np.asarray(m, dtype=complex)
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match factorization {dims}")
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep {keep} out of range for {len(dims)} subsystems")
    axes = keep + tuple(i for i in range(len(dims)) if i not in keep)
    kept = math.prod(dims[i] for i in keep)
    blocks = m.reshape(*dims, *dims).transpose(*axes, *(len(dims) + i for i in axes))
    blocks = blocks.reshape(kept, total // kept, kept, total // kept)
    return np.ascontiguousarray(np.diagonal(blocks, axis1=1, axis2=3)).sum(axis=-1)


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)
