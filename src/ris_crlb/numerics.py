"""Complex dense linear algebra kernel shared by the other modules.

Everything here is a pure function of its inputs; matrices are plain
``numpy.ndarray`` of complex128 and are never mutated.
"""

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, RankDeficientError


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D finite complex array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name="vector"):
    """Validate and return a 1-D finite complex array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dft_matrix(n):
    """Unitary n x n spatial DFT basis.

    Entry (p, q) is exp(2j*pi*p*q/n)/sqrt(n) for 0-based p, q.  The +j sign
    makes a phase ramp exp(+j*k*u) concentrate in the column whose grid value
    2*pi*q/n is wrap-nearest to u, matching :func:`ris_crlb.channel.dominant_bin`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def kron(a, b):
    """Kronecker product of two non-empty complex matrices."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def vec(m):
    """Column-stacking vectorization, vec(M), of a matrix or of each matrix of a stack."""
    m = np.asarray(m)
    return m.swapaxes(-1, -2).reshape(m.shape[:-2] + (-1,))


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for a rows x cols matrix."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise DimensionMismatchError(
            f"cannot unvec length {v.size} into {rows}x{cols}"
        )
    return v.reshape((rows, cols), order="F")


def svd_rank(s, shape):
    """Numeric rank of a matrix of ``shape`` from its descending singular values.

    Counts the singular values above max(rows, cols) * eps * largest singular
    value, the standard SVD-based cutoff.  For a stack of matrices, ``s`` is
    (..., min(rows, cols)) and ``shape`` ends in (rows, cols); the ranks come
    back as an array of the stack's shape.
    """
    tol = max(shape[-2:]) * np.finfo(np.float64).eps * (s[..., :1] if s.shape[-1] else 0.0)
    rank = np.count_nonzero(s > tol, axis=-1)
    return int(rank) if s.ndim == 1 else rank


def numeric_rank(a):
    """Number of singular values above the standard SVD-based cutoff of :func:`svd_rank`."""
    a = as_matrix(a)
    return svd_rank(np.linalg.svd(a, compute_uv=False), a.shape)


def _raise_lstsq(_err, _flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def least_squares_stack(a, y):
    """Solutions (..., n) and numeric ranks of min ||y - a v|| for a stack of
    complex a (..., m, n) and y (..., m): per matrix, the gufunc, cutoff
    eps * max(m, n) and error state that ``np.linalg.lstsq(a, y, rcond=None)`` uses."""
    m, n = a.shape[-2:]
    with np.errstate(all="ignore", invalid="call", call=_raise_lstsq):
        x, _, rank, _ = _umath_linalg.lstsq(a, y[..., None], np.finfo(np.float64).eps * max(m, n))
    return x[..., 0], rank


def least_squares(a, y):
    """Minimizer of ||y - a v||^2 for a full-column-rank a.

    Solved through an orthogonal (SVD) decomposition rather than normal
    equations; raises :class:`RankDeficientError` when the numeric rank of
    ``a`` falls below its column count.
    """
    a = as_matrix(a, "a")
    y = as_vector(y, "y")
    if y.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"y has length {y.shape[0]}, expected {a.shape[0]}"
        )
    sol, rank = least_squares_stack(a, y)
    if rank < a.shape[1]:
        raise RankDeficientError(
            f"matrix has numeric rank {rank} < {a.shape[1]} columns"
        )
    return sol


def projector_complement(a):
    """Orthogonal projector onto the complement of the column space of ``a``.

    Returns I - a (a^H a)^-1 a^H, computed as I - Q Q^H from a reduced QR so
    no Gram inverse is formed.  Idempotent and Hermitian; annihilates ``a``.
    """
    a = as_matrix(a, "a")
    if numeric_rank(a) < a.shape[1]:
        raise RankDeficientError(
            f"matrix of shape {a.shape} is numerically rank deficient"
        )
    q, _ = np.linalg.qr(a, mode="reduced")
    return np.eye(a.shape[0], dtype=np.complex128) - q @ q.conj().T
