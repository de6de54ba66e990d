"""Complex dense linear algebra kernel shared by the other modules.

Everything here is a pure function of its inputs; matrices are plain
``numpy.ndarray`` of complex128 and are never mutated.
"""

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError


def _as_finite(a, ndim, name):
    """Validate and return a non-empty, finite complex array of ``ndim`` dimensions."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != ndim:
        raise DimensionMismatchError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionMismatchError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name="matrix"):
    """Validate and return a 2-D finite complex array."""
    return _as_finite(a, 2, name)


def as_vector(v, name="vector"):
    """Validate and return a 1-D finite complex array."""
    return _as_finite(v, 1, name)


def dft_matrix(n):
    """Unitary n x n spatial DFT basis.

    Entry (p, q) is exp(2j*pi*p*q/n)/sqrt(n) for 0-based p, q.  The +j sign
    makes a phase ramp exp(+j*k*u) concentrate in the column whose grid value
    2*pi*q/n is wrap-nearest to u, matching :func:`ris_crlb.channel.dominant_bin`.
    """
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


# the widest spread lambda_max / lambda_min (lambda = s^2) of G = A^H A trusted for A's SVD:
# rounding moves G by about m eps lambda_max, so below it lambda and G^-1 c keep about
# cond m eps relative accuracy, and lambda_min is far above the svd_rank cutoff
GRAM_COND = 1e6


def kron_gram(outer, reps, cols):
    """Blocks G_J of G = kron(outer, I_reps) for ``outer`` (R, p, p): entry (a, b) is
    (i_a == i_b) outer[j_a, j_b], (j, i) = divmod(col, reps).  ``cols`` (R, ..., l) gives
    the (R, ..., l, l) stack; a leading axis of 1 gives every matrix the same sets."""
    j, i = np.divmod(cols, reps)
    r = np.arange(len(outer)).reshape((-1,) + (1,) * cols.ndim)
    blocks = outer[r, j[..., :, None], j[..., None, :]]
    return np.where(i[..., :, None] == i[..., None, :], blocks, 0)


def gram_solve(g, columns, c=None, y=None):
    """tr(G^-1), numeric rank and, given c = A^H y, the fit G^-1 c of each A (m, l) of a
    stack from its Gram matrix G = A^H A (``g``, (T, l, l)), by stacked ``eigvalsh``
    (lambda = s^2) and ``solve``.  Rows with lambda_max >= GRAM_COND lambda_min (a
    singular G too; ``solve`` sees I there) take s, the :func:`svd_rank` and the lstsq
    fit of their columns ``columns(rows)`` and ``y[rows]``, so every rank is the SVD's.
    The trace and fit are meaningless where the rank falls short of l."""
    lam = np.linalg.eigvalsh(g)
    rank, band = np.full(len(g), g.shape[-1]), ~(lam[:, 0] * GRAM_COND > lam[:, -1])
    x = None if c is None else np.linalg.solve(
        np.where(band[:, None, None], np.eye(g.shape[-1]), g), c[..., None]
    )[..., 0]
    if band.any():
        a = columns(np.flatnonzero(band))
        s = np.linalg.svd(a, compute_uv=False)  # m < l: the missing s are 0
        lam[band] = np.pad(s[:, ::-1] ** 2, ((0, 0), (lam.shape[1] - s.shape[1], 0)))
        rank[band] = svd_rank(s, a.shape)
        if c is not None:
            x[band] = [np.linalg.lstsq(ab, yb, rcond=None)[0] for ab, yb in zip(a, y[band])]
    with np.errstate(divide="ignore"):
        return np.sum(1.0 / lam, axis=-1), rank, x


def numeric_rank(a):
    """Number of singular values above the standard SVD-based cutoff of :func:`svd_rank`."""
    a = as_matrix(a)
    return svd_rank(np.linalg.svd(a, compute_uv=False), a.shape)


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
    sol, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
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
