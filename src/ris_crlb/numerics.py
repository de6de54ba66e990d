"""Complex dense linear algebra kernel shared by the other modules.

Everything here is a pure function of its inputs; matrices are plain
``numpy.ndarray`` of complex128 and are never mutated.  Rank has one rule,
:func:`full_rank` of a Gram matrix, and fits and traces one solver,
:func:`gram_solve`: the one-problem functions are its single-problem case, so
they fail exactly where a sweep's trial would.  Nothing here runs an SVD.
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
        raise DimensionMismatchError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


# the widest spread lambda_max / lambda_min of a Gram matrix G = A^H A (lambda = s^2 of A)
# whose A counts as full column rank: rounding moves G by about m eps lambda_max, so below
# it lambda and G^-1 c keep about cond m eps relative accuracy
GRAM_COND = 1e6


def full_rank(lam):
    """The sweep's one rank rule: whether each Gram matrix of a stack, of ascending eigenvalues
    ``lam`` (..., l), has lambda_max < GRAM_COND lambda_min (not where singular or indefinite)."""
    return lam[..., 0] * GRAM_COND > lam[..., -1]


def rows_of(stack, rows):
    """``stack[rows]`` for ascending ``rows``: the stack itself, no copy, where they are all."""
    return stack if len(rows) == len(stack) else stack[rows]


def kron_gram(outer, reps, cols):
    """Blocks G_J of G = kron(outer, I_reps) for ``outer`` (R, p, p): entry (a, b) is
    (i_a == i_b) outer[j_a, j_b], (j, i) = divmod(col, reps).  ``cols`` (R, ..., l) gives
    the (R, ..., l, l) stack; a leading axis of 1 gives every matrix the same sets."""
    j, i = np.divmod(cols, reps)
    r = np.arange(len(outer)).reshape((-1,) + (1,) * cols.ndim)
    blocks = outer[r, j[..., :, None], j[..., None, :]]
    return np.where(i[..., :, None] == i[..., None, :], blocks, 0)


def gram_solve(g, c=None):
    """tr(G^-1), full rank (:func:`full_rank`) and, given c = A^H y, the fit G^-1 c of
    each A of a stack from its Gram matrix G = A^H A (``g``, (T, l, l)), by stacked
    ``eigvalsh`` and ``solve``.  The trace and fit are meaningless where G is not full
    rank (``solve`` sees I there)."""
    lam = np.linalg.eigvalsh(g)
    full = full_rank(lam)
    x = None if c is None else np.linalg.solve(
        np.where(full[:, None, None], g, np.eye(g.shape[-1])), c[..., None]
    )[..., 0]
    with np.errstate(divide="ignore"):
        return np.sum(1.0 / lam, axis=-1), full, x


def fit_columns(outer, reps, cols, corr=None):
    """:func:`gram_solve` of each problem's G_S, the columns ``cols`` (R, s) of kron(outer[r],
    I_reps), and given ``corr`` (R, n) = Upsilon^H y, of its c_S: every fit of the block core."""
    c = None if corr is None else np.take_along_axis(corr, cols, axis=1)
    return gram_solve(kron_gram(outer, reps, cols), c)


def solve_one(a, y=None):
    """:func:`gram_solve` of one matrix ``a``: tr((a^H a)^-1) and, given ``y``, the fit
    (a^H a)^-1 a^H y; raises :class:`RankDeficientError` where :func:`full_rank` rejects
    a^H a."""
    herm = a.conj().T
    c = None if y is None else (herm @ y)[None]
    (trace,), (full,), x = gram_solve((herm @ a)[None], c)
    if not full:
        raise RankDeficientError(f"matrix of shape {a.shape} is not of full column rank")
    return trace, None if x is None else x[0]


def least_squares(a, y):
    """Minimizer of ||y - a v||^2 for a full-column-rank a, by :func:`solve_one`."""
    a = as_matrix(a, "a")
    y = as_vector(y, "y")
    if y.shape[0] != a.shape[0]:
        raise DimensionMismatchError(f"y has length {y.shape[0]}, expected {a.shape[0]}")
    return solve_one(a, y)[1]


def projector_complement(a):
    """Orthogonal projector onto the complement of the column space of ``a``.

    Returns I - a (a^H a)^-1 a^H, computed as I - Q Q^H from a reduced QR so
    no Gram inverse is formed.  Idempotent and Hermitian; annihilates ``a``.
    Raises :class:`RankDeficientError` where :func:`full_rank` rejects a^H a.
    """
    a = as_matrix(a, "a")
    solve_one(a)  # raises where a^H a is not full rank
    q, _ = np.linalg.qr(a, mode="reduced")
    return np.eye(a.shape[0], dtype=np.complex128) - q @ q.conj().T
