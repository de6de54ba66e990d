"""Frozen SVD and lstsq forms of the one-problem functions.

A verbatim copy of the ``svd_rank``, ``numeric_rank`` and ``least_squares``
that ``ris_crlb.numerics`` held, and of the ``typicality_statistic``,
``genie_ls`` and ``crlb`` that ``ris_crlb.estimator`` held, before each became
the single-problem case of the Gram-domain core (``numerics.gram_solve`` and
the search's tables).  Their rank rule is the SVD's own cutoff, max(m, n) eps
s_max, not ``numerics.full_rank``.  The tests use them as a reference that
shares no solver with the code they check.
"""

import numpy as np

from ris_crlb.errors import DimensionMismatchError, RankDeficientError
from ris_crlb.numerics import as_matrix, as_vector


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


def typicality_statistic(y, sub, noise_var, l):
    """Absolute deviation of the projected residual energy from the noise level.

    Returns |(1/m)||P^perp y||^2 - ((m - l)/m) sigma^2| with m = len(y),
    projecting through an SVD basis of the column span.  Raises
    RankDeficientError when the :func:`numerics.svd_rank` of ``sub`` is below
    l.  This is the SVD reference of the Gram-domain statistic that the
    search in :func:`jt_estimate` decides by (see the module docstring).
    """
    y = as_vector(y, "y")
    sub = as_matrix(sub, "sub")
    m = y.shape[0]
    if sub.shape != (m, l):
        raise DimensionMismatchError(f"sub has shape {sub.shape}, expected {(m, l)}")
    basis, s, _ = np.linalg.svd(sub, full_matrices=False)
    if (rank := svd_rank(s, sub.shape)) < l:
        raise RankDeficientError(f"submatrix rank {rank} < {l}")
    residual = max(np.vdot(y, y).real - np.sum(np.abs(basis.conj().T @ y) ** 2), 0.0)
    return float(abs(residual / m - (m - l) / m * noise_var))


def genie_ls(y, upsilon_mat, support):
    """Least squares restricted to a known support, zeros elsewhere."""
    y = as_vector(y, "y")
    upsilon_mat = as_matrix(upsilon_mat, "upsilon_mat")
    idx = list(support)
    estimate = np.zeros(upsilon_mat.shape[1], dtype=np.complex128)
    estimate[idx] = least_squares(upsilon_mat[:, idx], y)
    return estimate


def crlb(upsilon_mat, support, noise_var):
    """Estimation-error floor sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1].

    From the singular values of the support submatrix: the SVD reference of
    the sweep's Gram-domain CRLB (``numerics.gram_solve``).
    """
    sub = as_matrix(upsilon_mat, "upsilon_mat")[:, list(support)]
    s = np.linalg.svd(sub, compute_uv=False)
    if svd_rank(s, sub.shape) < sub.shape[1]:
        raise RankDeficientError("support submatrix is rank deficient")
    return float(noise_var * np.sum(1.0 / s**2))
