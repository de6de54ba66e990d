"""Frozen SVD and lstsq forms of the one-problem functions.

A verbatim copy of the ``svd_rank``, ``numeric_rank`` and ``least_squares``
that ``ris_crlb.numerics`` held, and of the ``typicality_statistic``,
``genie_ls`` and ``crlb`` that ``ris_crlb.estimator`` held, before each became
the single-problem case of the Gram-domain core (``numerics.gram_solve`` and
the search's tables).  Their rank rule is the SVD's own cutoff, max(m, n) eps
s_max, not ``numerics.full_rank``.  The tests use them as a reference that
shares no solver with the code they check.

It also holds the reference subset search: :func:`literal_search`, the SVD
statistic of every subset in lexicographic order, and the contract
(:func:`assert_oracle_contract`) that the Gram-domain search must meet against
it, where rounding may decide a subset either way.
"""

import math
from itertools import combinations

import numpy as np

from ris_crlb import estimator as est
from ris_crlb.errors import DimensionMismatchError, RankDeficientError
from ris_crlb.numerics import GRAM_COND, as_matrix, as_vector


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


# subsets whose SVDs the oracle stacks in one call
CHUNK = 512


def subset_statistics(y, mat, noise_var, subsets):
    """:func:`typicality_statistic` of the columns ``subsets`` (N, l) of ``mat``, nan where
    their :func:`svd_rank` is below l, with the same bits: one stacked SVD makes the
    same LAPACK call per matrix as a single one."""
    m, l = len(y), subsets.shape[1]
    sub = mat.T[subsets].swapaxes(-1, -2)
    basis, s, _ = np.linalg.svd(sub, full_matrices=False)
    residual = np.vdot(y, y).real - np.sum(np.abs(basis.conj().swapaxes(-1, -2) @ y) ** 2, axis=-1)
    stat = np.abs(np.maximum(residual, 0.0) / m - (m - l) / m * noise_var)
    return np.where(svd_rank(s, sub.shape) < l, np.nan, stat)


def gram_tolerance(y, sub, noise_var):
    """How far the search's Gram-domain statistic of the columns ``sub`` (m, l), or of
    each of a stack of them, may lie from the SVD statistic: 1024 eps cond (||y||^2 +
    sigma^2), cond = tr(G)^l / det(G) >= lambda_max / lambda_min of G = sub^H sub (inf
    unless G is positive definite).  LDL^H is backward stable on a positive definite G
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 10.1), so its energy,
    like the SVD projection's, misses the exact one by a few l eps cond ||y||^2."""
    lam = np.linalg.eigvalsh(sub.conj().swapaxes(-1, -2) @ sub)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = np.where(
            lam[..., 0] > 0, np.sum(lam, axis=-1) ** lam.shape[-1] / np.prod(lam, axis=-1), np.inf
        )
    return 1024.0 * np.finfo(np.float64).eps * cond * (np.vdot(y, y).real + abs(noise_var))


def svd_candidates(y, mat, noise_var, l, count=None, stats=()):
    """The first ``count`` (all by default) l-subsets of ``mat``'s columns in lexicographic
    order as (subset, SVD statistic, nan where its svd_rank < l, :func:`gram_tolerance`,
    cond(G_J) >= GRAM_COND), taken :data:`CHUNK` subsets at a time.  The SVD statistics
    are read from ``stats`` where it holds them, as :func:`literal_search` records them."""
    subsets = np.array(list(combinations(range(mat.shape[1]), l))[:count]).reshape(-1, l)
    out = []
    for at in range(0, len(subsets), CHUNK):
        part = subsets[at:at + CHUNK]
        sub = mat.T[part].swapaxes(-1, -2)
        lam = np.linalg.eigvalsh(sub.conj().swapaxes(-1, -2) @ sub)
        ill = lam[:, -1] >= GRAM_COND * lam[:, 0]
        known = at + len(part) <= len(stats)
        svd = stats[at:at + len(part)] if known else subset_statistics(y, mat, noise_var, part)
        out += zip(
            map(tuple, part.tolist()), np.asarray(svd).tolist(),
            gram_tolerance(y, sub, noise_var).tolist(), ill.tolist(),
        )
    return out


def literal_search(y, mat, cfg, noise_var, stats=None):
    """Reference search: the SVD statistic of every subset, in lexicographic order.

    Returns (support, statistic, subsets_examined) as jt_estimate reports them.  The
    statistics are taken :data:`CHUNK` subsets at a time (:func:`subset_statistics`), so
    a ``lexicographic_first`` search stops in the chunk of its first typical subset;
    ``stats``, a list where given, takes those of every chunk read, in order.
    """
    l = cfg.sparsity
    delta = cfg.delta if cfg.delta is not None else est.default_delta(noise_var, len(y), l)
    best, examined, subsets = None, 0, combinations(range(mat.shape[1]), l)
    while block := list(zip(range(CHUNK), subsets)):
        cands = [cand for _, cand in block]
        chunk = subset_statistics(y, mat, noise_var, np.array(cands))
        if stats is not None:
            stats.extend(chunk.tolist())
        for cand, stat in zip(cands, chunk):
            examined += 1
            if math.isnan(stat) or stat >= delta:  # nan: not full rank
                continue
            if cfg.search_order == est.LEXICOGRAPHIC_FIRST:
                return cand, float(stat), examined
            if best is None or stat < best[0]:
                best = (float(stat), cand)
    return (best[1], best[0], examined) if best else ((), math.inf, examined)


def search_triples(support, stat, examined):
    """jt_search's arrays as one (support, statistic, subsets_examined) triple per problem,
    as :func:`literal_search` gives them: support () where its row is -1."""
    return [
        (tuple(s) if s[0] >= 0 else (), v, e)
        for s, v, e in zip(support.tolist(), stat.tolist(), examined.tolist())
    ]


def assert_oracle_contract(got, y, mat, cfg, noise_var, want=None, stats=()):
    """A (support, statistic, subsets_examined) triple of the Gram-domain search against
    the SVD statistic of every subset.  A subset is surely typical where its cond(G_J) <
    GRAM_COND and its SVD statistic is below delta by more than its tolerance, surely not
    where it is above delta by more; the rest may go either way.  The support must not be
    surely atypical, and its statistic lie within its tolerance of the SVD one; under
    ``lexicographic_first`` no surely typical subset may come before it, under
    ``best_statistic`` none have an SVD statistic below its own by more than the two
    tolerances (a tie).  Returns whether the triple's support and count equal
    :func:`literal_search`'s, or those of ``want``, its result where already taken, with
    its statistics ``stats``."""
    l = cfg.sparsity
    delta = cfg.delta if cfg.delta is not None else est.default_delta(noise_var, len(y), l)
    support, stat, examined = got
    total, first = math.comb(mat.shape[1], l), cfg.search_order == est.LEXICOGRAPHIC_FIRST
    # lexicographic_first reads the subsets up to its support's
    count = min(examined, total) if first and support else total
    cands = svd_candidates(y, mat, noise_var, l, count, stats)
    sure = [not ill and svd_stat + tol < delta for _, svd_stat, tol, ill in cands]
    at = [c for c, *_ in cands].index(support) if support else len(cands)
    if support:
        _, svd_stat, tol, ill = cands[at]
        assert ill or svd_stat - tol < delta, support
        assert abs(stat - svd_stat) <= tol, support
    else:
        assert math.isinf(stat)
    if first:
        assert not any(sure[:at]) and examined == min(at + 1, total)
    else:
        assert examined == total
        for (_, other, other_tol, _), surely in zip(cands, sure):
            assert not surely or support and svd_stat <= other + tol + other_tol
    want = want or literal_search(y, mat, cfg, noise_var)
    return (support, examined) == (want[0], want[2])
