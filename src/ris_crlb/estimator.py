"""Sparse recovery of the angular-domain cascade channel.

The main estimator declares a candidate support J of size L jointly typical
with the observation y when the submatrix Upsilon_J has full column rank and
the residual energy after projecting out its span sits within delta of the
noise-only level:

    | (1/m) ||P_J^perp y||^2 - ((m - L)/m) sigma^2 | < delta,   m = K*n_s.

The estimator scans all L-subsets; if none is typical it outputs the zero
vector.  With c = Upsilon^H y and G = Upsilon^H Upsilon formed once, the
projected energy ||P_J y||^2 of every candidate is c_J^H G_J^-1 c_J.  In
G = kron(conj(X) X^T, I_ns) a column (j, i) = divmod(col, n_s) is orthogonal
to those of other i, so G_J is block-diagonal over J's blocks, its columns of
one i.  Each problem's tables therefore eliminate, as LDL^H, the outer_S of
every set S of pilot rows that a block can hold, once, with the right-hand
sides c_{S,i}; a subset's energy is the sum of its columns' pivot terms
|c'|^2 / d in column order.  Where every pivot is nonzero that is the
arithmetic of an LDL^H of the whole G_J, bit for bit: its eliminations across
blocks subtract exact zeros.  A subset is typical where that statistic is
below delta and G_J is full rank by ``numerics.full_rank`` of its eigenvalues
(lambda_max < GRAM_COND lambda_min), the one rank rule of the package and of
every fit (``numerics.gram_solve``); only a subset below delta takes them.  A
computed zero pivot makes G_J singular to rounding, which that rule rejects,
so no decision reads such a subset's statistic.  No SVD and no column of
Upsilon is needed.  The one-problem functions,
:func:`typicality_statistic`, :func:`genie_ls` and :func:`crlb`, are the
single-problem case of the same tables and solver, so each raises
``RankDeficientError`` exactly where a sweep's trial fails.

Known-support least squares (the genie) attains the CRLB
sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1] in expectation, and the analytic
mean-squared-error upper bound adds two exponentially small penalty terms
for missing the true support and for accepting a wrong one.  The orthogonal
matching pursuit baseline works from the same G and c: its residual
correlations are c - G v.  So every estimator of a sweep reads only G, c and,
for JT, ||y||^2, and every fit G_S^-1 c_S is ``numerics.fit_columns``.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError
from .numerics import (
    as_matrix, as_vector, fit_columns, full_rank, kron_gram, least_squares, rows_of, solve_one,
)

LEXICOGRAPHIC_FIRST = "lexicographic_first"
BEST_STATISTIC = "best_statistic"

# (problem, subset) pairs scored per pass of the search, which bounds its scratch
_SCAN_BLOCK = 4096


@dataclass(frozen=True)
class TypicalityConfig:
    """Threshold, sparsity level, and search behaviour of the subset scan.

    ``delta=None`` selects the default threshold of four standard deviations
    of the centered residual statistic under the true support,
    4 sigma^2 sqrt(m - L) / m.  That default degenerates to zero in the
    noiseless limit, so pass an explicit delta there.
    """

    delta: float | None
    sparsity: int
    search_order: str = LEXICOGRAPHIC_FIRST
    max_subsets: int = 10_000_000

    def __post_init__(self):
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.max_subsets < 1:
            raise ValueError(f"max_subsets must be >= 1, got {self.max_subsets!r}")
        if self.search_order not in (LEXICOGRAPHIC_FIRST, BEST_STATISTIC):
            raise ValueError(f"unknown search order {self.search_order!r}")

    def threshold(self, noise_var, kns, l):
        """The override ``delta`` as it is, else :func:`default_delta` of ``noise_var``
        (a float or an array) for support size ``l`` among ``kns`` observations, nan
        where kns <= l: the one home of the choice for the search and the bound."""
        if self.delta is not None:
            return self.delta
        return default_delta(noise_var, kns, l) if kns > l else math.nan


@dataclass
class EstimateResult:
    """Outcome of one recovery attempt.

    ``failed`` marks the no-typical-set event in which the estimator falls
    back to the zero vector (support empty, statistic inf).
    """

    support: tuple
    upsilon_hat: np.ndarray
    statistic: float
    subsets_examined: int
    failed: bool


def default_delta(noise_var, kns, sparsity):
    """Threshold at four standard deviations of the centered energy statistic.

    ``noise_var`` may be an array; the threshold is then elementwise.
    """
    if kns <= sparsity:
        raise ValueError("kns must exceed sparsity")
    return 4.0 * noise_var * math.sqrt(kns - sparsity) / kns


def typicality_statistic(y, sub, noise_var, l):
    """Absolute deviation of the projected residual energy from the noise level.

    Returns |(1/m)||P^perp y||^2 - ((m - l)/m) sigma^2| with m = len(y): the
    search's statistic (:func:`_tables`, :func:`_statistics`) of the one subset
    of all l columns of ``sub``.  Raises RankDeficientError where
    ``numerics.full_rank`` rejects sub^H sub, as the search skips that subset.
    """
    y = as_vector(y, "y")
    sub = as_matrix(sub, "sub")
    m = y.shape[0]
    if sub.shape != (m, l):
        raise DimensionMismatchError(f"sub has shape {sub.shape}, expected {(m, l)}")
    solve_one(sub)  # raises where sub^H sub is not full rank
    herm, cols = sub.conj().T, np.arange(l)[None]
    term = _tables((herm @ sub)[None], 1, (herm @ y)[None], [cols])
    yy, noise_var = np.array([np.vdot(y, y).real]), np.array([noise_var], dtype=np.float64)
    return float(_statistics(term, np.arange(1), cols, yy, noise_var, m)[0, 0])


@functools.lru_cache(maxsize=8)
def _layout(n_d, reps, l):
    """The search's shape data: C(n, l), n = n_d reps; C(a, k) (l + 1, n), capped at C(n, l);
    at reps > 1 the colex s-subsets of range(n_d) of each block size s and each size's start
    in the flat tables (by s); where l C(n, l) <= 16 _SCAN_BLOCK (1.5 MiB at most), all
    subsets and at reps > 1 their :func:`_gather` term index."""
    n, total = n_d * reps, math.comb(n_d * reps, l)
    comb = np.array([[min(math.comb(a, k), total) for a in range(n)] for k in range(l + 1)])
    sizes = range(max(l - n_d * (reps - 1), 1), min(l, n_d) + 1) if reps > 1 else range(0)
    sets = [_unrank(comb, np.arange(math.comb(n_d, s)), s) for s in sizes]
    starts = np.cumsum([0] * (sizes.start + 1) + [v.size for v in sets])
    cached = _lex(comb, total, 0, total) if l * total <= 16 * _SCAN_BLOCK else None
    index = _gather(comb, starts, cached, reps) if cached is not None and reps > 1 else None
    for v in [comb, starts, *sets] + [v for v in (cached, index) if v is not None]:
        v.flags.writeable = False  # every call shares them
    return total, comb, sets, starts, cached, index


def _unrank(comb, ranks, s):
    """The (b, s) ascending s-subsets of colex ranks ``ranks``: rank = sum_k C(a_k, k + 1)."""
    out = np.empty((len(ranks), s), dtype=np.intp)
    for k in range(s, 0, -1):
        out[:, k - 1] = np.searchsorted(comb[k], ranks, side="right") - 1
        ranks = ranks - comb[k, out[:, k - 1]]
    return out


def _lex(comb, total, start, stop):
    """The l-subsets of range(n) at lexicographic positions start..stop - 1: the mirror
    images x -> n - 1 - x of those at colex positions total - 1 - position."""
    colex = _unrank(comb, total - 1 - np.arange(start, stop), len(comb) - 1)
    return comb.shape[1] - 1 - colex[:, ::-1]


def _gather(comb, starts, subsets, reps):
    """The flat term index of each column of the (b, l) ``subsets``: column (j, i) =
    divmod(col, reps) is the k-th of the s in its block, whose pilot rows S have colex
    rank sum_k C(S_k, k + 1).  At reps = 1 the tables are the subsets' own."""
    if reps == 1:
        return np.arange(subsets.size).reshape(subsets.shape)
    j, i = np.divmod(subsets, reps)
    same = i[:, :, None] == i[:, None, :]
    k, s = (same & np.tri(subsets.shape[1], k=-1, dtype=bool)).sum(axis=2), same.sum(axis=2)
    return (starts[s] + (same * comb[k + 1, j][:, None, :]).sum(axis=2) * s + k) * reps + i


def _tables(outer, reps, corr, sets):
    """The block tables of R problems for the (E, s) pilot-row sets of ``sets``: each
    outer_S eliminated as LDL^H with the reps right-hand sides c_{S,i} = corr[j reps + i
    for j in S].  Returns each entry's terms |c'_i|^2 / d of its pivot d, (R, sum E s
    reps), flat.  After a zero pivot a subset's terms are inf or nan, and its G_J is
    singular, which ``numerics.full_rank`` rejects."""
    r, out = len(outer), []
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in sets:
            g = outer[:, rows[:, :, None], rows[:, None, :]]
            c = corr.reshape(r, -1, reps)[:, rows]
            term = np.empty(c.shape)
            for p in range(rows.shape[1]):
                if p:  # eliminate pivot p - 1 from the rows below it
                    f = g[..., p:, p - 1] / d[..., None]
                    g[..., p:, p:] -= f[..., :, None] * g[..., None, p - 1, p:]
                    c[..., p:, :] -= f[..., None] * c[..., p - 1, None, :]
                d = g[..., p, p].real
                term[..., p, :] = np.abs(c[..., p, :]) ** 2 / d[..., None]
            out.append(term.reshape(r, -1))
    return out[0] if len(out) == 1 else np.concatenate(out, axis=1)


def _statistics(term, at, tidx, yy, noise_var, m):
    """The (R, b) statistics of problems ``at`` and the subsets of term index ``tidx``
    (b, l): ||P_J y||^2 is the sum of J's terms in column order."""
    energy, l = functools.reduce(np.add, (term[at[:, None], t] for t in tidx.T)), tidx.shape[1]
    with np.errstate(invalid="ignore"):
        return np.abs(np.maximum(yy[:, None] - energy, 0.0) / m - (m - l) / m * noise_var[:, None])


def jt_search(yy, m, outer, reps, corr, noise_var, cfg, l):
    """The subset search of :func:`jt_estimate` for a stack of T problems.

    The candidates are the ``l``-subsets; ``cfg`` gives the threshold
    (:meth:`TypicalityConfig.threshold`) and the order; it enumerates all
    C(n, l), and its callers keep that within ``max_subsets``.  Problem t
    observes y_t of length ``m`` through Upsilon_t, of n columns and Gram
    matrix kron(outer[t], I_reps) (``reps`` = 1 for a general matrix; n_s for
    the pilot model), and is read only through ``yy[t]`` = ||y_t||^2,
    ``corr[t]`` = Upsilon_t^H y_t and ``noise_var[t]``.  Returns the (T, l)
    supports, a row of -1 where no subset is typical, the (T,) Gram
    statistics, inf there, and the (T,) numbers of subsets examined.

    Subsets are scored from each problem's block tables (see the module
    docstring), built once, or in step with the passes at reps = 1, where a
    support is one block.  A pass scores at most _SCAN_BLOCK (problem, subset)
    pairs; its pairs below delta take the eigenvalues of their G_J, in one
    stacked call, and ``numerics.full_rank`` decides their rank.  Each problem
    takes its first typical pair of the pass (``lexicographic_first``), or its
    least statistic if below the best of earlier passes, so the first one on
    ties (``best_statistic``).
    """
    t_count, n_cols = corr.shape
    noise_var = np.asarray(noise_var, dtype=np.float64)
    delta = np.full(t_count, cfg.threshold(noise_var, m, l))
    first = cfg.search_order == LEXICOGRAPHIC_FIRST
    total, comb, sets, starts, cached, idx = _layout(n_cols // reps, reps, l)

    stat = np.full(t_count, math.inf)
    support = np.full((t_count, l), -1, dtype=np.intp)
    examined = np.full(t_count, total)
    rows = np.arange(t_count)
    size = max(_SCAN_BLOCK // t_count, 1)
    for start in range(0, total, size):
        stop = min(start + size, total)
        subsets = _lex(comb, total, start, stop) if cached is None else cached[start:stop]
        if start == 0:  # all problems' tables, or at reps = 1 the pass's own subsets'
            term = _tables(outer, reps, corr, sets or [subsets])
        elif reps == 1:
            term = _tables(outer[rows], 1, corr[rows], [subsets])
        at = rows if reps > 1 else np.arange(rows.size)
        tidx = idx[start:stop] if idx is not None else _gather(comb, starts, subsets, reps)
        s = _statistics(term, at, tidx, yy[rows], noise_var[rows], m)
        typical = s < delta[rows, None]  # NaN, from an overflowed ||y||^2, is not typical
        ri, ci = np.nonzero(typical)
        if ri.size:  # eigvalsh decides the rank of the pairs below delta
            lam = np.linalg.eigvalsh(kron_gram(outer[rows[ri]], reps, subsets[ci]))
            typical[ri, ci] = full_rank(lam)
        s = np.where(typical, s, math.inf)
        pos = np.argmax(typical, axis=1) if first else np.argmin(s, axis=1)
        best = s[np.arange(rows.size), pos]
        take = best < stat[rows]
        at = rows[take]
        stat[at], support[at] = best[take], subsets[pos[take]]
        if first:
            examined[at] = start + pos[take] + 1
            rows = rows[~take]
            if rows.size == 0:
                break
    return support, stat, examined


def jt_estimate(y, upsilon_mat, cfg, noise_var):
    """Exhaustive joint-typicality search over all sparsity-sized supports.

    Subsets are enumerated in lexicographic order.  ``lexicographic_first``
    returns the first typical set, ``best_statistic`` the typical set with
    the smallest deviation (the first one on ties).  Candidates that are not
    full rank are skipped.  ``subsets_examined`` is the winner's
    lexicographic position plus one under ``lexicographic_first`` and
    C(n, L) otherwise.  The estimate restricted to the winning support is
    its least-squares fit; with no typical set the zero vector is returned
    with ``failed`` set.  The one-problem case of :func:`jt_search`, so
    every decision is the Gram statistic's and rank rule's (see the module
    docstring).
    """
    y = as_vector(y, "y")
    upsilon_mat = as_matrix(upsilon_mat, "upsilon_mat")
    if cfg.sparsity > upsilon_mat.shape[1]:
        raise ValueError(f"sparsity {cfg.sparsity} exceeds {upsilon_mat.shape[1]} columns")
    if cfg.delta is None and y.shape[0] <= cfg.sparsity:
        raise ValueError(f"the default delta needs m = {y.shape[0]} > sparsity = {cfg.sparsity}")
    if (total := math.comb(upsilon_mat.shape[1], cfg.sparsity)) > cfg.max_subsets:
        raise ValueError(f"{total} subsets exceed max_subsets = {cfg.max_subsets}")
    herm = upsilon_mat.conj().T
    outer, corr = (herm @ upsilon_mat)[None], (herm @ y)[None]
    (support,), (stat,), (examined,) = jt_search(
        np.array([np.vdot(y, y).real]), y.shape[0], outer, 1, corr, [noise_var], cfg, cfg.sparsity
    )
    subset = tuple(support.tolist()) if support[0] >= 0 else ()
    estimate = np.zeros(upsilon_mat.shape[1], dtype=np.complex128)
    if subset:  # fitted on the search's own G_J, which its rule found full rank
        estimate[support] = fit_columns(outer, 1, support[None], corr)[2][0]
    return EstimateResult(
        support=subset,
        upsilon_hat=estimate,
        statistic=float(stat),
        subsets_examined=int(examined),
        failed=not subset,
    )


def genie_ls(y, upsilon_mat, support):
    """Least squares restricted to a known support, zeros elsewhere."""
    y = as_vector(y, "y")
    upsilon_mat = as_matrix(upsilon_mat, "upsilon_mat")
    idx = list(support)
    estimate = np.zeros(upsilon_mat.shape[1], dtype=np.complex128)
    estimate[idx] = least_squares(upsilon_mat[:, idx], y)
    return estimate


def crlb(upsilon_mat, support, noise_var):
    """Estimation-error floor sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1], by
    ``numerics.gram_solve`` of the support's Gram matrix, as a sweep takes it."""
    sub = as_matrix(upsilon_mat, "upsilon_mat")[:, list(support)]
    return float(noise_var * solve_one(sub)[0])


def missed_detection_term(truth_energy, noise_var, delta, kns, l):
    """Penalty for the search finding no typical set.

    2 ||upsilon||^2 exp(-(delta^2/(4 sigma^4)) m^2 / (m - L + (2 delta/sigma^2) m)).
    Where that expression overflows or divides by zero, or delta^2 or sigma^4
    is subnormal (and so has lost digits), the same exponent is taken in the
    scale-free rm = (delta/sigma^2) m, -(rm/4) / ((m - L)/rm + 2), which goes
    to 0 with rm.
    """
    if kns <= l:
        raise ValueError("kns must exceed l")
    if truth_energy == 0.0:
        return 0.0
    if noise_var == 0.0:
        # noiseless: the true support is always typical for any delta > 0
        return 0.0
    try:
        d2, v2 = delta**2, noise_var**2
        exponent = -(d2 / (4.0 * v2)) * kns**2 / (kns - l + (2.0 * delta / noise_var) * kns)
        if min(d2, v2) < sys.float_info.min:  # a subnormal square has lost digits
            exponent = math.nan
    except (OverflowError, ZeroDivisionError):
        exponent = math.nan
    if not math.isfinite(exponent):
        rm = (delta / noise_var) * kns
        exponent = -(rm / 4.0) / ((kns - l) / rm + 2.0) if rm else 0.0
    return 2.0 * truth_energy * math.exp(exponent)


def wrong_support_term(energy, n, noise_var, delta, kns, l):
    """Penalty for some wrong support passing the typicality test.

    (L sigma^2 + ||upsilon||^2) * sum over all L-subsets J != I of
    exp(((L - m)/4) * ((E_miss - delta')/(E_miss + sigma^2))^2), where E_miss
    is the truth energy on I \\ J and delta' = delta m/(m - L).  The truth is
    ``l`` equal shares s = sqrt(energy/l)^2 among ``n`` entries, so a term
    depends on J only through t = |I cap J| < L, with E_miss = (L - t) s, and
    the sum is taken in closed form over t with C(L, t) C(n - L, L - t)
    supports of each size; sizes no J has are skipped.
    """
    if kns <= l:
        raise ValueError("kns must exceed l")
    share = math.sqrt(energy / l) * math.sqrt(energy / l)
    delta_p = delta * kns / (kns - l)
    prefactor = l * noise_var + l * share

    total = 0.0
    for t in range(l):
        count = math.comb(l, t) * math.comb(n - l, l - t)
        miss_energy = (l - t) * share
        denom = miss_energy + noise_var
        if not count or denom == 0.0:
            continue  # no such J, or indistinguishable noiseless sets: vacuous term
        ratio = (miss_energy - delta_p) / denom
        try:
            exponent = (l - kns) / 4.0 * ratio**2
        except OverflowError:  # ratio**2 overflows: exp(-inf) = 0
            continue
        if count < 2**1023:
            total += count * math.exp(exponent)
        else:  # a count past the float range: the term in logs, inf where it overflows
            log_term = math.log(count) + exponent
            total += math.exp(log_term) if log_term < math.log(sys.float_info.max) else math.inf
    return prefactor * total


def omp_estimate(outer, reps, corr, l):
    """Orthogonal matching pursuit baseline for a stack of T problems, in the Gram domain.

    Problem t has the Gram matrix kron(outer[t], I_reps) of its n columns and
    ``corr[t]`` = Upsilon_t^H y_t, as in :func:`jt_search`.  Each of ``l`` steps
    picks the unselected column with the largest normalized residual correlation
    |c - G v| / sqrt(diag G) of the estimate v, where G v = outer V with V =
    v.reshape(p, reps) and the column norms are sqrt(outer[j, j]), each ``reps``
    times; then it refits G_S^-1 c_S on the selected set S (``numerics.fit_columns``).
    A problem stops, degenerate, at the first step whose S is not full rank.  Ties
    break to the lowest index, but only exact float ties: at K = 1 the n_d columns of
    one identity position score alike in exact arithmetic, so rounding picks among them.
    Returns the (T, l) columns in the order taken (-1 past a stop), the (T, n)
    estimates and the (T,) numbers of columns taken.
    """
    t_count, n_cols = corr.shape
    norms = np.repeat(np.sqrt(np.diagonal(outer, axis1=1, axis2=2).real), reps, axis=1)
    norms[norms == 0] = 1.0
    taken = np.full((t_count, l), -1, dtype=np.intp)
    estimate = np.zeros((t_count, n_cols), dtype=np.complex128)
    rows = np.arange(t_count)
    for step in range(l):
        active = functools.partial(rows_of, rows=rows)  # no copies while all rows run
        score = np.matmul(active(outer), active(estimate).reshape(rows.size, -1, reps))
        score -= active(corr).reshape(score.shape)  # G v - c in place: |c - G v| to the bit
        score = np.abs(score.reshape(rows.size, n_cols)) / active(norms)
        np.put_along_axis(score, taken[rows, :step], -1.0, axis=1)
        cols = np.concatenate([taken[rows, :step], np.argmax(score, axis=1)[:, None]], axis=1)
        _, grew, coef = fit_columns(active(outer), reps, cols, active(corr))
        rows, cols = rows[grew], cols[grew]
        if not rows.size:
            break
        taken[rows, step] = cols[:, step]
        estimate[rows[:, None], cols] = coef[grew]
    return taken, estimate, np.count_nonzero(taken >= 0, axis=1)


def squared_errors(estimates, truths):
    """Squared Euclidean distances ||estimate - truth||^2 along the last axis of two stacks."""
    return np.sum(np.abs(estimates - truths) ** 2, axis=-1)
