"""Sparse recovery of the angular-domain cascade channel.

The main estimator declares a candidate support J of size L jointly typical
with the observation y when the submatrix Upsilon_J has full column rank and
the residual energy after projecting out its span sits within delta of the
noise-only level:

    | (1/m) ||P_J^perp y||^2 - ((m - L)/m) sigma^2 | < delta,   m = K*n_s.

The estimator scans all L-subsets; if none is typical it outputs the zero
vector.  With c = Upsilon^H y and G = Upsilon^H Upsilon formed once, the
projected energy ||P_J y||^2 of every candidate is c_J^H G_J^-1 c_J, scored
a block of subsets at a time by one LDL^H elimination of the stack of G_J.
A margin bounds its rounding difference from the SVD statistic
:func:`typicality_statistic`.  A subset above delta by more than the margin
is dismissed; under ``lexicographic_first`` one below delta by more than it
is accepted, with this statistic (``best_statistic`` ranks by SVD
statistics); the SVD statistic decides the rest.  So every decision is the
SVD statistic's.

Known-support least squares (the genie) attains the CRLB
sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1] in expectation, and the analytic
mean-squared-error upper bound adds two exponentially small penalty terms
for missing the true support and for accepting a wrong one.  The orthogonal
matching pursuit baseline works from the same G and c: its residual
correlations are c - G v, and its refits and ranks are the caller's
``numerics.gram_solve``.
"""

import math
import sys
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError
from .numerics import GRAM_COND, as_matrix, as_vector, kron_gram, least_squares, svd_rank

LEXICOGRAPHIC_FIRST = "lexicographic_first"
BEST_STATISTIC = "best_statistic"

# (problem, subset) pairs scored per batched pass of the search; bounds its
# working memory (a few hundred bytes per pair at small L) whatever C(n, L) is
_SCAN_BLOCK = 4096
# safety factor of the recheck margin over the first-order rounding bound
_RECHECK_ULPS = 1024.0


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

    Returns |(1/m)||P^perp y||^2 - ((m - l)/m) sigma^2| with m = len(y),
    projecting through an SVD basis of the column span.  Raises
    RankDeficientError when rank(sub) < l; the caller treats such candidate
    sets as non-typical.  This is the reference statistic whose decisions
    the search in :func:`jt_estimate` reproduces.
    """
    y = as_vector(y, "y")
    sub = as_matrix(sub, "sub")
    if sub.shape != (y.shape[0], l):
        raise DimensionMismatchError(
            f"sub has shape {sub.shape}, expected {(y.shape[0], l)}"
        )
    stat, rank = _svd_statistics(y, sub, np.vdot(y, y).real, noise_var, l)
    if rank < l:
        raise RankDeficientError(f"submatrix rank {rank} < {l}")
    return float(stat)


def _svd_statistics(y, subs, yy, noise_var, l):
    """Statistic of :func:`typicality_statistic` and rank of each pair of a stack.

    ``y`` is (..., m) and ``subs`` (..., m, l); ``yy`` = ||y||^2 and
    ``noise_var`` broadcast against the stack.  The statistic is meaningless
    where the rank falls short of l.
    """
    basis, s, _ = np.linalg.svd(subs, full_matrices=False)
    m = subs.shape[-2]
    proj = np.matmul(basis.conj().swapaxes(-1, -2), y[..., None])[..., 0]
    residual = np.maximum(yy - np.sum(np.abs(proj) ** 2, axis=-1), 0.0)
    return np.abs(residual / m - (m - l) / m * noise_var), svd_rank(s, subs.shape)


def _subset_blocks(n_cols, l, size):
    """All l-subsets of range(n_cols) in lexicographic order, in blocks.

    Yields (position of the block's first subset, (b, l) index array) with
    b <= size.
    """
    subsets = combinations(range(n_cols), l)
    start = 0
    while True:
        flat = np.fromiter(chain.from_iterable(islice(subsets, size)), dtype=np.intp)
        if flat.size == 0:
            return
        yield start, flat.reshape(-1, l)
        start += flat.size // l


def _gram_statistics(outer, reps, corr, yy, noise_var, subsets, m):
    """Typicality statistic of each (problem, subset) pair from G and c.

    G = kron(outer, I_reps), ``outer`` (R, p, p); ``corr`` is (R, p*reps),
    ``yy`` and ``noise_var`` (R,) and ``subsets`` (b, l); the results are
    (R, b).  An LDL^H elimination of the stack of G_J (:func:`kron_gram`),
    each pivot step on all pairs at once, with c_J forward substituted to
    c', gives ||P_J y||^2 = sum_p |c'_p|^2 / d_p.  Returns the statistics
    and a margin per pair that their distance from
    :func:`typicality_statistic` stays below.  Unpivoted LDL^H is backward
    stable on a Hermitian positive definite G_J (Higham, Accuracy and
    Stability of Numerical Algorithms, sec. 10.1), so its energy, like the
    m-term sums forming G, c and the SVD projection, misses the exact one by
    a few l * eps * cond(G_J) * ||y||^2.  The margin is _RECHECK_ULPS * eps *
    cond * (||y||^2 + sigma^2) with cond = tr(G_J)^l / det, det = prod_p d_p:
    as w_max <= tr and w_min >= det / w_max^(l-1), cond >= w_max / w_min
    (= 1 at l = 1).  The margin is inf, and the SVD decides, unless every
    pivot is > 0 (not just det) and cond < GRAM_COND.
    """
    l = subsets.shape[1]
    g = kron_gram(outer, reps, subsets[None])
    c, cond = corr[:, subsets], np.einsum("...ii->...", g).real ** l
    energy, ok = 0.0, True
    with np.errstate(divide="ignore", invalid="ignore"):
        for p in range(l):
            d = g[..., p, p].real
            f = g[..., p + 1:, p] / d[..., None]
            g[..., p + 1:, p + 1:] -= f[..., :, None] * g[..., None, p, p + 1:]
            c[..., p + 1:] -= f * c[..., p, None]
            energy, cond, ok = energy + np.abs(c[..., p]) ** 2 / d, cond / d, ok & (d > 0)
        yy, noise_var = yy[:, None], noise_var[:, None]
        stat = np.abs(np.maximum(yy - energy, 0.0) / m - (m - l) / m * noise_var)
        margin = _RECHECK_ULPS * np.finfo(np.float64).eps * cond * (yy + np.abs(noise_var))
    return stat, np.where(ok & (cond < GRAM_COND), margin, np.inf)


def jt_search(y, outer, reps, corr, noise_var, cfg, l, columns):
    """The subset search of :func:`jt_estimate` for a stack of T problems.

    The candidates are the ``l``-subsets; ``cfg`` gives the threshold
    (:meth:`TypicalityConfig.threshold`) and the order; it enumerates all
    C(n, l), and its callers keep that within ``max_subsets``.  Problem
    t observes ``y[t]`` (length m) through Upsilon_t, of n columns and Gram
    matrix kron(outer[t], I_reps) (``reps`` = 1 for a general matrix; n_s
    for the pilot model), with ``corr[t]`` = Upsilon_t^H y[t] and
    ``noise_var[t]``.  ``columns(rows, subsets)`` returns the (len(rows), m,
    l) stack of the columns ``subsets[i]`` of Upsilon_{rows[i]}.  Returns the
    (T, l) supports, a row of -1 where no subset is typical, the (T,)
    statistics, inf there, and the (T,) numbers of subsets examined.

    Every (problem, subset) pair of a block of subsets is scored in the Gram
    domain at once, and the pairs the margin leaves open go to one stacked
    SVD per round, round r taking each open problem's r-th remaining subset
    in order: each problem sees the decisions of checking them one by one.
    """
    t_count, n_cols = corr.shape
    m = y.shape[-1]
    noise_var = np.asarray(noise_var, dtype=np.float64)
    delta = np.full(t_count, cfg.threshold(noise_var, m, l))
    first = cfg.search_order == LEXICOGRAPHIC_FIRST
    yy = np.array([np.vdot(v, v).real for v in y])

    found = np.zeros(t_count, dtype=bool)
    stat = np.full(t_count, math.inf)
    support = np.full((t_count, l), -1, dtype=np.intp)
    examined = np.full(t_count, math.comb(n_cols, l))
    rows = np.arange(t_count)
    for start, subsets in _subset_blocks(n_cols, l, max(_SCAN_BLOCK // t_count, 1)):
        gstat, margin = _gram_statistics(
            outer[rows], reps, corr[rows], yy[rows], noise_var[rows], subsets, m
        )
        # dismiss a pair only when its SVD statistic is >= delta by the
        # first-order rounding bound (times _RECHECK_ULPS); NaN compares
        # false and keeps the pair
        ri, ci = np.nonzero(~(gstat - margin >= delta[rows, None]))
        rounds = np.arange(ri.size) - np.searchsorted(ri, ri)
        for r in range(int(rounds.max(initial=-1)) + 1):
            pick = rounds == r
            if first:
                pick &= ~found[rows[ri]]
            pick = np.flatnonzero(pick)
            if pick.size == 0:
                break
            p_rows, p_pos = rows[ri[pick]], ci[pick]
            s, rank = gstat[ri[pick], p_pos], np.full(pick.size, l)
            # lexicographic_first takes a pair typical by more than its margin as it is;
            # best_statistic orders pairs by their SVD statistics, so it rechecks them all
            svd = np.flatnonzero(~(first & (s + margin[ri[pick], p_pos] < delta[p_rows])))
            if svd.size:
                s[svd], rank[svd] = _svd_statistics(
                    y[p_rows[svd]], columns(p_rows[svd], subsets[p_pos[svd]]),
                    yy[p_rows[svd]], noise_var[p_rows[svd]], l,
                )
            # a NaN statistic (an overflowed ||y||^2) is not typical
            accept = (rank >= l) & (s < delta[p_rows])
            if not first:
                accept &= ~found[p_rows] | (s < stat[p_rows])
            # a round holds at most one pair per problem
            a_rows, a_pos = p_rows[accept], p_pos[accept]
            found[a_rows], stat[a_rows], support[a_rows] = True, s[accept], subsets[a_pos]
            if first:
                examined[a_rows] = start + a_pos + 1
        if first:
            rows = np.flatnonzero(~found)
            if rows.size == 0:
                break
    return support, stat, examined


def jt_estimate(y, upsilon_mat, cfg, noise_var):
    """Exhaustive joint-typicality search over all sparsity-sized supports.

    Subsets are enumerated in lexicographic order.  ``lexicographic_first``
    returns the first typical set, ``best_statistic`` the typical set with
    the smallest deviation (the first one on ties).  Rank-deficient
    candidates are skipped.  ``subsets_examined`` is the winner's
    lexicographic position plus one under ``lexicographic_first`` and
    C(n, L) otherwise.  The estimate restricted to the winning support is
    its least-squares fit; with no typical set the zero vector is returned
    with ``failed`` set.  The one-problem case of :func:`jt_search`, so
    every decision is the SVD statistic's (see the module docstring).
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
    (support,), (stat,), (examined,) = jt_search(
        y[None], (herm @ upsilon_mat)[None], 1, (herm @ y)[None], [noise_var], cfg, cfg.sparsity,
        lambda rows, subsets: np.moveaxis(upsilon_mat[:, subsets], 0, 1),
    )
    subset = tuple(support.tolist()) if support[0] >= 0 else ()
    estimate = np.zeros(upsilon_mat.shape[1], dtype=np.complex128)
    if subset:
        estimate[list(subset)] = least_squares(upsilon_mat[:, subset], y)
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
    """Estimation-error floor sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1].

    From the singular values of the support submatrix: the SVD reference of
    the sweep's Gram-domain CRLB (``numerics.gram_solve``).
    """
    sub = as_matrix(upsilon_mat, "upsilon_mat")[:, list(support)]
    s = np.linalg.svd(sub, compute_uv=False)
    if svd_rank(s, sub.shape) < sub.shape[1]:
        raise RankDeficientError("support submatrix is rank deficient")
    return float(noise_var * np.sum(1.0 / s**2))


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
    ``l`` equal shares of ``energy`` among ``n`` entries, so a term depends on
    J only through t = |I cap J| < L, and the sum is taken in closed form over
    t with C(L, t) C(n - L, L - t) supports of each size; sizes no J has are
    skipped.
    """
    if kns <= l:
        raise ValueError("kns must exceed l")
    shares = np.zeros(n)
    shares[:l] = np.square(math.sqrt(energy / l))
    delta_p = delta * kns / (kns - l)
    prefactor = l * noise_var + float(np.sum(shares))
    on_support = float(np.sum(shares[:l]))

    total = 0.0
    for t in range(l):
        count = math.comb(l, t) * math.comb(n - l, l - t)
        miss_energy = on_support - float(np.sum(shares[:t]))
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


def omp_estimate(outer, reps, corr, l, fit):
    """Orthogonal matching pursuit baseline for a stack of T problems, in the Gram domain.

    Problem t has the Gram matrix kron(outer[t], I_reps) of its n columns and
    ``corr[t]`` = Upsilon_t^H y_t, as in :func:`jt_search`.  Each of ``l`` steps
    picks the unselected column with the largest normalized residual correlation
    |c - G v| / sqrt(diag G) of the estimate v, where G v = outer V with V =
    v.reshape(p, reps) and the column norms are sqrt(outer[j, j]), each ``reps``
    times; then it refits on the selected set: ``fit(rows, cols)`` returns
    ``numerics.gram_solve``'s (trace, rank, G_S^-1 c_S) for problems ``rows`` and
    their (len(rows), s) column sets ``cols``.  A problem stops, degenerate, at
    the first step whose rank does not grow.  Ties break to the lowest index,
    but only exact float ties: at K = 1 the n_d columns of one identity
    position score alike in exact arithmetic, so rounding picks among them.
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
        gv = np.matmul(outer[rows], estimate[rows].reshape(rows.size, -1, reps))
        score = np.abs(corr[rows] - gv.reshape(rows.size, n_cols)) / norms[rows]
        np.put_along_axis(score, taken[rows, :step], -1.0, axis=1)
        cols = np.concatenate([taken[rows, :step], np.argmax(score, axis=1)[:, None]], axis=1)
        _, rank, coef = fit(rows, cols)
        grew = rank > step
        rows, cols = rows[grew], cols[grew]
        if not rows.size:
            break
        taken[rows, step] = cols[:, step]
        estimate[rows[:, None], cols] = coef[grew]
    return taken, estimate, np.count_nonzero(taken >= 0, axis=1)


def squared_errors(estimates, truths):
    """Squared Euclidean distances ||estimate - truth||^2 along the last axis of two stacks."""
    return np.sum(np.abs(estimates - truths) ** 2, axis=-1)
