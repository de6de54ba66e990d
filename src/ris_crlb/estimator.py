"""Sparse recovery of the angular-domain cascade channel.

The main estimator declares a candidate support J of size L jointly typical
with the observation y when the submatrix Upsilon_J has full column rank and
the residual energy after projecting out its span sits within delta of the
noise-only level:

    | (1/m) ||P_J^perp y||^2 - ((m - L)/m) sigma^2 | < delta,   m = K*n_s.

The estimator scans all L-subsets; if none is typical it outputs the zero
vector.  The scan runs in the Gram domain (the search-decoding view of the
estimator): with c = Upsilon^H y and G = Upsilon^H Upsilon formed once, the
projected energy ||P_J y||^2 of every candidate is c_J^H G_J^-1 c_J, scored
for a block of subsets at a time by one batched eigendecomposition of the
G_J.  Its decisions are those of the SVD statistic
:func:`typicality_statistic`: a subset is dismissed only when its Gram-domain
statistic clears delta by more than a margin that bounds the rounding
difference between the two computations, and every other subset (near the
threshold, ill-conditioned, or typical) is rechecked with the SVD statistic
in lexicographic order.  The reported statistic is always the SVD one.

Known-support least squares (the genie) attains the CRLB
sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1] in expectation, and the analytic
mean-squared-error upper bound adds two exponentially small penalty terms
for missing the true support and for accepting a wrong one.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, combinations, islice

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError, SearchBudgetExceededError
from .numerics import as_matrix, as_vector, least_squares, svd_rank

LEXICOGRAPHIC_FIRST = "lexicographic_first"
BEST_STATISTIC = "best_statistic"

# hard ceiling on enumerated subsets when no explicit cap is configured
_DEFAULT_ENUM_CAP = 10_000_000
# subsets scored per batched pass of the search; bounds its working memory
# (a few hundred bytes per subset at small L) whatever C(n, L) is
_SCAN_BLOCK = 4096
# a G_J with w_min <= _ILL_CONDITIONED * w_max is always rechecked: the
# margin's first-order rounding bound needs eps * cond(G_J) << 1, and the SVD
# statistic decides the rank of such a subset
_ILL_CONDITIONED = 1e-6
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
    max_subsets: int | None = None

    def __post_init__(self):
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.search_order not in (LEXICOGRAPHIC_FIRST, BEST_STATISTIC):
            raise ValueError(f"unknown search order {self.search_order!r}")


@dataclass
class EstimateResult:
    """Outcome of one recovery attempt.

    ``failed`` marks the no-typical-set event in which the estimator falls
    back to the zero vector (support empty, statistic inf).  ``degenerate``
    is set only by the greedy baseline when its selected columns became
    dependent and it stopped early.
    """

    support: tuple
    upsilon_hat: np.ndarray
    statistic: float
    subsets_examined: int
    failed: bool
    degenerate: bool = field(default=False)


def default_delta(noise_var, kns, sparsity):
    """Threshold at four standard deviations of the centered energy statistic."""
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
    basis, s, _ = np.linalg.svd(sub, full_matrices=False)
    rank = svd_rank(s, sub.shape)
    if rank < l:
        raise RankDeficientError(f"submatrix rank {rank} < {l}")
    m = y.shape[0]
    residual = max(float(np.vdot(y, y).real - np.sum(np.abs(basis.conj().T @ y) ** 2)), 0.0)
    return abs(residual / m - (m - l) / m * noise_var)


def _subset_blocks(n_cols, l):
    """All l-subsets of range(n_cols) in lexicographic order, in blocks.

    Yields (position of the block's first subset, (b, l) index array) with
    b <= _SCAN_BLOCK.
    """
    subsets = combinations(range(n_cols), l)
    start = 0
    while True:
        flat = np.fromiter(chain.from_iterable(islice(subsets, _SCAN_BLOCK)), dtype=np.intp)
        if flat.size == 0:
            return
        yield start, flat.reshape(-1, l)
        start += flat.size // l


def _gram_statistics(gram, corr, yy, subsets, noise_var, m):
    """Typicality statistic of each row J of ``subsets`` from G and c.

    The projected energy ||P_J y||^2 = c_J^H G_J^-1 c_J is
    sum_i |v_i^H c_J|^2 / w_i over the eigenpairs (w_i, v_i) of G_J.  Returns
    the statistics and, per subset, a margin that their distance from
    :func:`typicality_statistic` stays below.  Both computations miss the
    exact energy by at most a few m * eps * cond(G_J) * ||y||^2 to first
    order (m-term sums form G, c and the SVD projection; an ill-posed span's
    basis tilts by about eps * sqrt(cond(G_J))), so the statistics differ by
    at most a few eps * cond(G_J) * (||y||^2 + sigma^2), and the margin is
    _RECHECK_ULPS times that.  It is inf where G_J is ill-conditioned.
    """
    l = subsets.shape[1]
    w, v = np.linalg.eigh(gram[subsets[:, :, None], subsets[:, None, :]])
    ill = w[:, 0] <= _ILL_CONDITIONED * w[:, -1]
    w = np.where(ill[:, None], 1.0, w)
    proj = np.matmul(v.conj().swapaxes(1, 2), corr[subsets][:, :, None])[:, :, 0]
    energy = np.sum(np.abs(proj) ** 2 / w, axis=1)
    stat = np.abs(np.maximum(yy - energy, 0.0) / m - (m - l) / m * noise_var)
    cond = w[:, -1] / w[:, 0]
    margin = _RECHECK_ULPS * np.finfo(np.float64).eps * cond * (yy + abs(noise_var))
    return stat, np.where(ill, np.inf, margin)


def jt_estimate(y, upsilon_mat, cfg, noise_var):
    """Exhaustive joint-typicality search over all sparsity-sized supports.

    Subsets are enumerated in lexicographic order.  ``lexicographic_first``
    returns the first typical set, ``best_statistic`` the typical set with
    the smallest deviation (the first one on ties).  Rank-deficient
    candidates are skipped.  ``subsets_examined`` is the winner's
    lexicographic position plus one under ``lexicographic_first`` and
    C(n, L) otherwise.  The estimate restricted to the winning support is
    its least-squares fit; with no typical set the zero vector is returned
    with ``failed`` set.

    Candidates are scored in the Gram domain (see the module docstring);
    only those that this cannot dismiss pass through
    :func:`typicality_statistic`, so every decision and the reported
    statistic are the SVD statistic's.
    """
    y = as_vector(y, "y")
    upsilon_mat = as_matrix(upsilon_mat, "upsilon_mat")
    n_cols = upsilon_mat.shape[1]
    l = cfg.sparsity
    if l > n_cols:
        raise ValueError(f"sparsity {l} exceeds {n_cols} columns")
    total = math.comb(n_cols, l)
    cap = cfg.max_subsets if cfg.max_subsets is not None else _DEFAULT_ENUM_CAP
    if total > cap:
        raise SearchBudgetExceededError(f"{total} subsets exceed cap {cap}")
    m = y.shape[0]
    delta = cfg.delta if cfg.delta is not None else default_delta(noise_var, m, l)
    first = cfg.search_order == LEXICOGRAPHIC_FIRST

    gram = upsilon_mat.conj().T @ upsilon_mat
    corr = upsilon_mat.conj().T @ y
    yy = float(np.vdot(y, y).real)
    best = None  # (statistic, support)
    examined = total
    for start, subsets in _subset_blocks(n_cols, l):
        stat, margin = _gram_statistics(gram, corr, yy, subsets, noise_var, m)
        # dismiss a subset only when its SVD statistic is >= delta by the
        # first-order rounding bound (times _RECHECK_ULPS); NaN compares
        # false and keeps the subset
        dismissed = stat - margin >= delta
        for i in np.flatnonzero(~dismissed):
            subset = tuple(int(j) for j in subsets[i])
            try:
                s = typicality_statistic(y, upsilon_mat[:, subset], noise_var, l)
            except RankDeficientError:
                continue
            if s >= delta:
                continue
            if first:
                best, examined = (s, subset), start + int(i) + 1
                break
            if best is None or s < best[0]:
                best = (s, subset)
        if first and best is not None:
            break

    if best is None:
        return EstimateResult(
            support=(),
            upsilon_hat=np.zeros(n_cols, dtype=np.complex128),
            statistic=math.inf,
            subsets_examined=examined,
            failed=True,
        )
    stat, subset = best
    estimate = np.zeros(n_cols, dtype=np.complex128)
    estimate[list(subset)] = least_squares(upsilon_mat[:, subset], y)
    return EstimateResult(
        support=subset,
        upsilon_hat=estimate,
        statistic=stat,
        subsets_examined=examined,
        failed=False,
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

    Computed from the singular values of the support submatrix, so no Gram
    inverse is formed.
    """
    upsilon_mat = as_matrix(upsilon_mat, "upsilon_mat")
    idx = list(support)
    sub = upsilon_mat[:, idx]
    s = np.linalg.svd(sub, full_matrices=False, compute_uv=False)
    if svd_rank(s, sub.shape) < len(idx):
        raise RankDeficientError("support submatrix is rank deficient")
    return noise_var * float(np.sum(1.0 / s**2))


def missed_detection_term(truth_energy, noise_var, delta, kns, l):
    """Penalty for the search finding no typical set.

    2 ||upsilon||^2 exp(-(delta^2/(4 sigma^4)) m^2 / (m - L + (2 delta/sigma^2) m)).
    """
    if kns <= l:
        raise ValueError("kns must exceed l")
    if truth_energy == 0.0:
        return 0.0
    if noise_var == 0.0:
        # noiseless: the true support is always typical for any delta > 0
        return 0.0
    exponent = -(delta**2 / (4.0 * noise_var**2)) * kns**2 / (
        kns - l + (2.0 * delta / noise_var) * kns
    )
    return 2.0 * truth_energy * math.exp(exponent)


def wrong_support_term(truth, support, noise_var, delta, kns, l, max_terms=None):
    """Penalty for some wrong support passing the typicality test.

    (L sigma^2 + ||upsilon||^2) * sum over all L-subsets J != I of
    exp(((L - m)/4) * ((E_miss - delta')/(E_miss + sigma^2))^2) where E_miss
    is the truth energy on I \\ J and delta' = delta m/(m - L).  The sum is
    exact: it is grouped over the intersection I cap J, whose complement in
    I alone determines each exponent, with a binomial count per group.
    """
    truth = as_vector(truth, "truth")
    idx = tuple(support)
    if len(idx) != l:
        raise ValueError(f"support size {len(idx)} != l={l}")
    if kns <= l:
        raise ValueError("kns must exceed l")
    n = truth.shape[0]
    cap = max_terms if max_terms is not None else _DEFAULT_ENUM_CAP
    if 2**l > cap:
        raise SearchBudgetExceededError(f"2^{l} overlap groups exceed cap {cap}")

    delta_p = delta * kns / (kns - l)
    energies = np.abs(truth[list(idx)]) ** 2
    prefactor = l * noise_var + float(np.sum(np.abs(truth) ** 2))

    total = 0.0
    for t in range(l):  # t = |I cap J| < l
        missing = l - t
        for kept in combinations(range(l), t):
            count = math.comb(n - l, missing)
            if count == 0:
                continue
            miss_energy = float(np.sum(energies)) - float(np.sum(energies[list(kept)]))
            denom = miss_energy + noise_var
            if denom == 0.0:
                continue  # indistinguishable noiseless sets, vacuous term
            ratio = (miss_energy - delta_p) / denom
            total += count * math.exp((l - kns) / 4.0 * ratio**2)
    return prefactor * total


def omp_estimate(y, upsilon_mat, l):
    """Orthogonal matching pursuit baseline.

    Each iteration picks the unselected column with the largest normalized
    residual correlation (ties break to the lowest index), then refits by
    least squares on the selected set.  If the selected columns ever become
    dependent the partial estimate is returned with ``degenerate`` set.
    """
    y = as_vector(y, "y")
    upsilon_mat = as_matrix(upsilon_mat, "upsilon_mat")
    n_cols = upsilon_mat.shape[1]
    if not 1 <= l <= n_cols:
        raise ValueError(f"l must be in [1, {n_cols}], got {l}")

    col_norms = np.linalg.norm(upsilon_mat, axis=0)
    safe_norms = np.where(col_norms > 0, col_norms, 1.0)
    selected = []
    coef = np.zeros(0, dtype=np.complex128)
    residual = y.copy()
    degenerate = False
    for _ in range(l):
        corr = np.abs(upsilon_mat.conj().T @ residual) / safe_norms
        corr[selected] = -1.0
        pick = int(np.argmax(corr))
        try:
            trial_coef = least_squares(upsilon_mat[:, selected + [pick]], y)
        except RankDeficientError:
            degenerate = True
            break
        selected.append(pick)
        coef = trial_coef
        residual = y - upsilon_mat[:, selected] @ coef

    estimate = np.zeros(n_cols, dtype=np.complex128)
    if selected:
        estimate[selected] = coef
    statistic = float(np.sum(np.abs(residual) ** 2)) / y.shape[0]
    return EstimateResult(
        support=tuple(sorted(selected)),
        upsilon_hat=estimate,
        statistic=statistic,
        subsets_examined=len(selected),
        failed=False,
        degenerate=degenerate,
    )


def squared_error(estimate, truth):
    """Squared Euclidean distance ||estimate - truth||^2."""
    estimate = as_vector(estimate, "estimate")
    truth = as_vector(truth, "truth")
    if estimate.shape != truth.shape:
        raise DimensionMismatchError(
            f"length mismatch: {estimate.shape[0]} vs {truth.shape[0]}"
        )
    return float(np.sum(np.abs(estimate - truth) ** 2))
