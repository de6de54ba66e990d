"""Sparse recovery of the angular-domain cascade channel.

The main estimator declares a candidate support J of size L jointly typical
with the observation y when the submatrix Upsilon_J has full column rank and
the residual energy after projecting out its span sits within delta of the
noise-only level:

    | (1/m) ||P_J^perp y||^2 - ((m - L)/m) sigma^2 | < delta,   m = K*n_s.

The estimator scans all L-subsets; if none is typical it outputs the zero
vector.  Known-support least squares (the genie) attains the CRLB
sigma^2 * Tr[(Upsilon_I^H Upsilon_I)^-1] in expectation, and the analytic
mean-squared-error upper bound adds two exponentially small penalty terms
for missing the true support and for accepting a wrong one.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionMismatchError, RankDeficientError, SearchBudgetExceededError
from .numerics import as_matrix, as_vector, least_squares

LEXICOGRAPHIC_FIRST = "lexicographic_first"
BEST_STATISTIC = "best_statistic"

# hard ceiling on enumerated subsets when no explicit cap is configured
_DEFAULT_ENUM_CAP = 10_000_000


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
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be positive")
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


@dataclass
class BoundReport:
    """CRLB plus the two analytic penalty terms and their total."""

    crlb: float
    missed_term: float
    wrong_support_term: float
    upper_bound: float


def default_delta(noise_var, kns, sparsity):
    """Threshold at four standard deviations of the centered energy statistic."""
    if kns <= sparsity:
        raise ValueError("kns must exceed sparsity")
    return 4.0 * noise_var * math.sqrt(kns - sparsity) / kns


def _span_basis(sub, l):
    """Orthonormal basis of the column span, or raise if rank < l."""
    u, s, _ = np.linalg.svd(sub, full_matrices=False)
    tol = max(sub.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > tol))
    if rank < l:
        raise RankDeficientError(f"submatrix rank {rank} < {l}")
    return u


def typicality_statistic(y, sub, noise_var, l):
    """Absolute deviation of the projected residual energy from the noise level.

    Returns |(1/m)||P^perp y||^2 - ((m - l)/m) sigma^2| with m = len(y).
    Raises RankDeficientError when rank(sub) < l; the caller treats such
    candidate sets as non-typical.
    """
    y = as_vector(y, "y")
    sub = as_matrix(sub, "sub")
    if sub.shape != (y.shape[0], l):
        raise DimensionMismatchError(
            f"sub has shape {sub.shape}, expected {(y.shape[0], l)}"
        )
    basis = _span_basis(sub, l)
    m = y.shape[0]
    residual = max(float(np.vdot(y, y).real - np.sum(np.abs(basis.conj().T @ y) ** 2)), 0.0)
    return abs(residual / m - (m - l) / m * noise_var)


def jt_estimate(y, upsilon_mat, cfg, noise_var):
    """Exhaustive joint-typicality search over all sparsity-sized supports.

    Subsets are enumerated in lexicographic order.  ``lexicographic_first``
    returns the first typical set, ``best_statistic`` the typical set with
    the smallest deviation.  Rank-deficient candidates are skipped.  The
    estimate restricted to the winning support is its least-squares fit;
    with no typical set the zero vector is returned with ``failed`` set.
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

    best = None  # (statistic, support)
    examined = 0
    for subset in combinations(range(n_cols), l):
        examined += 1
        try:
            stat = typicality_statistic(y, upsilon_mat[:, subset], noise_var, l)
        except RankDeficientError:
            continue
        if stat >= delta:
            continue
        if cfg.search_order == LEXICOGRAPHIC_FIRST:
            best = (stat, subset)
            break
        if best is None or stat < best[0]:
            best = (stat, subset)

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
    tol = max(sub.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    if int(np.count_nonzero(s > tol)) < len(idx):
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


def mse_upper_bound(truth, support, upsilon_mat, noise_var, delta, kns, l):
    """Analytic ceiling on the search estimator's mean squared error.

    Per-realization CRLB plus the missed-detection and wrong-support terms.
    """
    base = crlb(upsilon_mat, support, noise_var)
    energy = float(np.sum(np.abs(np.asarray(truth)) ** 2))
    t1 = missed_detection_term(energy, noise_var, delta, kns, l)
    t3 = wrong_support_term(truth, support, noise_var, delta, kns, l)
    return BoundReport(
        crlb=base,
        missed_term=t1,
        wrong_support_term=t3,
        upper_bound=base + t1 + t3,
    )


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
