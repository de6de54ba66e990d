"""Monte Carlo sweeps over time slots and SNR, with CSV/JSON export.

Reproducibility contract: every trial derives its own 64-bit seed from
(master_seed, k, snr_db bit pattern, trial_index) through a SplitMix64-style
mixer, and truth/pilot/noise each get an independent substream of that seed.
Trials therefore never share generator state and a sweep gives byte-identical
results whatever the worker count.
"""

import contextlib
import functools
import json
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from itertools import groupby

import numpy as np

from . import channel as ch
from . import estimator as est
from . import sensing as sn
from .errors import ConfigError, SearchBudgetExceededError
from .numerics import least_squares_stack

MODES = ("synthetic", "physical_on_grid", "physical_off_grid")
ESTIMATORS = ("jt", "genie", "omp")

# byte budget of one (trials, k*n_s) complex stack of a block, such as its
# observations; it sets the trials per block from k*n_s, so a block's working
# set does not grow with the trial count
_BLOCK_BYTES = 64 * 1024

CSV_HEADER = "k,snr_db,mse,crlb,upper_bound,fail_rate,trials"
TRIALS_CSV_HEADER = "k,snr_db,trial_index,seed,squared_error,crlb,failed,subsets_examined"


@dataclass(frozen=True)
class HopSpec:
    """Per-hop generator settings: path count and optional path loss."""

    n_paths: int
    path_loss: float | None = None

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (self.path_loss is None or math.isfinite(self.path_loss) and self.path_loss > 0):
            raise ValueError(f"path_loss must be positive and finite, got {self.path_loss!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; see :func:`default_config` for the baseline."""

    geometry: ch.Geometry
    hop_bs_ris: HopSpec
    hop_ris_ms: HopSpec
    mode: str
    k_values: tuple
    snr_db_values: tuple
    trials: int
    master_seed: int
    estimator: str
    typicality: est.TypicalityConfig
    magnitude: float = 1.0

    @property
    def synthetic_energy(self):
        """``sparsity * magnitude**2``, the energy of every synthetic truth (inf on overflow)."""
        with contextlib.suppress(OverflowError):
            return self.typicality.sparsity * self.magnitude**2
        return math.inf

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(
                f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if len(self.k_values) == 0:
            raise ConfigError("k_values must be nonempty")
        if any(k < 1 for k in self.k_values):
            raise ConfigError(f"k_values must all be >= 1, got {self.k_values}")
        if len(self.snr_db_values) == 0:
            raise ConfigError("snr_db_values must be nonempty")
        if not all(math.isfinite(s) for s in self.snr_db_values):
            raise ConfigError(f"snr_db_values must be finite, got {self.snr_db_values}")
        if not (math.isfinite(self.magnitude) and self.magnitude > 0):
            raise ConfigError(f"magnitude must be positive and finite, got {self.magnitude!r}")
        l, n_s = self.typicality.sparsity, self.geometry.n_s
        # a physical truth's energy is drawn, so there only the SNR factor is checked
        energy = self.synthetic_energy if self.mode == "synthetic" else n_s
        if not 0 < energy < math.inf:
            raise ConfigError(f"sparsity * magnitude**2 = {energy!r} must be positive and finite")
        for snr in self.snr_db_values:
            with contextlib.suppress(OverflowError):
                if math.isfinite(sn.snr_to_noise_var(snr, energy, n_s)):
                    continue
            raise ConfigError(f"snr_db = {snr!r}: the noise variance overflows")
        if self.mode == "synthetic" and l > self.geometry.n_d * n_s:
            raise ConfigError(
                f"sparsity = {l} exceeds the n_d * n_s = {self.geometry.n_d * n_s} "
                "entries of the synthetic truth"
            )
        # the most nonzero entries a truth can have; physical: one per path pair
        largest = l if self.mode == "synthetic" else (
            self.hop_bs_ris.n_paths * self.hop_ris_ms.n_paths
        )
        if self.estimator == "jt" and self.typicality.delta is None:
            short = [k for k in self.k_values if k * n_s <= largest]
            if short:
                raise ConfigError(
                    f"k_values {short}: the default delta needs k * n_s > {largest}, "
                    f"the largest support in mode {self.mode}"
                )
        if self.mode == "physical_on_grid":
            for name, hop, side in (
                ("paths_bs_ris", self.hop_bs_ris, ch.BS_TO_RIS),
                ("paths_ris_ms", self.hop_ris_ms, ch.RIS_TO_MS),
            ):
                try:
                    ch.check_on_grid(self.geometry, hop.n_paths, side)
                except ValueError as exc:
                    raise ConfigError(
                        f"mode physical_on_grid with {name} = {hop.n_paths}: {exc}"
                    ) from exc
        # warn at the first caller outside this package and dataclasses (whose
        # generated __init__ runs with this module's __name__)
        internal, level, frame = (__name__.partition(".")[0], "dataclasses"), 1, sys._getframe()
        while frame and frame.f_globals.get("__name__", "").partition(".")[0] in internal:
            level, frame = level + 1, frame.f_back
        for k in self.k_values:
            if k <= self.geometry.n_d:
                warnings.warn(
                    f"k={k} <= n_d={self.geometry.n_d}: full-rank sensing not guaranteed",
                    stacklevel=level,
                )


@dataclass
class TrialRecord:
    """One Monte Carlo trial, fully determined by (config, k, snr_db, trial_index)."""

    k: int
    snr_db: float
    trial_index: int
    seed: int
    squared_error: float
    crlb_value: float
    failed: bool
    subsets_examined: int
    truth_energy: float
    sparsity: int


@dataclass
class SweepRow:
    """Aggregates of one (k, snr_db) grid point."""

    k: int
    snr_db: float
    mse: float
    crlb: float
    upper_bound: float
    fail_rate: float
    trials: int
    wall_time: float


@dataclass
class SweepResult:
    rows: list
    trial_records: list = field(default_factory=list)


def default_config(**overrides):
    """Baseline experiment: 5x5 antennas, 2x5 RIS, one path per hop,
    SNR {20, 30, 40} dB, K swept over the convergence regime, 1000 trials."""
    base = dict(
        geometry=ch.Geometry(n_s=5, n_d=5, n_r_h=2, n_r_w=5),
        hop_bs_ris=HopSpec(1),
        hop_ris_ms=HopSpec(1),
        mode="synthetic",
        k_values=(8, 12, 16, 20, 28, 40, 60, 80),
        snr_db_values=(20.0, 30.0, 40.0),
        trials=1000,
        master_seed=20260801,
        estimator="jt",
        typicality=est.TypicalityConfig(delta=None, sparsity=1),
        magnitude=1.0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_MASK = (1 << 64) - 1


def _mix64(z):
    """SplitMix64 finalizer of an int, or of each word of a uint64 array (mod 2^64)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def trial_seeds(master_seed, k, snr_db, indices):
    """64-bit seeds of the trials ``indices`` of one K and of their substreams.

    ``snr_db`` is a float or one SNR per index.  The master seed, k, the
    IEEE-754 bit pattern of the trial's snr_db (so any float maps to a
    stable word) and the trial index are mixed in turn, the SNRs and indices
    in one uint64 pass.  Returns a (4, T) uint64 array: the trial seeds and
    their substream seeds ``_mix64(seed ^ i)``, i = 1 (truth), 2 (pilots),
    3 (noise).
    """
    s = _mix64(_mix64(master_seed & _MASK) ^ (int(k) & _MASK))
    snr_bits = np.asarray(snr_db, dtype=np.float64).reshape(-1).view(np.uint64)
    seeds = _mix64(np.asarray(indices, dtype=np.uint64) ^ _mix64(snr_bits ^ np.uint64(s)))
    return np.stack([seeds] + [_mix64(seeds ^ np.uint64(i)) for i in (1, 2, 3)])


# numpy's SeedSequence hash of a 4-word pool: its j-th hashmix XORs the j-th
# constant of _HASH_A and multiplies by the next; the output words use _HASH_B
_HASH_A, _HASH_B = (
    np.array([init * pow(mult, j, 1 << 32) % (1 << 32) for j in range(n)], dtype=np.uint32)[:, None]
    for init, mult, n in ((0x43B0D7E5, 0x931E8875, 17), (0x8B51F9DD, 0x58F38DED, 9))
)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def seed_words(seeds):
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of each uint64 seed, as (T, 4).

    numpy's algorithm on a (4, T) uint32 pool: the seed's two 32-bit words
    (a seed below 2^32 hashes as one word, the same as a high word of 0) and
    two zeros are hashed in, each word is mixed into the other three, and
    eight hashed outputs are read as four little-endian 64-bit words.
    """
    def hashmix(x, j, n):  # numpy's hashmix calls j, ..., j + n - 1, one per row
        x = (x ^ _HASH_A[j:j + n]) * _HASH_A[j + 1:j + n + 1]
        return x ^ (x >> np.uint32(16))

    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0], pool[1] = seeds & np.uint64(0xFFFFFFFF), seeds >> np.uint64(32)
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        x = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src], 4 + 3 * src, 3)
        pool[dst] = x ^ (x >> np.uint32(16))
    out = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]) * _HASH_B[1:]
    out ^= out >> np.uint32(16)
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _words_type():
    """An ``ISeedSequence`` holding one row of :func:`seed_words`; made on first
    use, so importing this module does not import ``numpy.random`` (~17 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def generators(words):
    """``np.random.default_rng(s)`` for each row ``seed_words(s)``: PCG64 seats
    its state from the four words as it does from ``SeedSequence(s)``."""
    words_type, gen, pcg = _words_type(), np.random.Generator, np.random.PCG64
    return [gen(pcg(words_type(w))) for w in words]


def draw_physical(cfg, rngs):
    """Physical realizations of one trial per generator, as one stack.

    Each trial draws from its own generator, in this order, its BS-RIS
    paths, its RIS-MS paths and its RIS phases: the draws of ``draw_hop``,
    ``draw_hop`` and ``realize_physical``.  Everything after the draws runs
    once on the stack (``channel.realize_stack``).
    """
    g, on_grid = cfg.geometry, cfg.mode == "physical_on_grid"
    hops = ((cfg.hop_bs_ris, ch.BS_TO_RIS), (cfg.hop_ris_ms, ch.RIS_TO_MS))
    raw = [
        [x for spec, side in hops for x in ch.draw_paths(g, spec.n_paths, side, rng, on_grid)]
        + [ch.draw_phases(g, rng)]
        for rng in rngs
    ]
    bins1, draws1, bins2, draws2, phases = (np.array(column) for column in zip(*raw))
    paths = [
        ch.hop_paths(g, side, bins, draws, on_grid) + (spec.path_loss,)
        for (spec, side), bins, draws in zip(hops, (bins1, bins2), (draws1, draws2))
    ]
    return ch.realize_stack(g, *paths, phases, on_grid)


def _draw_truth(cfg, rngs):
    """Angular-domain truths (T, n_d*n_s) and supports, one per truth generator, per mode."""
    if cfg.mode == "synthetic":
        # the draws of ch.realize_synthetic, without the cascade it derives
        g = cfg.geometry
        return ch.synth_sparse_stack(g.n_d * g.n_s, cfg.typicality.sparsity, rngs, cfg.magnitude)
    real = draw_physical(cfg, rngs)
    return real.sparse_vec, real.support


def run_trial(cfg, k, snr_db, trial_index):
    """The sweep's record of one trial: the one-trial block of :func:`_run_block`."""
    return _run_block(cfg, k, snr_db, [trial_index])[0]


def _run_block(cfg, k, snr_db, indices):
    """Records of trials ``indices`` at K = k, as stacks.

    ``snr_db`` is the SNR of every trial, or one SNR per index, so a block
    may hold trials of several grid cells of one K.  The seed words of all
    its truth, pilot and noise substreams are hashed in one pass
    (:func:`seed_words`).  Per trial run only the seating of its three
    generators and their draws, its y = Upsilon upsilon + n and (OMP) its
    greedy search.  The rest runs on the block's stacks with the per-matrix
    LAPACK and BLAS calls of a single trial, so a record does not depend on
    its block.  Every trial starts as the failed record: the zero estimate
    (squared error ||upsilon||^2), CRLB nan and no subsets examined.  A zero
    truth, a rank-deficient support or fit and a group over the search
    budget keep it; the estimators overwrite the rest.
    """
    g = cfg.geometry
    n_s, n_cols = g.n_s, g.n_d * g.n_s
    seeds = trial_seeds(cfg.master_seed, k, snr_db, indices)
    truth_words, pilot_words, noise_words = seed_words(seeds[1:]).reshape(3, -1, 4)
    truths, supports = _draw_truth(cfg, generators(truth_words))
    energies = np.sum(np.abs(truths) ** 2, axis=-1)
    estimates = np.zeros(truths.shape, dtype=np.complex128)
    n = len(supports)
    crlbs, failed, examined = [math.nan] * n, [True] * n, [0] * n

    # a zero channel is not estimated
    live = np.array(
        [t for t, sup in enumerate(supports) if sup and energies[t] != 0.0], dtype=np.intp
    )
    snr = np.asarray(snr_db, dtype=np.float64)
    noise_var = sn.snr_to_noise_var(snr if snr.ndim == 0 else snr[live], energies[live], n_s)
    pilots, y = sn.observe_block(
        generators(pilot_words[live]), k, n_s, truths[live], noise_var,
        generators(noise_words[live]),
    )
    sizes = np.array([len(supports[t]) for t in live])
    for l in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == l)  # of the live stacks
        support = np.array([supports[t] for t in live[rows]])
        subs = sn.kron_columns(pilots[rows], n_s, support)
        bound, ranks = est.crlb_stack(subs, noise_var[rows])
        full = ranks >= l
        rows, support, bound, subs = rows[full], support[full], bound[full], subs[full]
        if not rows.size:
            continue
        at = live[rows]  # their block positions
        if cfg.estimator == "omp":
            mats = sn.kron_columns(pilots[rows], n_s, np.tile(np.arange(n_cols), (rows.size, 1)))
            for t, i, mat, crlb in zip(at, rows, mats, bound.tolist()):
                fit = est.omp_estimate(y[i], mat, l)
                estimates[t] = fit.upsilon_hat
                crlbs[t], failed[t], examined[t] = crlb, fit.degenerate, fit.subsets_examined
            continue
        if cfg.estimator == "genie":
            found, counts = support, [0] * rows.size
        else:
            outer, corr = sn.kron_normal(pilots[rows], n_s, y[rows])
            try:
                found, _stats, counts = zip(*est.jt_search(
                    y[rows], outer, n_s, corr, noise_var[rows], cfg.typicality, l,
                    lambda r, subsets: sn.kron_columns(pilots[rows[r]], n_s, subsets),
                ))
            except SearchBudgetExceededError:
                continue
        # one stacked fit of every found support; a rank-deficient fit keeps the failed record
        hit = [r for r, sup in enumerate(found) if len(sup)]
        fitted = np.ones(rows.size, dtype=bool)
        if hit:
            cols = np.array([found[r] for r in hit])
            if cfg.estimator == "jt":  # the genie fits the columns of its CRLB
                subs = sn.kron_columns(pilots[rows[hit]], n_s, cols)
            coef, fit_ranks = least_squares_stack(subs, y[rows[hit]])
            good = fit_ranks >= l
            fitted[hit] = good
            estimates[at[hit][good, None], cols[good]] = coef[good]
        for t, crlb, sup, count, ok in zip(at, bound.tolist(), found, counts, fitted.tolist()):
            if ok:
                crlbs[t], failed[t], examined[t] = crlb, not len(sup), count

    errors = est.squared_errors(estimates, truths).tolist()
    snrs = np.broadcast_to(snr, (n,)).tolist()
    return [
        TrialRecord(int(k), *fields)
        for fields in zip(
            snrs, indices, seeds[0].tolist(), errors, crlbs, failed, examined, energies.tolist(),
            map(len, supports),
        )
    ]


def bound_terms(cfg, k, snr_db, energy, l):
    """Noise variance, threshold and the two analytic penalty terms of a grid point.

    The truth is modelled as ``l`` equal-share entries of total ``energy``.
    Returns ``(noise_var, delta, missed_term, wrong_support_term)``; the
    sweep's ``upper_bound`` and the ``crlb`` table each add their own CRLB.
    Both terms, and the default delta, need k * n_s > l; below that they are
    nan.  A zero energy has no SNR: its noise variance is nan as well.
    """
    g, kns = cfg.geometry, k * cfg.geometry.n_s
    noise_var = sn.snr_to_noise_var(snr_db, energy, g.n_s) if energy else math.nan
    delta = cfg.typicality.threshold(noise_var, kns, l)
    if kns <= l or not energy:
        return noise_var, delta, math.nan, math.nan
    missed = est.missed_detection_term(energy, noise_var, delta, kns, l)
    wrong = est.wrong_support_term(energy, g.n_d * g.n_s, noise_var, delta, kns, l)
    return noise_var, delta, missed, wrong


def _run_share(cfg, cells, keep_trials):
    """(SweepRow, records when ``keep_trials``) of each (k, snr_db) cell of ``cells``.

    ``cells`` is one worker's share, in grid order.  The trials of its cells
    of one K run cell after cell in blocks of ``_BLOCK_BYTES // (16 k n_s)``
    trials, so a block may span SNR cells; records do not depend on their
    block.  A row's wall_time is its trials' share of the time of the blocks
    they ran in, plus its aggregation.
    """
    out = []
    for k, group in groupby(cells, key=lambda cell: cell[0]):
        snrs = [snr_db for _k, snr_db in group]
        snr_of = [snr_db for snr_db in snrs for _t in range(cfg.trials)]
        index_of = list(range(cfg.trials)) * len(snrs)
        size = max(_BLOCK_BYTES // (16 * k * cfg.geometry.n_s), 1)
        records, shares = [], []
        for start in range(0, len(index_of), size):
            stop = min(start + size, len(index_of))
            t0 = time.perf_counter()
            records += _run_block(cfg, k, snr_of[start:stop], index_of[start:stop])
            shares += [(time.perf_counter() - t0) / (stop - start)] * (stop - start)
        for c, snr_db in enumerate(snrs):
            cell = slice(c * cfg.trials, (c + 1) * cfg.trials)
            row = _aggregate(cfg, k, snr_db, records[cell], sum(shares[cell]))
            out.append((row, records[cell] if keep_trials else []))
    return out


def _aggregate(cfg, k, snr_db, records, wall_time):
    """SweepRow of one grid cell's records; ``wall_time`` is their blocks' share."""
    t0 = time.perf_counter()
    n = len(records)
    mse = sum(r.squared_error for r in records) / n
    crlb_vals = [r.crlb_value for r in records if not math.isnan(r.crlb_value)]
    mean_crlb = sum(crlb_vals) / len(crlb_vals) if crlb_vals else math.nan
    fail_rate = sum(1 for r in records if r.failed) / n
    # the analytic bound's truth: exact in synthetic mode; a physical cell spreads
    # its mean realized energy in equal shares over its rounded mean sparsity
    if cfg.mode == "synthetic":
        l, energy = cfg.typicality.sparsity, cfg.synthetic_energy
    else:
        l = max(int(round(sum(r.sparsity for r in records) / n)), 1)
        energy = sum(r.truth_energy for r in records) / n
    _, _, missed, wrong = bound_terms(cfg, k, snr_db, energy, l)
    upper = mean_crlb + missed + wrong
    return SweepRow(
        k=int(k), snr_db=float(snr_db), mse=mse, crlb=mean_crlb,
        upper_bound=upper, fail_rate=fail_rate, trials=n,
        wall_time=wall_time + time.perf_counter() - t0,
    )


def run_sweep(cfg, threads=1, keep_trials=False):
    """Cartesian product of k_values x snr_db_values x trials.

    With ``threads`` > 1, up to that many processes share the grid cells,
    dealt largest K first: this one runs one share, forked children the
    others.  Each share runs its trials in blocks of the block core
    (:func:`_run_share`).  Results come back in grid and trial-index order,
    the same for any worker count.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    l, cap = cfg.typicality.sparsity, cfg.typicality.subset_cap
    n = cfg.geometry.n_d * cfg.geometry.n_s
    if cfg.estimator == "jt" and cfg.mode == "synthetic" and math.comb(n, l) > cap:
        # a synthetic truth's support size is known, so its search budget is checked here
        raise ConfigError(f"C({n}, {l}) = {math.comb(n, l)} subsets exceed max_subsets = {cap}")
    cells = [(k, snr_db) for k in cfg.k_values for snr_db in cfg.snr_db_values]
    workers = min(threads, len(cells)) if hasattr(os, "fork") else 1
    by_k = sorted(range(len(cells)), key=lambda c: -cells[c][0])
    shares = [sorted(by_k[w::workers]) for w in range(workers)]

    def run(share):
        return list(zip(share, _run_share(cfg, [cells[c] for c in share], keep_trials)))

    children = []  # (read end of its pipe, pid) per forked worker
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child pipes back its results or its error
                try:
                    os.close(read)
                    try:
                        data = pickle.dumps(run(share))
                    except Exception as exc:  # re-raised by the parent
                        data = pickle.dumps(exc)
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)  # runs no atexit handler, flushes no stdio copied from us
                finally:
                    os._exit(1)  # nothing sent
            os.close(write)
            children.append((os.fdopen(read, "rb"), pid))
        done = dict(run(shares[0]))
        sent = [pipe.read() for pipe, _pid in children]
    finally:
        for pipe, _pid in children:  # a child blocked writing then fails and exits
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for _p, pid in children]
    for data, status in zip(sent, statuses):
        if not data:
            raise RuntimeError(f"sweep worker exited with status {status} without sending results")
        payload = pickle.loads(data)  # written by a child of this process
        if isinstance(payload, Exception):
            raise payload
        done.update(payload)
    rows, records = zip(*(done[c] for c in range(len(cells))))
    return SweepResult(rows=list(rows), trial_records=[r for cell in records for r in cell])


def export_angular_map(cfg, seed):
    """|angular channel| grid (n_d, n_s), rows MS bins and columns BS bins, and its
    predicted dominant (ms_bin, bs_bin) cells, for heatmap rendering; physical modes only."""
    if cfg.mode == "synthetic":
        raise ConfigError("angular map export requires a physical mode")
    real = draw_physical(cfg, [np.random.default_rng(_mix64(int(seed)))])
    cells = tuple(
        (idx // cfg.geometry.n_s, idx % cfg.geometry.n_s)
        for idx in real.predicted_support[0]
    )
    return np.abs(real.angular[0]), cells


def _fmt(x):
    """17-significant-digit float formatting (round-trips float64)."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(x, ".17g")


def sweep_csv_lines(result):
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.k},{_fmt(r.snr_db)},{_fmt(r.mse)},{_fmt(r.crlb)},"
            f"{_fmt(r.upper_bound)},{_fmt(r.fail_rate)},{r.trials}"
        )
    return lines


def write_sweep_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(sweep_csv_lines(result)) + "\n")


def write_trials_csv(records, path):
    lines = [TRIALS_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.k},{_fmt(r.snr_db)},{r.trial_index},{r.seed},"
            f"{_fmt(r.squared_error)},{_fmt(r.crlb_value)},"
            f"{int(r.failed)},{r.subsets_examined}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_float(x):
    """``x``, or None (JSON ``null``) where it is nan or infinite, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def write_sweep_json(result, cfg, path):
    """JSON mirror of the CSV with the full config embedded; nan and inf are ``null``."""
    payload = {
        "config": asdict(cfg),
        "master_seed": cfg.master_seed,
        "snr_definition": "sigma^2 = (||upsilon||^2 / n_s) * 10^(-snr_db/10)",
        "delta_rule": "4*sigma^2*sqrt(k*n_s - L)/(k*n_s) unless overridden",
        "rows": [
            {
                "k": r.k, "snr_db": r.snr_db, "mse": _json_float(r.mse),
                "crlb": _json_float(r.crlb), "upper_bound": _json_float(r.upper_bound),
                "fail_rate": r.fail_rate, "trials": r.trials,
            }
            for r in result.rows
        ],
        "wall_time": {f"{r.k},{r.snr_db}": r.wall_time for r in result.rows},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


# --- flat key=value config files -------------------------------------------

def _list_of(cast):
    return lambda text: tuple(cast(tok) for tok in text.replace(",", " ").split())


# key -> (ExperimentConfig field, field of that member or None, parser); a key
# left out keeps its value in default_config
_CONFIG_KEYS = {
    "n_s": ("geometry", "n_s", int),
    "n_d": ("geometry", "n_d", int),
    "n_r_h": ("geometry", "n_r_h", int),
    "n_r_w": ("geometry", "n_r_w", int),
    "spacing_ratio": ("geometry", "spacing_ratio", float),
    "paths_bs_ris": ("hop_bs_ris", "n_paths", int),
    "paths_ris_ms": ("hop_ris_ms", "n_paths", int),
    "path_loss_bs_ris": ("hop_bs_ris", "path_loss", float),
    "path_loss_ris_ms": ("hop_ris_ms", "path_loss", float),
    "mode": ("mode", None, str),
    "k_values": ("k_values", None, _list_of(int)),
    "snr_db_values": ("snr_db_values", None, _list_of(float)),
    "trials": ("trials", None, int),
    "master_seed": ("master_seed", None, int),
    "estimator": ("estimator", None, str),
    "sparsity": ("typicality", "sparsity", int),
    "delta": ("typicality", "delta", float),
    "search_order": ("typicality", "search_order", str),
    "max_subsets": ("typicality", "max_subsets", int),
    "magnitude": ("magnitude", None, float),
}


def parse_config_text(text, overrides=None):
    """Parse the flat key=value experiment format into an ExperimentConfig, built (and
    so checked) once with ``overrides``, a map of config keys to parsed values, replacing
    the file's."""
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown field {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate field {key!r} (first set on line {first_line[key]})"
            )
        values[key], first_line[key] = val.strip(), lineno

    parsed = {}
    for key, val in values.items():
        try:
            parsed[key] = _CONFIG_KEYS[key][2](val)
        except ValueError as exc:
            raise ConfigError(f"line {first_line[key]}: field {key!r}: bad value {val!r}") from exc
    fields, members = {}, {}
    for key, value in {**parsed, **(overrides or {})}.items():
        name, member, _ = _CONFIG_KEYS[key]
        if member is None:
            fields[name] = value
        else:
            members.setdefault(name, {})[member] = value
    base = default_config()
    try:
        for name, changes in members.items():
            fields[name] = replace(getattr(base, name), **changes)
        return replace(base, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, overrides=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, overrides)
