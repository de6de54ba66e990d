"""Monte Carlo sweeps over time slots and SNR, with CSV/JSON export.

Reproducibility contract: every trial derives its own 64-bit seed from
(master_seed, k, snr_db bit pattern, trial_index) through a SplitMix64-style
mixer, and truth/pilot/noise each get an independent substream of that seed.
Trials therefore never share generator state and a sweep gives byte-identical
results whatever the worker count.

A worker runs the trials of one K in two stages, each under the peak
``_BLOCK_BYTES`` (640 KiB) over a stated per-trial peak: the truth stage
(``_stage_truths``: seeds, seed words, truths, supports and energies) per
chunk of a whole number of estimation sub-blocks, and the estimation stage
(``_run_block``: pilots, observation, CRLB, search and fit) per sub-block.
A truth seats no ``Generator``: ``raw_draws`` reads its draws from the raw
words of its PCG64 (numpy does not promise ``Generator`` streams across
versions: the tests compare both).
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
from itertools import chain, groupby, islice
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import estimator as est
from . import numerics as nm
from . import sensing as sn
from .errors import ConfigError

MODES = ("synthetic", "physical_on_grid", "physical_off_grid")
ESTIMATORS = ("jt", "genie", "omp")

# the peak bytes an estimation sub-block or a truth chunk may hold, over its
# stated per-trial peak (_sub_block_bytes, _truth_bytes): it sets the trials of
# each, so neither working set grows with the trial count
_BLOCK_BYTES = 640 * 1024

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

    @property
    def support_sizes(self):
        """The sizes a truth's support can have: ``(sparsity,)`` in synthetic mode; in a
        physical mode ``a * b`` for the 1 <= a <= min(paths_bs_ris, n_s) distinct BS-side
        and 1 <= b <= min(paths_ris_ms, n_d) distinct MS-side bins the paths can hit."""
        if self.mode == "synthetic":
            return (self.typicality.sparsity,)
        g = self.geometry
        return tuple(sorted({
            a * b
            for a in range(1, min(self.hop_bs_ris.n_paths, g.n_s) + 1)
            for b in range(1, min(self.hop_ris_ms.n_paths, g.n_d) + 1)
        }))

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
        for name, values in (("k_values", self.k_values), ("snr_db_values", self.snr_db_values)):
            if len(set(values)) < len(values):  # -0.0 == 0.0: one SNR
                raise ConfigError(f"{name} must not repeat a value, got {values}")
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
        if self.mode == "synthetic" and self.geometry.n_d * n_s > 2**32:
            # a support is drawn by numpy's 32-bit bounded draws (_choice)
            raise ConfigError(
                f"n_d * n_s = {self.geometry.n_d * n_s} exceeds the 2**32 entries "
                "a synthetic truth can draw its support from"
            )
        if self.estimator == "jt" and self.typicality.delta is None:
            largest = max(self.support_sizes)
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


def bit_generators(words):
    """The PCG64 of ``np.random.default_rng(s)`` for each row ``seed_words(s)``, made as
    it is read: PCG64 seats its state from the four words as it does from ``SeedSequence(s)``."""
    words_type, pcg = _words_type(), np.random.PCG64
    return (pcg(words_type(w)) for w in words)


def generators(words):
    """``np.random.default_rng(s)`` for each row ``seed_words(s)``, made as it is read."""
    return (np.random.Generator(bits) for bits in bit_generators(words))


def _halves(words):
    """numpy's ``next_uint32`` stream: the low, then the high half of each word.  A high
    half not yet read waits here while doubles take whole words, as numpy buffers it."""
    for w in words:
        yield w & 0xFFFFFFFF
        yield w >> 32


def _bounded(halves, j):
    """numpy's unmasked ``random_bounded_uint64(0, j)`` for ``j < 2^32``: Lemire's
    multiply-shift of a 32-bit draw, redrawn while its low word is below
    ``2^32 mod (j + 1)``."""
    if not j:
        return 0
    n = j + 1
    m = next(halves) * n
    if m & 0xFFFFFFFF < n:
        floor = (1 << 32) % n
        while m & 0xFFFFFFFF < floor:
            m = next(halves) * n
    return m >> 32


def _choice(halves, dim, l):
    """``choice(dim, l, replace=False)`` from numpy's 32-bit draws ``halves``; ``dim <= 2^32``.

    numpy's algorithm: for ``dim > 10000`` and ``l > dim // 50`` it shuffles the
    tail of ``range(dim)`` (a draw in ``[0, i]`` for ``i = dim - 1`` down to
    ``max(dim - l, 1)``) and keeps its last ``l`` entries; otherwise Floyd's
    selection (a draw ``v`` in ``[0, j]`` for ``j = dim - l ... dim - 1``,
    taking ``j`` when ``v`` is taken) and a shuffle of the picks (``i = l - 1``
    down to 1).  Every draw is :func:`_bounded`.
    """
    if dim > 10000 and l > dim // 50:
        moved = {}  # the entries of range(dim) the shuffle has swapped
        for i in range(dim - 1, max(dim - l, 1) - 1, -1):
            j = _bounded(halves, i)
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        return [moved.get(i, i) for i in range(dim - l, dim)]
    picks, taken = [], set()
    for j in range(dim - l, dim):
        v = _bounded(halves, j)
        v = j if v in taken else v
        taken.add(v)
        picks.append(v)
    for i in range(l - 1, 0, -1):
        j = _bounded(halves, i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def raw_draws(bits, steps):
    """The draws of ``np.random.Generator(b)`` for each PCG64 ``b`` of ``bits``, from its
    raw words: no ``Generator`` is made.

    Each generator makes, for each ``(dim, l, n)`` of ``steps`` in turn,
    ``choice(dim, l, replace=False)`` (none where ``l`` is 0) and then
    ``random(n)``.  A double is ``(word >> 11) 2^-53`` of a fresh word; a
    choice reads 32-bit halves (:func:`_halves`), so the high half a choice
    leaves unread is the first half the next choice reads.  Returns the (T, l)
    picks of each choice and the (T, sum of n) doubles.
    """
    n_words = sum(l + n for _dim, l, n in steps)  # all a generator reads, unless it redraws
    choosing, picks, raws = any(l for _dim, l, _n in steps), [], []
    for b in bits:
        row = b.random_raw(n_words)  # with no choice, the words of the doubles
        if choosing:
            words = chain(row.tolist(), iter(b.random_raw, None))
            halves, chosen, row = _halves(words), [], []
            for dim, l, n in steps:
                if l:
                    chosen.append(_choice(halves, dim, l))
                row.extend(islice(words, n))
            picks.append(chosen)
        raws.append(row)
    doubles = (np.array(raws, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53
    return [np.array(column, dtype=np.int64) for column in zip(*picks)], doubles


def physical_stack(cfg, bits):
    """Physical realizations, one per PCG64 of ``bits``, as one stack.

    Each trial's generator draws, in this order, its BS-RIS paths, its RIS-MS
    paths and its RIS phases: the draws of ``draw_hop``, ``draw_hop`` and
    ``realize_physical``, read from its raw words (:func:`raw_draws`).
    ``uniform(0, 2 pi)`` is ``2 pi d`` of a double ``d``.  Everything after
    the draws runs once on the stack (``channel.realize_stack``).
    """
    g, on_grid = cfg.geometry, cfg.mode == "physical_on_grid"
    hops = ((cfg.hop_bs_ris, ch.BS_TO_RIS, g.n_s), (cfg.hop_ris_ms, ch.RIS_TO_MS, g.n_d))
    per_path = 3 if on_grid else 5  # doubles per path, as ch.draw_hop draws them
    steps = [
        (n_grid, spec.n_paths if on_grid else 0, spec.n_paths * per_path)
        for spec, _side, n_grid in hops
    ]
    bins, doubles = raw_draws(bits, steps + [(0, 0, g.n_r)])
    draws = np.split(doubles, np.cumsum([n for _dim, _l, n in steps]), axis=1)
    paths = [
        ch.hop_paths(
            g, side, bins[i] if on_grid else None,
            draws[i].reshape(len(doubles), spec.n_paths, per_path), on_grid,
        ) + (spec.path_loss,)
        for i, (spec, side, _n_grid) in enumerate(hops)
    ]
    return ch.realize_stack(g, *paths, 2.0 * np.pi * draws[2], on_grid)


def _draw_truth(cfg, words):
    """Angular-domain truths (T, n_d*n_s) and supports, one per row of truth seed words:
    the draws of ``generators(words)``, per mode, from raw words (:func:`raw_draws`)."""
    bits = bit_generators(words)
    if cfg.mode == "synthetic":
        # the draws of ch.realize_synthetic, without the cascade it derives
        dim, l = cfg.geometry.n_d * cfg.geometry.n_s, cfg.typicality.sparsity
        (picks,), phases = raw_draws(bits, [(dim, l, l)])
        return ch.sparse_stack(dim, picks, phases, cfg.magnitude)
    real = physical_stack(cfg, bits)
    return real.sparse_vec, real.support


class _Truths(NamedTuple):
    """The truth stage of a run of trials, one entry per trial on axis 0."""

    seeds: np.ndarray        # (T,) uint64 trial seeds
    pilot_words: np.ndarray  # (T, 4) seed words of the pilot substream
    noise_words: np.ndarray  # (T, 4) seed words of the noise substream
    truths: np.ndarray       # (T, n_d*n_s) complex
    supports: list           # support tuples
    energies: np.ndarray     # (T,) ||upsilon||^2


def _stage_truths(cfg, k, snr_db, indices):
    """The truth stage of trials ``indices`` at K = k (``snr_db`` as in :func:`_run_block`):
    their seeds, the seed words of all their substreams hashed in one pass
    (:func:`seed_words`), their truths, supports and energies."""
    seeds = trial_seeds(cfg.master_seed, k, snr_db, indices)
    truth_words, pilot_words, noise_words = seed_words(seeds[1:]).reshape(3, -1, 4)
    truths, supports = _draw_truth(cfg, truth_words)
    energies = np.sum(np.abs(truths) ** 2, axis=-1)
    return _Truths(seeds[0], pilot_words, noise_words, truths, supports, energies)


def _truth_bytes(cfg):
    """Stated per-trial peak of :func:`_stage_truths` in bytes, which sizes its chunks.

    Synthetic: the complex truth and the two float temporaries of its
    energy, 32 B an entry, plus 256 B of seeds, words and support.
    Physical: the truth's 16 B an entry, two complex temporaries of each hop
    matrix (``channel.hop_matrix``) and 48 B per raw word of a double, held
    as a Python int: 5 per path and one per RIS phase.
    """
    g = cfg.geometry
    if cfg.mode == "synthetic":
        return 32 * g.n_d * g.n_s + 256
    paths = cfg.hop_bs_ris.n_paths + cfg.hop_ris_ms.n_paths
    return 16 * g.n_d * g.n_s + 32 * g.n_r * (g.n_s + g.n_d) + 48 * (5 * paths + g.n_r)


def _sub_block_bytes(cfg, k):
    """Stated per-trial peak of an estimation sub-block (:func:`_run_block`) at K = k in
    bytes, which sizes the sub-blocks: ``160 k n_s``, ten complex observations.

    It holds for JT at L = 1, the genie and OMP (tracemalloc reads 100-160 k n_s).
    The L >= 2 search holds more: its scratch is bounded per pass
    (``estimator._SCAN_BLOCK``), not per trial.
    """
    return 160 * k * cfg.geometry.n_s


def run_trial(cfg, k, snr_db, trial_index):
    """The sweep's record of one trial: the one-trial block of :func:`_run_block`."""
    return _run_block(cfg, k, snr_db, [trial_index])[0]


def _run_block(cfg, k, snr_db, indices, staged=None):
    """Records of trials ``indices`` at K = k, as stacks: the estimation stage.

    ``snr_db`` is the SNR of every trial, or one SNR per index, so a block
    may hold trials of several grid cells of one K.  ``staged`` is their
    truth stage (:func:`_stage_truths`), which is run here when it is None.
    Per trial run only its pilot and noise draws; the rest runs on stacks
    with a single trial's per-matrix LAPACK and BLAS calls, so a record does
    not depend on its block.  The CRLB sigma^2 tr(G_I^-1), the JT search, OMP's
    greedy steps and every fit G_S^-1 c_S come from G = kron(conj(X) X^T, I)
    and c = Upsilon^H y (``numerics.gram_solve``); Upsilon's columns are built
    only for the search's SVD rechecks and the rank band.  One ``gram_solve``
    per sparsity group gives the CRLB and the fit of the true support I,
    which the genie takes, and JT too where it found I; JT fits only the
    other supports it found.  An OMP trial is failed where it took fewer than
    l columns, which it counts as its subsets examined.  Every trial
    starts as the failed record (squared error ||upsilon||^2, CRLB nan, no
    subsets examined); a zero truth and a rank-deficient support keep it.
    The search budget is checked before any trial (:func:`run_sweep`).
    """
    n_s = cfg.geometry.n_s
    if staged is None:
        staged = _stage_truths(cfg, k, snr_db, indices)
    seeds, pilot_words, noise_words, truths, supports, energies = staged
    estimates = np.zeros(truths.shape, dtype=np.complex128)
    n = len(supports)
    crlbs, failed, examined = np.full(n, math.nan), np.ones(n, dtype=bool), np.zeros(n, np.int64)

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
        outer, corr = sn.kron_normal(pilots[rows], n_s, y[rows])

        def fit(r, cols):  # nm.gram_solve on columns cols of the group's trials r
            return nm.gram_solve(
                nm.kron_gram(outer[r], n_s, cols),
                lambda b: sn.kron_columns(pilots[rows[r[b]]], n_s, cols[b]),
                corr[r[:, None], cols], y[rows[r]],
            )

        # the CRLB and the fit of the true support; the group, as fit reads it, keeps the
        # full-rank rows
        trace, ranks, coef = fit(np.arange(rows.size), support)
        keep = ranks >= l
        rows, support, outer, corr, coef = (v[keep] for v in (rows, support, outer, corr, coef))
        if not rows.size:
            continue
        at = live[rows]
        crlbs[at], failed[at] = noise_var[rows] * trace[keep], False
        if cfg.estimator == "omp":
            _, estimates[at], examined[at] = est.omp_estimate(outer, n_s, corr, l, fit)
            failed[at] = examined[at] < l
            continue
        if cfg.estimator == "jt":
            found, _stats, examined[at] = est.jt_search(
                y[rows], outer, n_s, corr, noise_var[rows], cfg.typicality, l,
                lambda r, cols: sn.kron_columns(pilots[rows[r]], n_s, cols),
            )
            failed[at] = found[:, 0] < 0
            # a found support has full SVD rank (the search takes no other); only one that
            # is not the true support needs its own fit
            wrong = np.flatnonzero(~failed[at] & np.any(found != support, axis=1))
            if wrong.size:
                coef[wrong] = fit(wrong, found[wrong])[2]
            support = found
        hit = ~failed[at]
        estimates[at[hit, None], support[hit]] = coef[hit]

    errors = est.squared_errors(estimates, truths).tolist()
    snrs = np.broadcast_to(snr, (n,)).tolist()
    return [
        TrialRecord(int(k), *fields)
        for fields in zip(
            snrs, indices, seeds.tolist(), errors, crlbs.tolist(), failed.tolist(),
            examined.tolist(), energies.tolist(),
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
    of one K run cell after cell, staged in truth chunks of whole estimation
    sub-blocks (see the module docstring), so a chunk or sub-block may span
    SNR cells; records do not depend on either.  A row's wall_time is its
    trials' share of the time of the chunks and sub-blocks they ran in, plus
    its aggregation.
    """
    out = []
    for k, group in groupby(cells, key=lambda cell: cell[0]):
        snrs = [snr_db for _k, snr_db in group]
        snr_of = [snr_db for snr_db in snrs for _t in range(cfg.trials)]
        index_of = list(range(cfg.trials)) * len(snrs)
        size = max(_BLOCK_BYTES // _sub_block_bytes(cfg, k), 1)
        chunk = size * max(_BLOCK_BYTES // _truth_bytes(cfg) // size, 1)
        records, shares = [], []
        for first in range(0, len(index_of), chunk):
            last = min(first + chunk, len(index_of))
            t0 = time.perf_counter()
            staged = _stage_truths(cfg, k, snr_of[first:last], index_of[first:last])
            staging = (time.perf_counter() - t0) / (last - first)
            for start in range(first, last, size):
                stop = min(start + size, last)
                t0 = time.perf_counter()
                part = _Truths(*(column[start - first:stop - first] for column in staged))
                records += _run_block(cfg, k, snr_of[start:stop], index_of[start:stop], part)
                shares += [staging + (time.perf_counter() - t0) / (stop - start)] * (stop - start)
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
    if cfg.estimator == "jt":
        # the search enumerates all C(n, l) supports of each size l a truth can have
        n, cap = cfg.geometry.n_d * cfg.geometry.n_s, cfg.typicality.max_subsets
        total, l = max((math.comb(n, l), l) for l in cfg.support_sizes)
        if total > cap:
            raise ConfigError(f"C({n}, {l}) = {total} subsets exceed max_subsets = {cap}")
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
    real = physical_stack(cfg, bit_generators(seed_words(_mix64(int(seed)))))
    cells = tuple(
        (idx // cfg.geometry.n_s, idx % cfg.geometry.n_s)
        for idx in real.predicted_support[0]
    )
    return np.abs(real.angular[0]), cells


def sweep_csv_lines(result):
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.k},{r.snr_db:.17g},{r.mse:.17g},{r.crlb:.17g},"
            f"{r.upper_bound:.17g},{r.fail_rate:.17g},{r.trials}"
        )
    return lines


def write_sweep_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(sweep_csv_lines(result)) + "\n")


def write_trials_csv(records, path):
    lines = [TRIALS_CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.k},{r.snr_db:.17g},{r.trial_index},{r.seed},"
            f"{r.squared_error:.17g},{r.crlb_value:.17g},"
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
