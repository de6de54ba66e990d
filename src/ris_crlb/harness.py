"""Monte Carlo sweeps over time slots and SNR, with CSV/JSON export.

Reproducibility contract: every trial derives its own 64-bit seed from
(master_seed, k, snr_db bit pattern, trial_index) through a SplitMix64-style
mixer, and truth/pilot/noise each get an independent substream of that seed.
Trials therefore never share generator state and a sweep gives byte-identical
results whatever the worker count.

A worker runs its share in two stages, each sized by ``_BLOCK_BYTES`` (640 KiB) over a
stated per-trial peak: the estimation stage (``_run_block``: pilots, observation, CRLB,
search and fit) per sub-block of one K, and the truth stage (``_stage_truths``: seeds, seed
words, truths, supports and energies) per chunk of whole sub-blocks, in order across K.
Each trial leaves 73 B in the columns of :class:`Trials`: they and the share's per-trial
layout are the one state that grows with the trial count.  A truth seats no ``Generator``:
its PCG64 is seated and read in uint64 limbs for a chunk at once (``channel.pcg64_seat``,
``channel.raw_draws``; numpy does not promise its streams across versions: tests compare).
The pilots and noise do (:func:`generators`): :func:`run_sweep` imports ``numpy.random``
once, before it forks any worker, and importing this module does not.
"""

import contextlib
import functools
import json
import math
import operator
import os
import pickle
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from typing import NamedTuple

import numpy as np

from . import channel as ch
from . import estimator as est
from . import numerics as nm
from . import sensing as sn
from .errors import ConfigError

MODES = ("synthetic", "physical_on_grid", "physical_off_grid")
ESTIMATORS = ("jt", "genie", "omp")

# the peak bytes an estimation sub-block or a truth chunk may hold, over its stated
# per-trial peak (_sub_block_bytes, _truth_bytes): it sets the trials of each, so neither
# working set grows with the trial count; a default L = 1 sub-block traces 0.79-0.93 of it,
# an L = 2 one 0.81-0.88
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
        g, l, n_s = self.geometry, self.typicality.sparsity, self.geometry.n_s
        # a physical truth's energy is drawn, so there only the SNR factor is checked
        energy = self.synthetic_energy if self.mode == "synthetic" else n_s
        if not 0 < energy < math.inf:
            raise ConfigError(f"sparsity * magnitude**2 = {energy!r} must be positive and finite")
        for snr in self.snr_db_values:
            with contextlib.suppress(OverflowError):
                if math.isfinite(sn.snr_to_noise_var(snr, energy, n_s)):
                    continue
            raise ConfigError(f"snr_db = {snr!r}: the noise variance overflows")
        if self.mode != "synthetic" and self.typicality.delta is not None:
            raise ConfigError(f"delta = {self.typicality.delta!r}: mode {self.mode} takes only the "
                              "default delta, as a truth's energy, so sigma^2, varies per trial")
        if self.mode != "synthetic":
            # a truth's energy is at most n_d n_s (n_r s1 P1 s2 P2)^2, s^2 = N N / path_loss
            # a hop's leading scale squared (channel.hop_matrix; 1 at the default loss)
            bound = g.n_d * g.n_s * g.n_r**2
            for hop, side in ((self.hop_bs_ris, ch.BS_TO_RIS), (self.hop_ris_ms, ch.RIS_TO_MS)):
                loss = ch._default_loss(g, side)
                bound *= loss / (hop.path_loss or loss) * hop.n_paths**2
            if not math.isfinite(bound):
                raise ConfigError(
                    f"path_loss_bs_ris = {self.hop_bs_ris.path_loss!r}, path_loss_ris_ms = "
                    f"{self.hop_ris_ms.path_loss!r}: the bound on a truth's energy overflows"
                )
        if self.mode == "synthetic" and l > self.geometry.n_d * n_s:
            raise ConfigError(
                f"sparsity = {l} exceeds the n_d * n_s = {self.geometry.n_d * n_s} "
                "entries of the synthetic truth"
            )
        if self.mode == "synthetic" and self.geometry.n_d * n_s > 2**32:
            # a support is drawn by numpy's 32-bit bounded draws (channel.raw_draws)
            raise ConfigError(
                f"n_d * n_s = {self.geometry.n_d * n_s} exceeds the 2**32 entries "
                "a synthetic truth can draw its support from"
            )
        if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ()):  # a trial must fit in memory
            memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            k = max(self.k_values)
            for name, need in ((f"k_values {k}", _sub_block_bytes(self, k)),
                               (f"n_d * n_s = {g.n_d * n_s}", _truth_bytes(self))):
                if need > memory:
                    raise ConfigError(
                        f"{name}: one trial needs more than the {memory} B of physical memory"
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


class Trials(NamedTuple):
    """Trials as columns, one entry per trial; each trial is fully determined by
    (config, k, snr_db, trial_index).  73 B a trial."""

    k: np.ndarray                 # int64
    snr_db: np.ndarray            # float64
    trial_index: np.ndarray       # int64
    seed: np.ndarray              # uint64
    squared_error: np.ndarray     # float64
    crlb_value: np.ndarray        # float64, nan where the true support is not estimated
    failed: np.ndarray            # bool
    subsets_examined: np.ndarray  # int64
    truth_energy: np.ndarray      # float64 ||upsilon||^2
    sparsity: np.ndarray          # int64 entries of the support mask


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
    trials: Trials  # every trial, in grid and trial-index order


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
    """64-bit seeds of the trials ``indices`` and of their substreams.

    ``k`` and ``snr_db`` are each one value or one value per index.  The
    master seed, k, the IEEE-754 bit pattern of the trial's snr_db (so any
    float maps to a stable word) and the trial index are mixed in turn, the
    Ks, SNRs and indices in one uint64 pass.  Returns a (4, T) uint64 array:
    the trial seeds and their substream seeds ``_mix64(seed ^ i)``, i = 1
    (truth), 2 (pilots), 3 (noise).
    """
    s = _mix64(_mix64(master_seed & _MASK) ^ np.asarray(k, dtype=np.uint64).reshape(-1))
    snr_bits = np.asarray(snr_db, dtype=np.float64).reshape(-1).view(np.uint64)
    seeds = _mix64(np.asarray(indices, dtype=np.uint64) ^ _mix64(snr_bits ^ s))
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
    """An ``ISeedSequence`` holding one row of :func:`seed_words`.  :func:`run_sweep` makes
    it before any fork, so importing this module does not import ``numpy.random`` (~11 ms)
    and forked workers inherit it rather than each importing it again."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Words


def generators(words):
    """``np.random.default_rng(s)`` for each row ``seed_words(s)``, made as it is read: its
    PCG64 seats its state from the four words as it does from ``SeedSequence(s)``."""
    words_type, pcg = _words_type(), np.random.PCG64
    return (np.random.Generator(pcg(words_type(w))) for w in words)


def physical_stack(cfg, state):
    """Physical realizations, one per PCG64 of ``state`` (``channel.pcg64_seat``), as one stack.

    Each trial's generator draws, in this order, its BS-RIS paths, its RIS-MS
    paths and its RIS phases: the draws of ``draw_hop``, ``draw_hop`` and
    ``realize_physical``, read from its raw words (``channel.raw_draws``).
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
    bins, doubles = ch.raw_draws(state, steps + [(0, 0, g.n_r)])
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
    """Angular-domain truths (T, n_d*n_s) and support masks, one per row of truth seed words:
    the draws of ``generators(words)``, per mode, from raw words (``channel.raw_draws``)."""
    state = ch.pcg64_seat(words)
    if cfg.mode == "synthetic":
        # the draws of ch.realize_synthetic, without the cascade it derives
        dim, l = cfg.geometry.n_d * cfg.geometry.n_s, cfg.typicality.sparsity
        (picks,), phases = ch.raw_draws(state, [(dim, l, l)])
        return ch.sparse_stack(dim, picks, phases, cfg.magnitude)
    real = physical_stack(cfg, state)
    return real.sparse_vec, real.support


class _Truths(NamedTuple):
    """The truth stage of a run of trials, one entry per trial on axis 0."""

    seeds: np.ndarray        # (T,) uint64 trial seeds
    pilot_words: np.ndarray  # (T, 4) seed words of the pilot substream
    noise_words: np.ndarray  # (T, 4) seed words of the noise substream
    truths: np.ndarray       # (T, n_d*n_s) complex
    supports: np.ndarray     # (T, n_d*n_s) bool support masks
    energies: np.ndarray     # (T,) ||upsilon||^2


def _stage_truths(cfg, k, snr_db, indices):
    """The truth stage of trials ``indices`` (``k`` and ``snr_db`` as in :func:`trial_seeds`):
    their seeds, the seed words of all their substreams hashed in one pass
    (:func:`seed_words`), their truths, supports and energies."""
    seeds = trial_seeds(cfg.master_seed, k, snr_db, indices)
    truth_words, pilot_words, noise_words = seed_words(seeds[1:]).reshape(3, -1, 4)
    truths, supports = _draw_truth(cfg, truth_words)
    energies = np.sum(np.abs(truths) ** 2, axis=-1)
    return _Truths(seeds[0], pilot_words, noise_words, truths, supports, energies)


def _truth_bytes(cfg):
    """Stated per-trial peak of :func:`_stage_truths` in bytes, which sizes its chunks.

    Synthetic: about 32 B an entry (the complex truth, the two float temporaries
    of its energy and the support mask) plus 256 B of seeds and words.
    Physical, the larger of two phases: while the hops are drawn, the truth's 16 B
    an entry, two complex temporaries of each hop matrix (``channel.hop_matrix``)
    and 48 B per double, 5 per path and one per RIS phase: its 8 B and the angles,
    gains and phases made from it (``raw_draws`` holds about 64 B a word, before
    the hops); after, the hop matrices and five complex values an entry of the
    cascade and its angular image.
    """
    g = cfg.geometry
    if cfg.mode == "synthetic":
        return 32 * g.n_d * g.n_s + 256
    paths = cfg.hop_bs_ris.n_paths + cfg.hop_ris_ms.n_paths
    drawn = 16 * g.n_d * g.n_s + 32 * g.n_r * (g.n_s + g.n_d) + 48 * (5 * paths + g.n_r)
    return max(drawn, 80 * g.n_d * g.n_s + 16 * g.n_r * (g.n_s + g.n_d))


def _sub_block_bytes(cfg, k):
    """Stated per-trial peak of an estimation sub-block (:func:`_run_block`) at K = k in
    bytes, which sizes the sub-blocks: the larger of its two phases.

    The observation's is ``40 k (n_d + n_s)``: 16 k (3 n_d + n_s) B as the pilot entries
    are built and 16 k (n_d + 3 n_s) B as the noise is (with a ufunc cast buffer of at most
    128 KiB); JT at L = 1, the genie and OMP read 0.69-1.20 of it.  The search's, for JT
    whose largest support L is 2 or more at n_s > 1, is ``36 (n_s + 1) E + 48 n_d (n_d +
    n_s)``: per problem a block table of about 36 (n_s + 1) E B as built (25-50 read), E =
    sum_s s C(n_d, s) over the block sizes 1 <= s <= min(L, n_d) (the sizes that occur, or
    more where L > n_d (n_s - 1) + 1), and what the block holds through the search: its
    normal equations, 16 n_d (n_d + n_s) B a trial, their gathers into the tables, and its
    share of a pass of at most ``estimator._SCAN_BLOCK`` (problem, subset) pairs, 16 B each
    and 16 L^2 B per G_J below delta.  At 5 x 5, L = 2, K = 8, 12, 16 a sub-block traces
    0.88 of the budget (2.02, 1.42, 1.06 sized by the observation alone).  At n_s = 1 a
    support is one block and each pass builds its own tables, 32 L (L + 2) B a pair: a
    cost per block, not per trial, which no per-trial figure states."""
    g = cfg.geometry
    observe = 40 * k * (g.n_d + g.n_s)
    if cfg.estimator != "jt" or g.n_s == 1 or (largest := max(cfg.support_sizes)) < 2:
        return observe
    entries = sum(s * math.comb(g.n_d, s) for s in range(1, min(largest, g.n_d) + 1))
    return max(observe, 36 * (g.n_s + 1) * entries + 48 * g.n_d * (g.n_d + g.n_s))


def run_trial(cfg, k, snr_db, trial_index):
    """The sweep's columns of one trial: the one-trial block of :func:`_run_block`."""
    return _run_block(cfg, k, snr_db, [trial_index])


def _run_block(cfg, k, snr_db, indices, staged=None):
    """:class:`Trials` of trials ``indices`` at K = k, as stacks: the estimation stage.

    ``snr_db`` is one SNR, or one per index, so a block may span the cells of one K;
    ``staged`` is the trials' truth stage (:func:`_stage_truths`), run here when None.  Only
    the pilot and noise draws run per trial; the rest runs on stacks with a single trial's
    per-matrix LAPACK and BLAS calls, so a row does not depend on its block.  G = kron(conj(X)
    X^T, I), c = Upsilon^H y and, for JT only, ||y||^2 are formed once, then the pilots and y
    dropped: every CRLB sigma^2 tr(G_I^-1), JT search, OMP step and fit G_S^-1 c_S reads only
    them (every fit ``numerics.fit_columns``), every rank is ``numerics.full_rank`` of G's
    eigenvalues, and no column of Upsilon or SVD is formed.  Per sparsity group (l support
    entries; the stacks themselves where it holds every live trial) one fit gives the CRLB
    and the true support's fit, which the genie takes, and JT where it found that support;
    JT fits only the other supports it found; OMP fails a trial that took fewer than l
    columns (its subsets examined).  A trial starts as the failed row (squared error
    ||upsilon||^2, CRLB nan, no subsets examined), which a zero truth, an empty support and
    a rank-deficient true support keep.  The estimates are scattered into one array at the
    end.  :func:`run_sweep` checks the search budget before any trial."""
    n_s = cfg.geometry.n_s
    if staged is None:
        staged = _stage_truths(cfg, k, snr_db, indices)
    seeds, pilot_words, noise_words, truths, supports, energies = staged
    n, sizes = len(supports), np.count_nonzero(supports, axis=1)
    crlbs, failed, examined = np.full(n, math.nan), np.ones(n, dtype=bool), np.zeros(n, np.int64)

    # a zero channel is not estimated, nor one with no support (a defence: no config makes one)
    live = np.flatnonzero((energies != 0.0) & (sizes > 0))
    snr = np.asarray(snr_db, dtype=np.float64)
    noise_var = sn.snr_to_noise_var(snr if snr.ndim == 0 else snr[live], energies[live], n_s)
    pilots, y = sn.observe_block(
        generators(pilot_words[live]), k, n_s, nm.rows_of(truths, live), noise_var,
        generators(noise_words[live]),
    )
    outer, corr = sn.kron_normal(pilots, n_s, y)
    yy = np.array([np.vdot(v, v).real for v in y]) if cfg.estimator == "jt" else None
    del pilots, y  # the estimators read only the normal equations, and JT ||y||^2
    parts = []  # (trials, columns, values) of each group's estimates, scattered at the end
    for l in sorted(set(sizes[live].tolist())):  # np.unique's first call costs ~15 ms
        rows = np.flatnonzero(sizes[live] == l)  # of the live stacks
        support = np.nonzero(supports[live[rows]])[1].reshape(-1, l)  # ascending in each row
        group = functools.partial(nm.rows_of, rows=rows)  # the group's stacks
        # the CRLB and the true support's fit; the group keeps its full-rank rows
        trace, keep, coef = nm.fit_columns(group(outer), n_s, support, group(corr))
        rows, support, coef = (v[keep] for v in (rows, support, coef))
        if not rows.size:
            continue
        at, group = live[rows], functools.partial(nm.rows_of, rows=rows)
        crlbs[at], failed[at] = noise_var[rows] * trace[keep], False
        if cfg.estimator == "omp":
            _, values, examined[at] = est.omp_estimate(group(outer), n_s, group(corr), l)
            failed[at] = examined[at] < l
            parts.append((at, slice(None), values))
            continue
        if cfg.estimator == "jt":
            found, _stats, examined[at] = est.jt_search(
                group(yy), k * n_s, group(outer), n_s, group(corr), noise_var[rows],
                cfg.typicality, l,
            )
            failed[at] = found[:, 0] < 0
            # a found support is full rank (the search takes no other); only one that is
            # not the true support needs its own fit
            wrong = np.flatnonzero(~failed[at] & np.any(found != support, axis=1))
            if wrong.size:
                r = rows[wrong]
                coef[wrong] = nm.fit_columns(outer[r], n_s, found[wrong], corr[r])[2]
            support = found
        hit = ~failed[at]
        parts.append((at[hit, None], support[hit], coef[hit]))
    estimates = np.zeros(truths.shape, dtype=np.complex128)
    for at, cols, values in parts:
        estimates[at, cols] = values

    # seeds is a row of its chunk's (4, T) seed stack: a copy keeps no block's stack alive
    return Trials(
        np.full(n, k, dtype=np.int64), np.broadcast_to(snr, (n,)).copy(),
        np.asarray(indices, dtype=np.int64), seeds.copy(), est.squared_errors(estimates, truths),
        crlbs, failed, examined, energies, sizes,
    )


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


def _run_share(cfg, cells):
    """(SweepRow, :class:`Trials`) of each (k, snr_db) cell of ``cells``.

    ``cells`` is one worker's share, in grid order.  The trials of its cells
    of one K run cell after cell in estimation sub-blocks, and the share's
    sub-blocks, in order across K, are staged in truth chunks of whole
    sub-blocks (see the module docstring), so a chunk may span K and SNR
    cells and a sub-block SNR cells; trials depend on neither.  Each cell's
    Trials are a slice of the share's one table.  A row's wall_time is its
    trials' share of the time of the chunks and sub-blocks they ran in, plus
    its aggregation.
    """
    n = cfg.trials
    ks, snr_of = (np.repeat(values, n) for values in zip(*cells))
    index_of, shares = np.tile(np.arange(n), len(cells)), np.empty(ks.size)
    blocks, stop = [], 0  # (start, stop) per sub-block
    for k, run in groupby(cells, key=operator.itemgetter(0)):  # the cells of one K
        start, stop = stop, stop + n * len(list(run))
        size = max(_BLOCK_BYTES // _sub_block_bytes(cfg, k), 1)
        blocks += [(a, min(a + size, stop)) for a in range(start, stop, size)]
    cap, parts, b = max(_BLOCK_BYTES // _truth_bytes(cfg), 1), [], 0
    while b < len(blocks):
        first, e = blocks[b][0], b + 1
        while e < len(blocks) and blocks[e][1] - first <= cap:
            e += 1
        last, t0 = blocks[e - 1][1], time.perf_counter()
        staged = _stage_truths(cfg, ks[first:last], snr_of[first:last], index_of[first:last])
        staging = (time.perf_counter() - t0) / (last - first)
        for start, stop in blocks[b:e]:
            t0 = time.perf_counter()
            part = _Truths(*(column[start - first:stop - first] for column in staged))
            parts.append(_run_block(cfg, ks[start], snr_of[start:stop], index_of[start:stop], part))
            shares[start:stop] = staging + (time.perf_counter() - t0) / (stop - start)
        b = e
    trials, out = Trials(*map(np.concatenate, zip(*parts))), []
    for c, (k, snr_db) in enumerate(cells):
        cell = slice(c * n, (c + 1) * n)
        table = Trials(*(column[cell] for column in trials))
        out.append((_aggregate(cfg, k, snr_db, table, float(shares[cell].sum())), table))
    return out


def _mean(values):
    """The mean of a list of floats, nan if empty, summed left to right as Python 3.11's
    ``sum`` does (3.12's compensates), so no aggregate depends on the Python version."""
    return functools.reduce(operator.add, values, 0.0) / len(values) if values else math.nan


def _aggregate(cfg, k, snr_db, trials, wall_time):
    """SweepRow of one grid cell's :class:`Trials`; ``wall_time`` is their blocks' share."""
    t0 = time.perf_counter()
    n, crlbs = len(trials.failed), trials.crlb_value
    mse = _mean(trials.squared_error.tolist())
    mean_crlb = _mean(crlbs[~np.isnan(crlbs)].tolist())
    fail_rate = int(np.count_nonzero(trials.failed)) / n
    # the analytic bound's truth: exact in synthetic mode; a physical cell spreads
    # its mean realized energy in equal shares over its rounded mean sparsity
    if cfg.mode == "synthetic":
        l, energy = cfg.typicality.sparsity, cfg.synthetic_energy
    else:
        l = max(int(round(int(trials.sparsity.sum()) / n)), 1)
        energy = _mean(trials.truth_energy.tolist())
    _, _, missed, wrong = bound_terms(cfg, k, snr_db, energy, l)
    upper = mean_crlb + missed + wrong
    return SweepRow(
        k=int(k), snr_db=float(snr_db), mse=mse, crlb=mean_crlb,
        upper_bound=upper, fail_rate=fail_rate, trials=n,
        wall_time=wall_time + time.perf_counter() - t0,
    )


def run_sweep(cfg, threads=1):
    """Cartesian product of k_values x snr_db_values x trials.

    With ``threads`` > 1, up to that many processes share the grid cells,
    dealt largest K first: this one runs one share, forked children the
    others.  Each share runs its trials in blocks of the block core
    (:func:`_run_share`), and forked children pipe back their rows and the
    columns of their trials.  Results come back in grid and trial-index
    order, the same for any worker count.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    if cfg.estimator == "jt":
        # the search enumerates all C(n, l) supports of each size l a truth can have
        n, cap = cfg.geometry.n_d * cfg.geometry.n_s, cfg.typicality.max_subsets
        total, l = max((math.comb(n, l), l) for l in cfg.support_sizes)
        if total > cap:
            raise ConfigError(f"C({n}, {l}) = {total} subsets exceed max_subsets = {cap}")
    _words_type()  # numpy.random, imported once here rather than by each forked worker
    cells = [(k, snr_db) for k in cfg.k_values for snr_db in cfg.snr_db_values]
    workers = min(threads, len(cells)) if hasattr(os, "fork") else 1
    by_k = sorted(range(len(cells)), key=lambda c: -cells[c][0])
    shares = [sorted(by_k[w::workers]) for w in range(workers)]

    def run(share):
        return list(zip(share, _run_share(cfg, [cells[c] for c in share])))

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
    rows, tables = zip(*(done[c] for c in range(len(cells))))
    return SweepResult(rows=list(rows), trials=Trials(*map(np.concatenate, zip(*tables))))


def export_angular_map(cfg, seed):
    """|angular channel| grid (n_d, n_s), rows MS bins and columns BS bins, and its
    predicted dominant (ms_bin, bs_bin) cells, for heatmap rendering; physical modes only."""
    if cfg.mode == "synthetic":
        raise ConfigError("angular map export requires a physical mode")
    real = physical_stack(cfg, ch.pcg64_seat(seed_words(_mix64(int(seed)))))
    bins = np.flatnonzero(real.predicted_support[0]).tolist()
    cells = tuple(divmod(idx, cfg.geometry.n_s) for idx in bins)
    return np.abs(real.angular[0]), cells


def sweep_csv_lines(result):
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.k},{r.snr_db:.17g},{r.mse:.17g},{r.crlb:.17g},"
            f"{r.upper_bound:.17g},{r.fail_rate:.17g},{r.trials}"
        )
    return lines


def write_lines(lines, path):
    """``lines`` to ``path`` as UTF-8, each ended by a newline (LF on every platform)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(result, path):
    write_lines(sweep_csv_lines(result), path)


def write_trials_csv(trials, path):
    lines = [TRIALS_CSV_HEADER] + [
        f"{k},{snr_db:.17g},{index},{seed},{error:.17g},{crlb:.17g},{int(failed)},{examined}"
        for k, snr_db, index, seed, error, crlb, failed, examined
        in zip(*(column.tolist() for column in trials[:8]))
    ]
    write_lines(lines, path)


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
