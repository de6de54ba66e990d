"""Monte Carlo sweeps over time slots and SNR, with CSV/JSON export.

Reproducibility contract: every trial derives its own 64-bit seed from
(master_seed, k, snr_db bit pattern, trial_index) through a SplitMix64-style
mixer, and truth/pilot/noise each get an independent substream of that seed.
Trials therefore never share generator state and a sweep gives byte-identical
results whatever the worker count.
"""

import contextlib
import json
import math
import os
import pickle
import struct
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import channel as ch
from . import estimator as est
from . import sensing as sn
from .errors import ConfigError, RisCrlbError
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
        energy = l * self.magnitude * self.magnitude if self.mode == "synthetic" else n_s
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
        for k in self.k_values:
            if k <= self.geometry.n_d:
                warnings.warn(
                    f"k={k} <= n_d={self.geometry.n_d}: full-rank sensing not guaranteed",
                    stacklevel=2,
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
    master_seed: int
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


def trial_seed(master_seed, k, snr_db, trial_index):
    """64-bit seed of one trial: the first of :func:`trial_seeds`."""
    return trial_seeds(master_seed, k, snr_db, [trial_index])[0][0]


def trial_seeds(master_seed, k, snr_db, indices):
    """64-bit seeds of the trials ``indices`` of a grid cell and of their substreams.

    The master seed, k, the IEEE-754 bit pattern of snr_db (so any float maps
    to a stable word) and the trial index are mixed in turn, the indices in
    one uint64 pass.  Returns four lists of ints: the trial seeds and their
    substream seeds ``_mix64(seed ^ i)``, i = 1 (truth), 2 (pilots), 3 (noise).
    """
    (snr_bits,) = struct.unpack("<Q", struct.pack("<d", float(snr_db)))
    s = _mix64(master_seed & _MASK)
    for word in (int(k), snr_bits):
        s = _mix64(s ^ (word & _MASK))
    seeds = _mix64(np.asarray(indices, dtype=np.uint64) ^ s)
    return [seeds.tolist()] + [_mix64(seeds ^ i).tolist() for i in (1, 2, 3)]


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


def _draw_truth(cfg, seeds):
    """Angular-domain truths (T, n_d*n_s) and supports drawn from the truth ``seeds``, per mode."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if cfg.mode == "synthetic":
        # the draws of ch.realize_synthetic, without the cascade it derives
        g = cfg.geometry
        return ch.synth_sparse_stack(g.n_d * g.n_s, cfg.typicality.sparsity, rngs, cfg.magnitude)
    real = draw_physical(cfg, rngs)
    return real.sparse_vec, real.support


def run_trial(cfg, k, snr_db, trial_index):
    """Generate truth, pilots and noise, run the configured estimator, record.

    Estimator errors do not abort a sweep; they yield a failed record whose
    squared error is the zero-output penalty ||upsilon||^2.  This is the
    one-trial block of the sweep's block core, so it returns the record the
    sweep has for that trial.
    """
    return _run_block(cfg, k, snr_db, [trial_index])[0]


def _run_block(cfg, k, snr_db, indices):
    """Records of trials ``indices`` of the grid cell (k, snr_db), as stacks.

    Each trial keeps its own generators and their draws, its own
    y = Upsilon upsilon + n on its own matrix and (OMP) its own greedy
    search.  The seeds, the CRLB, the subset search, the least-squares fits
    and the squared errors run on the block's stacks, whose per-matrix
    LAPACK and BLAS calls are those of a single trial, so a record does not
    depend on the block it was computed in.
    """
    g = cfg.geometry
    n_s, n_cols = g.n_s, g.n_d * g.n_s
    seeds, truth_seeds, pilot_seeds, noise_seeds = trial_seeds(
        cfg.master_seed, k, snr_db, indices
    )
    truths, supports = _draw_truth(cfg, truth_seeds)
    energies = np.sum(np.abs(truths) ** 2, axis=-1)

    def record(t, squared_error, crlb_value, failed, examined):
        return TrialRecord(
            k=int(k), snr_db=float(snr_db), trial_index=indices[t], seed=seeds[t],
            squared_error=squared_error, crlb_value=crlb_value, failed=failed,
            subsets_examined=examined, truth_energy=float(energies[t]),
            sparsity=len(supports[t]),
        )

    # a degenerate draw (identically zero channel) is flagged, not estimated
    records = [
        record(t, 0.0, math.nan, True, 0) if not support or energies[t] == 0.0 else None
        for t, support in enumerate(supports)
    ]
    live = [t for t, rec in enumerate(records) if rec is None]
    if not live:
        return records
    noise_var = sn.snr_to_noise_var(snr_db, energies[live], n_s)
    pilots, y = sn.observe_block(
        [pilot_seeds[t] for t in live], k, n_s, truths[live], noise_var,
        [np.random.default_rng(noise_seeds[t]) for t in live],
    )

    estimates = np.zeros((len(live), n_cols), dtype=np.complex128)
    outcome = [None] * len(live)  # (crlb, failed, subsets_examined); None on error
    sizes = np.array([len(supports[t]) for t in live])
    for l in sorted(set(sizes.tolist())):
        group = np.flatnonzero(sizes == l)
        support = np.array([supports[live[i]] for i in group])
        crlbs, ranks = est.crlb_stack(sn.kron_columns(pilots[group], n_s, support), noise_var[group])
        full = ranks >= l
        ok, support, crlbs = group[full], support[full], crlbs[full]
        if cfg.estimator == "omp":
            for i, bound in zip(ok, crlbs):
                mat = sn.kron_columns(pilots[i], n_s, np.arange(n_cols))
                result = est.omp_estimate(y[i], mat, l)
                estimates[i] = result.upsilon_hat
                outcome[i] = (float(bound), result.degenerate, result.subsets_examined)
            continue
        if not ok.size:
            continue
        if cfg.estimator == "genie":
            found = [(tuple(sup), 0.0, 0) for sup in support]  # (support, statistic, examined)
        else:
            try:
                outer, corr = sn.kron_normal(pilots[ok], n_s, y[ok])
                found = est.jt_search(
                    y[ok], outer, n_s, corr, noise_var[ok], replace(cfg.typicality, sparsity=l),
                    lambda rows, subsets: sn.kron_columns(pilots[ok[rows]], n_s, subsets),
                )
            except RisCrlbError:
                continue
        # one stacked fit of every found support; a rank-deficient fit fails its trial
        hit = [r for r, (sup, _stat, _n) in enumerate(found) if sup]
        ranks = np.full(len(found), l)
        if hit:
            rows, cols = ok[hit], np.array([found[r][0] for r in hit])
            estimates[rows[:, None], cols], ranks[hit] = least_squares_stack(
                sn.kron_columns(pilots[rows], n_s, cols), y[rows]
            )
        for r, (i, (sup, _stat, n)) in enumerate(zip(ok, found)):
            if ranks[r] >= l:
                outcome[i] = (float(crlbs[r]), not sup, n)

    errors = est.squared_errors(estimates, truths[live])
    for i, t in enumerate(live):
        if outcome[i] is None:
            records[t] = record(t, float(energies[t]), math.nan, True, 0)
        else:
            records[t] = record(t, float(errors[i]), *outcome[i])
    return records


def bound_terms(cfg, k, snr_db, energy, l):
    """Noise variance, threshold and the two analytic penalty terms of a grid point.

    The truth is modelled as ``l`` equal-share entries of total ``energy``.
    Returns ``(noise_var, delta, missed_term, wrong_support_term)``; the
    sweep's ``upper_bound`` and the ``crlb`` table each add their own CRLB.
    Both terms, and the default delta, need k * n_s > l; below that they are
    nan.
    """
    kns = k * cfg.geometry.n_s
    noise_var = sn.snr_to_noise_var(snr_db, energy, cfg.geometry.n_s)
    delta = cfg.typicality.delta
    if kns <= l:
        return noise_var, math.nan if delta is None else delta, math.nan, math.nan
    if delta is None:
        delta = est.default_delta(noise_var, kns, l)
    template = np.zeros(cfg.geometry.n_d * cfg.geometry.n_s, dtype=np.complex128)
    template[:l] = math.sqrt(energy / l)
    missed = est.missed_detection_term(energy, noise_var, delta, kns, l)
    wrong = est.wrong_support_term(template, tuple(range(l)), noise_var, delta, kns, l)
    return noise_var, delta, missed, wrong


def _analytic_upper_bound(cfg, k, snr_db, mean_crlb, mean_truth_energy, mean_sparsity):
    """Sweep-level bound: mean per-realization CRLB plus the analytic terms.

    In synthetic mode the truth statistics are exact (L entries of the
    configured magnitude); physical modes use the mean realized energy
    spread in equal shares, an approximation noted in the JSON metadata.
    """
    if cfg.mode == "synthetic":
        l = cfg.typicality.sparsity
        energy = l * cfg.magnitude**2
    else:
        l = max(int(round(mean_sparsity)), 1)
        energy = mean_truth_energy
    _, _, missed, wrong = bound_terms(cfg, k, snr_db, energy, l)
    return mean_crlb + missed + wrong


def _run_cell(cfg, k, snr_db, keep_trials):
    """SweepRow of one grid cell, and its records when ``keep_trials``."""
    t0 = time.perf_counter()
    size = max(_BLOCK_BYTES // (16 * k * cfg.geometry.n_s), 1)
    records = []
    for start in range(0, cfg.trials, size):
        records += _run_block(cfg, k, snr_db, range(start, min(start + size, cfg.trials)))
    n = len(records)
    mse = sum(r.squared_error for r in records) / n
    crlb_vals = [r.crlb_value for r in records if not math.isnan(r.crlb_value)]
    mean_crlb = sum(crlb_vals) / len(crlb_vals) if crlb_vals else math.nan
    fail_rate = sum(1 for r in records if r.failed) / n
    mean_energy = sum(r.truth_energy for r in records) / n
    mean_sparsity = sum(r.sparsity for r in records) / n
    upper = _analytic_upper_bound(cfg, k, snr_db, mean_crlb, mean_energy, mean_sparsity)
    row = SweepRow(
        k=int(k), snr_db=float(snr_db), mse=mse, crlb=mean_crlb,
        upper_bound=upper, fail_rate=fail_rate, trials=n,
        wall_time=time.perf_counter() - t0,
    )
    return row, records if keep_trials else []


def run_sweep(cfg, threads=1, keep_trials=False):
    """Cartesian product of k_values x snr_db_values x trials.

    Each grid cell runs its trials in blocks of the block core.  With
    ``threads`` > 1, up to that many processes share the cells, dealt largest
    K first: this one runs one share, forked children the others.  Results
    come back in grid and trial-index order, the same for any worker count.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    cells = [(k, snr_db) for k in cfg.k_values for snr_db in cfg.snr_db_values]
    workers = min(threads, len(cells)) if hasattr(os, "fork") else 1
    by_k = sorted(range(len(cells)), key=lambda c: -cells[c][0])
    shares = [sorted(by_k[w::workers]) for w in range(workers)]

    def run(share):
        return [(c, _run_cell(cfg, *cells[c], keep_trials)) for c in share]

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
    return SweepResult(
        rows=list(rows), master_seed=cfg.master_seed,
        trial_records=[r for cell in records for r in cell],
    )


@dataclass
class AngularMap:
    """Dense magnitude grid of the angular-domain channel with bin labels."""

    magnitudes: np.ndarray   # (n_d, n_s): rows are MS bins, cols BS bins
    ms_bins: tuple
    bs_bins: tuple
    mode: str
    dominant_cells: tuple    # predicted (ms_bin, bs_bin) pairs


def export_angular_map(cfg, seed):
    """|angular channel| grid for heatmap rendering; physical modes only."""
    if cfg.mode == "synthetic":
        raise ConfigError("angular map export requires a physical mode")
    real = draw_physical(cfg, [np.random.default_rng(_mix64(int(seed)))])
    cells = tuple(
        (idx // cfg.geometry.n_s, idx % cfg.geometry.n_s)
        for idx in real.predicted_support[0]
    )
    return AngularMap(
        magnitudes=np.abs(real.angular[0]),
        ms_bins=tuple(range(cfg.geometry.n_d)),
        bs_bins=tuple(range(cfg.geometry.n_s)),
        mode=cfg.mode,
        dominant_cells=cells,
    )


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


def write_sweep_json(result, cfg, path):
    """JSON mirror of the CSV with the full config embedded for provenance."""
    payload = {
        "config": asdict(cfg),
        "master_seed": result.master_seed,
        "snr_definition": "sigma^2 = (||upsilon||^2 / n_s) * 10^(-snr_db/10)",
        "delta_rule": "4*sigma^2*sqrt(k*n_s - L)/(k*n_s) unless overridden",
        "rows": [
            {
                "k": r.k, "snr_db": r.snr_db, "mse": r.mse, "crlb": r.crlb,
                "upper_bound": r.upper_bound, "fail_rate": r.fail_rate,
                "trials": r.trials,
            }
            for r in result.rows
        ],
        "wall_time": {f"{r.k},{r.snr_db}": r.wall_time for r in result.rows},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
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


def parse_config_text(text):
    """Parse the flat key=value experiment format into an ExperimentConfig."""
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

    fields, members = {}, {}
    for key, val in values.items():
        name, member, parse = _CONFIG_KEYS[key]
        try:
            value = parse(val)
        except ValueError as exc:
            raise ConfigError(f"line {first_line[key]}: field {key!r}: bad value {val!r}") from exc
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


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
