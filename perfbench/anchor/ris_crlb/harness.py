"""Monte Carlo sweeps over time slots and SNR, with CSV/JSON export.

Reproducibility contract: every trial derives its own 64-bit seed from
(master_seed, k, snr_db bit pattern, trial_index) through a SplitMix64-style
mixer, and truth/pilot/noise each get an independent substream of that seed.
Trials therefore never share generator state and a sweep gives byte-identical
results whatever the thread count.
"""

import json
import math
import struct
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import channel as ch
from . import estimator as est
from . import sensing as sn
from .errors import ConfigError, RisCrlbError

MODES = ("synthetic", "physical_on_grid", "physical_off_grid")
ESTIMATORS = ("jt", "genie", "omp")

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
        if len(self.snr_db_values) == 0:
            raise ConfigError("snr_db_values must be nonempty")
        if self.magnitude <= 0:
            raise ConfigError("magnitude must be positive")
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
    """SplitMix64 finalizer; the documented integer hash behind seed splitting."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def trial_seed(master_seed, k, snr_db, trial_index):
    """64-bit trial seed mixed from the master seed and the trial coordinates.

    snr_db enters through its IEEE-754 bit pattern so any float value maps
    to a stable word.
    """
    (snr_bits,) = struct.unpack("<Q", struct.pack("<d", float(snr_db)))
    s = _mix64(master_seed & _MASK)
    for word in (int(k), snr_bits, int(trial_index)):
        s = _mix64(s ^ (word & _MASK))
    return s


def _substream(seed, index):
    return np.random.default_rng(_mix64(seed ^ index))


def _draw_truth(cfg, seed):
    """Mode-dependent ground truth realization for one trial."""
    rng = _substream(seed, 1)
    if cfg.mode == "synthetic":
        return ch.realize_synthetic(
            cfg.geometry, cfg.typicality.sparsity, rng, cfg.magnitude
        )
    on_grid = cfg.mode == "physical_on_grid"
    hop1 = ch.draw_hop(
        cfg.geometry, cfg.hop_bs_ris.n_paths, ch.BS_TO_RIS, rng, on_grid,
        path_loss=cfg.hop_bs_ris.path_loss,
    )
    hop2 = ch.draw_hop(
        cfg.geometry, cfg.hop_ris_ms.n_paths, ch.RIS_TO_MS, rng, on_grid,
        path_loss=cfg.hop_ris_ms.path_loss,
    )
    return ch.realize_physical(cfg.geometry, hop1, hop2, rng, on_grid=on_grid)


def run_trial(cfg, k, snr_db, trial_index):
    """Generate truth, pilots and noise, run the configured estimator, record.

    Estimator errors do not abort a sweep; they yield a failed record whose
    squared error is the zero-output penalty ||upsilon||^2.
    """
    seed = trial_seed(cfg.master_seed, k, snr_db, trial_index)
    realization = _draw_truth(cfg, seed)
    truth = realization.sparse_vec
    support = realization.support
    sparsity = len(support)
    truth_energy = float(np.sum(np.abs(truth) ** 2))
    if sparsity == 0 or truth_energy == 0.0:
        # degenerate draw (identically zero channel); flag instead of aborting
        return TrialRecord(
            k=int(k), snr_db=float(snr_db), trial_index=trial_index, seed=seed,
            squared_error=0.0, crlb_value=math.nan, failed=True, subsets_examined=0,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # config already warned about small k
        pilots = sn.gen_pilots(sn.PilotConfig(cfg.geometry.n_d, k, _mix64(seed ^ 2)))
    model = sn.measurement_model(pilots, cfg.geometry.n_s)
    model.noise_var = sn.snr_to_noise_var(snr_db, model, truth)
    obs = sn.observe(model, truth, _substream(seed, 3), support)

    try:
        crlb_value = est.crlb(model.upsilon_mat, support, model.noise_var)
        if cfg.estimator == "jt":
            tcfg = replace(cfg.typicality, sparsity=sparsity)
            result = est.jt_estimate(obs.y, model.upsilon_mat, tcfg, model.noise_var)
            estimate, failed, examined = result.upsilon_hat, result.failed, result.subsets_examined
        elif cfg.estimator == "genie":
            estimate = est.genie_ls(obs.y, model.upsilon_mat, support)
            failed, examined = False, 0
        else:
            result = est.omp_estimate(obs.y, model.upsilon_mat, sparsity)
            estimate, failed, examined = result.upsilon_hat, result.degenerate, result.subsets_examined
        sq_err = est.squared_error(estimate, truth)
    except RisCrlbError:
        return TrialRecord(
            k=int(k), snr_db=float(snr_db), trial_index=trial_index, seed=seed,
            squared_error=truth_energy, crlb_value=math.nan,
            failed=True, subsets_examined=0,
        )
    return TrialRecord(
        k=int(k), snr_db=float(snr_db), trial_index=trial_index, seed=seed,
        squared_error=sq_err, crlb_value=crlb_value,
        failed=failed, subsets_examined=examined,
    )


def _analytic_upper_bound(cfg, k, snr_db, mean_crlb, mean_truth_energy, mean_sparsity):
    """Sweep-level bound: mean per-realization CRLB plus the analytic terms.

    In synthetic mode the truth statistics are exact (L entries of the
    configured magnitude); physical modes use the mean realized energy
    spread in equal shares, an approximation noted in the JSON metadata.
    """
    kns = k * cfg.geometry.n_s
    if cfg.mode == "synthetic":
        l = cfg.typicality.sparsity
        energy = l * cfg.magnitude**2
    else:
        l = max(int(round(mean_sparsity)), 1)
        energy = mean_truth_energy
    if kns <= l:
        return math.nan
    noise_var = (energy / cfg.geometry.n_s) * 10.0 ** (-snr_db / 10.0)
    delta = cfg.typicality.delta
    if delta is None:
        delta = est.default_delta(noise_var, kns, l)
    template = np.zeros(cfg.geometry.n_d * cfg.geometry.n_s, dtype=np.complex128)
    template[:l] = math.sqrt(energy / l)
    t1 = est.missed_detection_term(energy, noise_var, delta, kns, l)
    t3 = est.wrong_support_term(template, tuple(range(l)), noise_var, delta, kns, l)
    return mean_crlb + t1 + t3


def run_sweep(cfg, threads=1, keep_trials=False):
    """Cartesian product of k_values x snr_db_values x trials.

    Aggregation is a fixed-order (trial index) reduction so results are
    identical for any thread count.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    rows = []
    all_records = []
    for k in cfg.k_values:
        for snr_db in cfg.snr_db_values:
            t0 = time.perf_counter()
            if threads == 1:
                records = [run_trial(cfg, k, snr_db, t) for t in range(cfg.trials)]
            else:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    records = list(
                        pool.map(lambda t: run_trial(cfg, k, snr_db, t), range(cfg.trials))
                    )
            n = len(records)
            mse = sum(r.squared_error for r in records) / n
            crlb_vals = [r.crlb_value for r in records if not math.isnan(r.crlb_value)]
            mean_crlb = sum(crlb_vals) / len(crlb_vals) if crlb_vals else math.nan
            fail_rate = sum(1 for r in records if r.failed) / n
            mean_energy = 0.0
            mean_sparsity = cfg.typicality.sparsity
            if cfg.mode != "synthetic":
                # re-derive realized truth statistics for the analytic bound
                energies, sizes = [], []
                for r in records:
                    real = _draw_truth(cfg, r.seed)
                    energies.append(float(np.sum(np.abs(real.sparse_vec) ** 2)))
                    sizes.append(len(real.support))
                mean_energy = sum(energies) / n
                mean_sparsity = sum(sizes) / n
            upper = _analytic_upper_bound(cfg, k, snr_db, mean_crlb, mean_energy, mean_sparsity)
            rows.append(
                SweepRow(
                    k=int(k), snr_db=float(snr_db), mse=mse, crlb=mean_crlb,
                    upper_bound=upper, fail_rate=fail_rate, trials=n,
                    wall_time=time.perf_counter() - t0,
                )
            )
            if keep_trials:
                all_records.extend(records)
    return SweepResult(rows=rows, master_seed=cfg.master_seed, trial_records=all_records)


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
    on_grid = cfg.mode == "physical_on_grid"
    rng = np.random.default_rng(_mix64(int(seed)))
    hop1 = ch.draw_hop(
        cfg.geometry, cfg.hop_bs_ris.n_paths, ch.BS_TO_RIS, rng, on_grid,
        path_loss=cfg.hop_bs_ris.path_loss,
    )
    hop2 = ch.draw_hop(
        cfg.geometry, cfg.hop_ris_ms.n_paths, ch.RIS_TO_MS, rng, on_grid,
        path_loss=cfg.hop_ris_ms.path_loss,
    )
    real = ch.realize_physical(cfg.geometry, hop1, hop2, rng, on_grid=on_grid)
    cells = tuple(
        (idx // cfg.geometry.n_s, idx % cfg.geometry.n_s)
        for idx in real.predicted_support
    )
    return AngularMap(
        magnitudes=np.abs(real.angular),
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


def config_to_dict(cfg):
    d = asdict(cfg)
    d["typicality"] = asdict(cfg.typicality)
    return d


def write_sweep_json(result, cfg, path):
    """JSON mirror of the CSV with the full config embedded for provenance."""
    payload = {
        "config": config_to_dict(cfg),
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

_CONFIG_KEYS = (
    "n_s", "n_d", "n_r_h", "n_r_w", "spacing_ratio",
    "paths_bs_ris", "paths_ris_ms", "path_loss_bs_ris", "path_loss_ris_ms",
    "mode", "k_values", "snr_db_values", "trials", "master_seed",
    "estimator", "sparsity", "delta", "search_order", "max_subsets",
    "magnitude",
)


def parse_config_text(text):
    """Parse the flat key=value experiment format into an ExperimentConfig."""
    values = {}
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
        values[key] = val.strip()

    def get_int(key, default):
        try:
            return int(values[key]) if key in values else default
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: not an integer: {values[key]!r}") from exc

    def get_float(key, default):
        try:
            return float(values[key]) if key in values else default
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: not a number: {values[key]!r}") from exc

    def get_list(key, default, cast):
        if key not in values:
            return default
        try:
            return tuple(cast(tok) for tok in values[key].replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: bad list: {values[key]!r}") from exc

    geometry = ch.Geometry(
        n_s=get_int("n_s", 5),
        n_d=get_int("n_d", 5),
        n_r_h=get_int("n_r_h", 2),
        n_r_w=get_int("n_r_w", 5),
        spacing_ratio=get_float("spacing_ratio", 0.5),
    )
    typicality = est.TypicalityConfig(
        delta=get_float("delta", None) if "delta" in values else None,
        sparsity=get_int("sparsity", 1),
        search_order=values.get("search_order", est.LEXICOGRAPHIC_FIRST),
        max_subsets=get_int("max_subsets", None) if "max_subsets" in values else None,
    )
    mode = values.get("mode", "synthetic")
    estimator = values.get("estimator", "jt")
    try:
        return ExperimentConfig(
            geometry=geometry,
            hop_bs_ris=HopSpec(
                get_int("paths_bs_ris", 1),
                get_float("path_loss_bs_ris", None) if "path_loss_bs_ris" in values else None,
            ),
            hop_ris_ms=HopSpec(
                get_int("paths_ris_ms", 1),
                get_float("path_loss_ris_ms", None) if "path_loss_ris_ms" in values else None,
            ),
            mode=mode,
            k_values=get_list("k_values", (8, 12, 16, 20, 28, 40, 60, 80), int),
            snr_db_values=get_list("snr_db_values", (20.0, 30.0, 40.0), float),
            trials=get_int("trials", 1000),
            master_seed=get_int("master_seed", 20260801),
            estimator=estimator,
            typicality=typicality,
            magnitude=get_float("magnitude", 1.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)
