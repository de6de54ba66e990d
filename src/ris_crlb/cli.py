"""Command line front end.

Subcommands:

* ``sweep``        Monte Carlo MSE/CRLB sweep, CSV + JSON mirror output
* ``angular-map``  dense |angular channel| grid for heatmap rendering
* ``crlb``         CRLB / analytic-bound table without Monte Carlo
* ``selftest``     quick invariant battery, nonzero exit on any failure
"""

import argparse
import os
import sys

# each forked sweep worker would start a BLAS pool as wide as the machine:
# pin BLAS to one thread, before numpy loads, unless the user has set it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import channel as ch
from . import estimator as est
from . import harness as hn
from . import numerics as nm
from . import sensing as sn
from .errors import ConfigError, RisCrlbError

_CLI_MODES = {
    "synthetic": "synthetic",
    "on-grid": "physical_on_grid",
    "off-grid": "physical_off_grid",
}


def _thread_count(args):
    if args.threads is not None:
        return args.threads
    env = os.environ.get("RIS_CRLB_THREADS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"RIS_CRLB_THREADS must be an integer, got {env!r}")
    return 1


def _load_config(args):
    """The config file (or the defaults) with each given flag replacing its key, built once."""
    flags = {
        "master_seed": getattr(args, "seed", None),
        "trials": getattr(args, "trials", None),
        "estimator": getattr(args, "estimator", None),
        "mode": _CLI_MODES.get(getattr(args, "mode", None)),
        "delta": getattr(args, "delta", None),
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config is not None:
        return hn.load_config(args.config, overrides)
    return hn.parse_config_text("", overrides)


def _sweep_files(out):
    """The JSON mirror and the per-trial CSV that a sweep writes beside ``out``."""
    stem = os.path.splitext(out)[0] or out
    return stem + ".json", stem + "_trials.csv"


def _check_out(path, command):
    """Reject an ``--out`` file that cannot be written, before any trial runs;
    a sweep writes its other files beside it, so none of them may be ``path``."""
    folder = os.path.dirname(path) or "."
    if not path or os.path.isdir(path):
        raise ConfigError(f"--out {path!r}: not a file name")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"--out {path!r}: no writable directory {folder}")
    if command == "sweep" and path in _sweep_files(path):
        raise ConfigError(f"--out {path!r}: a file the sweep writes beside it would overwrite it")


def _cmd_sweep(args):
    cfg = _load_config(args)
    result = hn.run_sweep(cfg, threads=_thread_count(args))
    json_path, trials_path = _sweep_files(args.out)
    hn.write_sweep_csv(result, args.out)
    hn.write_sweep_json(result, cfg, json_path)
    if args.per_trial:
        hn.write_trials_csv(result.trials, trials_path)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_angular_map(args):
    cfg = _load_config(args)
    magnitudes, cells = hn.export_angular_map(cfg, cfg.master_seed)
    n_d, n_s = magnitudes.shape
    lines = [
        f"# angular-domain channel magnitudes, mode={cfg.mode}",
        f"# rows: MS bins (n_d={n_d}), cols: BS bins (n_s={n_s})",
        f"# predicted dominant cells (ms_bin, bs_bin): {list(cells)}",
        "ms_bin," + ",".join(str(b) for b in range(n_s)),
    ]
    for n, row in enumerate(magnitudes):
        lines.append(f"{n}," + ",".join(format(v, ".17g") for v in row))
    hn.write_lines(lines, args.out)
    print(f"wrote {n_d}x{n_s} grid to {args.out}")
    return 0


def _cmd_crlb(args):
    """One deterministic pilot draw per K, its CRLB by the sweep's Gram-domain fit_columns."""
    cfg = _load_config(args)
    if cfg.mode != "synthetic":
        raise ConfigError("the crlb table is defined for synthetic mode")
    l, energy, n_s = cfg.typicality.sparsity, cfg.synthetic_energy, cfg.geometry.n_s
    lines = ["k,snr_db,noise_var,delta,crlb,missed_term,wrong_support_term,upper_bound"]
    cols = np.arange(l)[None]
    for k in cfg.k_values:
        seed = int(hn.trial_seeds(cfg.master_seed, k, 0.0, [0])[0, 0])
        pilots = sn.gen_pilots(cfg.geometry.n_d, k, seed)[None]
        outer, _ = sn.kron_normal(pilots, n_s, np.zeros((1, k * n_s)))
        (trace,), (full,), _ = nm.fit_columns(outer, n_s, cols)
        for snr_db in cfg.snr_db_values:
            noise_var, delta, missed, wrong = hn.bound_terms(cfg, k, snr_db, energy, l)
            crlb = float(noise_var * trace) if full else np.nan  # as a sweep does
            row = (snr_db, noise_var, delta, crlb, missed, wrong, crlb + missed + wrong)
            lines.append(f"{k}," + ",".join(format(v, ".17g") for v in row))
    if args.out:
        hn.write_lines(lines, args.out)
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _selftest_checks():
    rng = np.random.default_rng(7)
    geom = ch.Geometry(5, 5, 2, 5)

    def dft_unitary():
        for n in (1, 2, 5, 16):
            u = nm.dft_matrix(n)
            if np.max(np.abs(u.conj().T @ u - np.eye(n))) >= 1e-10:
                return False
        return True

    def vec_identity():
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        x = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        lhs = nm.vec(m @ x)
        rhs = sn.measurement_matrix(x, 4) @ nm.vec(m)
        return np.max(np.abs(lhs - rhs)) < 1e-10

    def projector_props():
        a = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        p = nm.projector_complement(a)
        return (
            np.max(np.abs(p @ p - p)) < 1e-9
            and np.max(np.abs(p - p.conj().T)) < 1e-9
            and np.max(np.abs(p @ a)) < 1e-9
        )

    def measurement_rank():
        mat = sn.measurement_matrix(sn.gen_pilots(5, 20, 11), 5)
        return bool(nm.full_rank(np.linalg.eigvalsh(mat.conj().T @ mat)))

    def cascade_energy():
        cfg = hn.default_config(geometry=geom, mode="physical_off_grid")
        real = hn.physical_stack(cfg, ch.pcg64_seat(hn.seed_words(7)))
        cascade, upsilon = real.cascade[0], real.sparse_vec[0]
        return abs(
            np.linalg.norm(cascade) - np.linalg.norm(upsilon)
        ) < 1e-10 * max(np.linalg.norm(cascade), 1.0)

    def noiseless_recovery():
        # one cell of the sweep's block core: sigma^2 = 0.2 * 10^-400 underflows to 0
        cfg = hn.default_config(
            k_values=(20,), snr_db_values=(4000.0,), trials=100,
            typicality=est.TypicalityConfig(delta=1e-9, sparsity=2),
        )
        (row,) = hn.run_sweep(cfg).rows
        return row.fail_rate == 0 and row.mse < 1e-18

    def genie_matches_crlb():
        # one cell of the sweep's block core: a 2,000-trial genie sweep
        cfg = hn.default_config(
            k_values=(20,), snr_db_values=(20.0,), trials=2000, estimator="genie"
        )
        (row,) = hn.run_sweep(cfg).rows
        return row.fail_rate == 0 and abs(row.mse / row.crlb - 1.0) < 0.1

    return (
        ("dft unitarity", dft_unitary),
        ("vectorization identity", vec_identity),
        ("complement projector", projector_props),
        ("measurement matrix rank", measurement_rank),
        ("cascade energy invariance", cascade_energy),
        ("noiseless jt recovery", noiseless_recovery),
        ("genie attains crlb", genie_matches_crlb),
    )


def _cmd_selftest(_args):
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crash is a failure, keep going
            ok = False
            print(f"  error: {exc}", file=sys.stderr)
        print(f"{'ok  ' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ris-crlb",
        description="Cascade channel estimation experiments: joint-typicality "
        "recovery versus the CRLB.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--config", help="flat key=value experiment config file")
        p.add_argument("--seed", type=int, help="master seed override")
        if with_out:
            p.add_argument("--out", required=True, help="output CSV path")

    p_sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--trials", type=int, help="trials per grid point")
    p_sweep.add_argument("--per-trial", action="store_true", help="also write per-trial records")
    p_sweep.add_argument("--estimator", choices=sorted(hn.ESTIMATORS))
    p_sweep.add_argument("--mode", choices=sorted(_CLI_MODES))
    p_sweep.add_argument("--delta", type=float, help="typicality threshold override")
    p_sweep.add_argument("--threads", type=int, help="worker processes (env RIS_CRLB_THREADS)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_map = sub.add_parser("angular-map", help="export an angular-domain magnitude grid")
    add_common(p_map)
    p_map.add_argument("--mode", choices=("on-grid", "off-grid"))
    p_map.set_defaults(func=_cmd_angular_map)

    p_crlb = sub.add_parser("crlb", help="print the CRLB / bound table")
    add_common(p_crlb, with_out=False)
    p_crlb.add_argument("--out", help="optional output CSV path (default stdout)")
    p_crlb.add_argument("--delta", type=float, help="typicality threshold override")
    p_crlb.set_defaults(func=_cmd_crlb)

    p_self = sub.add_parser("selftest", help="run the quick invariant battery")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out, args.command)
        return args.func(args)
    except RisCrlbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
