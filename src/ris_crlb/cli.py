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
from dataclasses import replace

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
    if args.config is not None:
        cfg = hn.load_config(args.config)
    else:
        cfg = hn.default_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials=args.trials)
    if getattr(args, "estimator", None) is not None:
        cfg = replace(cfg, estimator=args.estimator)
    if getattr(args, "mode", None) is not None:
        cfg = replace(cfg, mode=_CLI_MODES[args.mode])
    if getattr(args, "delta", None) is not None:
        try:
            typicality = replace(cfg.typicality, delta=args.delta)
        except ValueError as exc:
            raise ConfigError(f"--delta: {exc}") from exc
        cfg = replace(cfg, typicality=typicality)
    return cfg


def _cmd_sweep(args):
    cfg = _load_config(args)
    threads = _thread_count(args)
    result = hn.run_sweep(cfg, threads=threads, keep_trials=args.per_trial)
    hn.write_sweep_csv(result, args.out)
    stem = os.path.splitext(args.out)[0] or args.out
    hn.write_sweep_json(result, cfg, stem + ".json")
    if args.per_trial:
        hn.write_trials_csv(result.trial_records, stem + "_trials.csv")
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_angular_map(args):
    cfg = _load_config(args)
    amap = hn.export_angular_map(cfg, args.seed if args.seed is not None else cfg.master_seed)
    lines = [
        f"# angular-domain channel magnitudes, mode={amap.mode}",
        f"# rows: MS bins (n_d={len(amap.ms_bins)}), cols: BS bins (n_s={len(amap.bs_bins)})",
        f"# predicted dominant cells (ms_bin, bs_bin): {list(amap.dominant_cells)}",
        "ms_bin," + ",".join(str(b) for b in amap.bs_bins),
    ]
    for n, row in zip(amap.ms_bins, amap.magnitudes):
        lines.append(f"{n}," + ",".join(format(v, ".17g") for v in row))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {amap.magnitudes.shape[0]}x{amap.magnitudes.shape[1]} grid to {args.out}")
    return 0


def _cmd_crlb(args):
    """One deterministic pilot draw per K; no trial loop."""
    cfg = _load_config(args)
    if cfg.mode != "synthetic":
        raise ConfigError("the crlb table is defined for synthetic mode")
    l = cfg.typicality.sparsity
    energy = l * cfg.magnitude**2
    lines = ["k,snr_db,noise_var,delta,crlb,missed_term,wrong_support_term,upper_bound"]
    for k in cfg.k_values:
        pilots = sn.gen_pilots(
            sn.PilotConfig(cfg.geometry.n_d, k, hn.trial_seed(cfg.master_seed, k, 0.0, 0))
        )
        mat = sn.measurement_matrix(pilots, cfg.geometry.n_s)
        for snr_db in cfg.snr_db_values:
            noise_var, delta, missed, wrong = hn.bound_terms(cfg, k, snr_db, energy, l)
            crlb = est.crlb(mat, range(l), noise_var)
            row = (snr_db, noise_var, delta, crlb, missed, wrong, crlb + missed + wrong)
            lines.append(f"{k}," + ",".join(format(v, ".17g") for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(lines) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
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
        rhs = nm.kron(x.T, np.eye(4)) @ nm.vec(m)
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
        pilots = sn.gen_pilots(sn.PilotConfig(5, 20, 11))
        return nm.numeric_rank(sn.measurement_matrix(pilots, 5)) == 25

    def cascade_energy():
        cfg = hn.default_config(geometry=geom, mode="physical_off_grid")
        real = hn.draw_physical(cfg, [rng])
        cascade, upsilon = real.cascade[0], real.sparse_vec[0]
        return abs(
            np.linalg.norm(cascade) - np.linalg.norm(upsilon)
        ) < 1e-10 * max(np.linalg.norm(cascade), 1.0)

    def noiseless_recovery():
        real = ch.realize_synthetic(geom, 1, np.random.default_rng(3))
        pilots = sn.gen_pilots(sn.PilotConfig(5, 20, 5))
        model = sn.measurement_model(pilots, 5, noise_var=0.0)
        obs = sn.observe(model, real.sparse_vec, np.random.default_rng(4), real.support)
        cfg = est.TypicalityConfig(delta=1e-9, sparsity=1)
        res = est.jt_estimate(obs.y, model.upsilon_mat, cfg, 0.0)
        return res.support == real.support and est.squared_error(
            res.upsilon_hat, real.sparse_vec
        ) < 1e-18

    def genie_matches_crlb():
        real = ch.realize_synthetic(geom, 1, np.random.default_rng(9))
        pilots = sn.gen_pilots(sn.PilotConfig(5, 20, 13))
        model = sn.measurement_model(pilots, 5)
        energy = float(np.sum(np.abs(real.sparse_vec) ** 2))
        model.noise_var = sn.snr_to_noise_var(20.0, energy, model.n_s)
        bound = est.crlb(model.upsilon_mat, real.support, model.noise_var)
        draws = 2000
        errs = 0.0
        for i in range(draws):
            obs = sn.observe(model, real.sparse_vec, np.random.default_rng(100 + i), real.support)
            errs += est.squared_error(
                est.genie_ls(obs.y, model.upsilon_mat, real.support), real.sparse_vec
            )
        return abs(errs / draws / bound - 1.0) < 0.1

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
    p_sweep.add_argument("--threads", type=int, help="worker threads (env RIS_CRLB_THREADS)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_map = sub.add_parser("angular-map", help="export an angular-domain magnitude grid")
    add_common(p_map)
    p_map.add_argument("--mode", choices=("on-grid", "off-grid"))
    p_map.set_defaults(func=_cmd_angular_map)

    p_crlb = sub.add_parser("crlb", help="print the CRLB / bound table")
    p_crlb.add_argument("--config", help="flat key=value experiment config file")
    p_crlb.add_argument("--seed", type=int, help="master seed override")
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
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RisCrlbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
