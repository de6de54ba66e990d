"""Sweep benchmark for ris-crlb.

Usage (from the repository root):

    python3 perfbench/run.py --workload jt-default --seed 1 --seconds 25 --trace 0

Each sweep is a `ris-crlb sweep` run through `ris_crlb.cli.main` in a fresh
child process (`child.py`), with BLAS pinned to one thread.  The load is
closed-loop with one caller: a sweep starts only after the previous one has
exited.

The program under test is `src/` of this checkout.  `anchor/` holds a frozen
copy of the package as it was when the benchmark was defined.  With
`--trace 0`, a run makes timed sweeps in pairs: the program and the anchor,
on the same master seed drawn from `--seed`, in alternating order.  The
anchor's output is the expected output of the program's sweep, and the ratio
of the two throughputs cancels the drift of a shared machine's speed.
With `--trace 1` a run alternates untraced and traced sweeps of the program
and reports the per-layer metrics of `tracer.py` plus the tracing overhead.

Every run starts with untimed warm-up sweeps at the reference master seed,
checked against the stored CSVs in `reference/`.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the program
to benchmark is missing.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ANCHOR = HERE / "anchor"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

REFERENCE_SEED = 20260801
K_VALUES = (8, 12, 16, 20, 28, 40, 60, 80)
SNR_DB_VALUES = (20.0, 30.0, 40.0)
# largest relative deviation of a float column from the expected output that
# still counts as correct
REL_TOL = 1e-9
MIN_TIMED = 3
# a run ends within this many seconds whatever happens to its children
HARD_LIMIT_S = 170.0
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def nproc():
    return len(os.sched_getaffinity(0))


# name -> sweep definition.  `reference` names the stored reference outputs;
# jt-default-mt shares jt-default's, because thread count must not change them.
WORKLOADS = {
    "jt-default": dict(
        config="", trials=25, threads=1, per_trial=True, reference="jt-default",
    ),
    "jt-sparse2": dict(
        config="sparsity = 2\n", trials=4, threads=1, per_trial=False,
        reference="jt-sparse2",
    ),
    "genie-offgrid": dict(
        config="mode = physical_off_grid\nestimator = genie\n", trials=25, threads=1,
        per_trial=False, reference="genie-offgrid",
    ),
    "jt-default-mt": dict(
        config="", trials=25, threads=None, per_trial=False, reference="jt-default",
    ),
}

END_TO_END = {"speedup_vs_seed": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {**{n: u for n, (u, _b) in tracer.LAYER_METRICS.items()}, "trace_overhead_pct": "%"}
# printed with the metrics; they decide `correct` and `failed` instead
REPORTED = {"trials_per_s": "1/s", "anchor_trials_per_s": "1/s",
            "max_rel_err": "1", "failed_run_share": "1"}

CSV_HEADER = "k,snr_db,mse,crlb,upper_bound,fail_rate,trials"
TRIALS_CSV_HEADER = "k,snr_db,trial_index,seed,squared_error,crlb,failed,subsets_examined"
FLOAT_COLUMNS = {"csv": ("mse", "crlb", "upper_bound"), "trials_csv": ("squared_error", "crlb")}


def workload_threads(wl):
    return wl["threads"] if wl["threads"] is not None else nproc()


def trials_per_sweep(wl):
    return wl["trials"] * len(K_VALUES) * len(SNR_DB_VALUES)


def config_text(wl):
    return (
        f"k_values = {', '.join(str(k) for k in K_VALUES)}\n"
        f"snr_db_values = {', '.join(format(s, 'g') for s in SNR_DB_VALUES)}\n"
        f"trials = {wl['trials']}\n" + wl["config"]
    )


def child_env(src=SRC):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "RIS_CRLB_THREADS")}
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = str(src)
    env["PERFBENCH_SRC"] = str(src)
    return env


def git_commit():
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment_manifest():
    """Machine and software the numbers were measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": dict(BLAS_PINS),
        "git_commit": git_commit(),
    }


def stored_reference(wl, references):
    """The stored outputs at the reference seed, shaped like run_child's `outputs`."""
    entry = references["workloads"][wl["reference"]]
    return {
        "csv": (REFERENCE / entry["csv"]).read_bytes(),
        "trials_csv": (REFERENCE / entry["trials_csv"]).read_bytes() if wl["per_trial"] else None,
    }


# --- output checks ---------------------------------------------------------

def _rel_err(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / abs(b) if b != 0 else math.inf


def compare_csv(text, ref_text, float_cols):
    """(max relative error over `float_cols`, whether every other column matches)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    ref_rows = list(csv.DictReader(io.StringIO(ref_text)))
    if len(rows) != len(ref_rows) or (rows and rows[0].keys() != ref_rows[0].keys()):
        return math.inf, False
    err, exact = 0.0, True
    for row, ref in zip(rows, ref_rows):
        for col in ref:
            if col in float_cols:
                err = max(err, _rel_err(float(row[col]), float(ref[col])))
            elif row[col] != ref[col]:
                exact = False
    return err, exact


def structural_errors(outputs, wl):
    """Problems with a sweep's output that show without knowing the expected bytes."""
    text = outputs["csv"].decode("utf-8")
    if text.splitlines()[:1] != [CSV_HEADER]:
        return ["aggregate CSV header differs"]
    errors = []
    grid = [(k, s) for k in K_VALUES for s in SNR_DB_VALUES]
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(grid):
        errors.append(f"{len(rows)} rows, expected {len(grid)}")
    for row, (k, snr) in zip(rows, grid):
        if int(row["k"]) != k or float(row["snr_db"]) != snr:
            errors.append(f"row {row['k']},{row['snr_db']} out of grid order")
        if row["trials"] != str(wl["trials"]):
            errors.append(f"row {k},{snr}: trials {row['trials']}")
        if not math.isfinite(float(row["crlb"])):
            errors.append(f"row {k},{snr}: crlb {row['crlb']}")
        if not 0.0 <= float(row["fail_rate"]) <= 1.0:
            errors.append(f"row {k},{snr}: fail_rate {row['fail_rate']}")
    if wl["per_trial"]:
        lines = (outputs["trials_csv"] or b"").decode("utf-8").splitlines()
        if lines[:1] != [TRIALS_CSV_HEADER]:
            errors.append("trials CSV missing or header differs")
        elif len(lines) - 1 != len(grid) * wl["trials"]:
            errors.append(f"trials CSV has {len(lines) - 1} rows")
    return errors


def check(record, wl, expected=None):
    """Check a finished sweep's outputs, and compare them with `expected` if given."""
    if "outputs" not in record:
        return
    outputs = record.pop("outputs")
    record["sha256"] = hashlib.sha256(outputs["csv"]).hexdigest()
    errors = structural_errors(outputs, wl)
    if expected is not None:
        max_err = 0.0
        for kind, float_cols in FLOAT_COLUMNS.items():
            got, want = outputs[kind], expected[kind]
            if got == want:
                continue
            if got is None or want is None:
                errors.append(f"{kind}: present in only one of output and expected")
                continue
            err, exact = compare_csv(got.decode("utf-8"), want.decode("utf-8"), float_cols)
            max_err = max(max_err, err)
            if not exact:
                errors.append(f"{kind}: exact columns differ from the expected output")
            if err > REL_TOL:
                errors.append(f"{kind}: max relative error {err:.3g} > {REL_TOL:g}")
        record["max_rel_err"] = max_err
    record["errors"] += errors
    record["ok"] = not record["errors"]


# --- sweeps ----------------------------------------------------------------

def run_child(run_dir, wl, master_seed, timeout, src=SRC, traced=False):
    """One sweep in a fresh process.

    Returns its record: timings, and the output bytes under `outputs` until
    `check` consumes them.
    """
    out_csv = run_dir / "sweep.csv"
    trials_csv = run_dir / "sweep_trials.csv"
    result_path = run_dir / "child.json"
    for path in (out_csv, trials_csv, result_path):
        path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "", str(result_path), "1" if traced else "0",
        "--", "sweep", "--config", str(run_dir / "workload.cfg"), "--out", str(out_csv),
        "--seed", str(master_seed), "--threads", str(workload_threads(wl)),
    ]
    if wl["per_trial"]:
        cmd.append("--per-trial")
    record = {
        "program": "anchor" if src == ANCHOR else "src", "master_seed": master_seed,
        "traced": traced, "ok": False, "errors": [],
    }
    env = child_env(src)
    cmd[2] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=run_dir, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        record["errors"].append(f"timed out after {timeout:.0f} s")
        return record
    if proc.returncode != 0 or not result_path.is_file():
        record["errors"] += [f"exit code {proc.returncode}", *proc.stderr.splitlines()[-3:]]
        return record
    child = json.loads(result_path.read_text(encoding="utf-8"))
    record.update(
        setup_s=child["setup_s"],
        sweep_s=child["sweep_s"],
        trials_per_s=trials_per_sweep(wl) / child["sweep_s"],
        peak_rss_mb=child["peak_rss_mb"],
        outputs={
            "csv": out_csv.read_bytes(),
            "trials_csv": trials_csv.read_bytes() if trials_csv.exists() else None,
        },
    )
    if traced:
        spans = child["spans"]
        record["layers"] = tracer.layer_metrics(spans, workload_threads(wl))
        record["trial_ms"] = tracer.trial_latencies_ms(spans)
        record["unpatched"] = child["unpatched"]
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def geometric_mean(values):
    return statistics.geometric_mean(values) if values else 0.0


def aggregate(name):
    """How a run turns a metric's samples into one value.

    The speedup is a ratio per pair, so pairs are averaged geometrically;
    everything else is a median.
    """
    return geometric_mean if name == "speedup_vs_seed" else median


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def samples_of(records, name, **match):
    """`name` of every record that has it and matches all of `match`."""
    return [r[name] for r in records if name in r and all(r[k] == v for k, v in match.items())]


def end_to_end_samples(timed):
    """Metric name -> its value in each timed sweep (pair, for the speedup)."""
    return {
        "speedup_vs_seed": samples_of(timed, "speedup"),
        "setup_s": samples_of(timed, "setup_s", program="src"),
        "peak_rss_mb": samples_of(timed, "peak_rss_mb", program="src"),
        "trials_per_s": samples_of(timed, "trials_per_s", program="src", traced=False),
        "anchor_trials_per_s": samples_of(timed, "trials_per_s", program="anchor"),
    }


def per_layer_metrics(timed):
    traced = [r for r in timed if "layers" in r]
    metrics = {}
    for name in tracer.LAYER_METRICS:
        if name in ("harness.trial_p50_ms", "harness.trial_p99_ms"):
            continue
        values = [r["layers"][name] for r in traced]
        metrics[name] = max(values, default=0) if name.endswith("_max") else median(values)
    pooled = [ms for r in traced for ms in r["trial_ms"]]
    metrics["harness.trial_p50_ms"] = tracer.percentile(pooled, 50)
    metrics["harness.trial_p99_ms"] = tracer.percentile(pooled, 99)
    untraced_tps = median(samples_of(timed, "trials_per_s", traced=False))
    traced_tps = median(samples_of(timed, "trials_per_s", traced=True))
    metrics["trace_overhead_pct"] = (
        100.0 * (1.0 - traced_tps / untraced_tps) if untraced_tps else 0.0
    )
    return {name: metrics[name] for name in PER_LAYER}


def timed_sweeps(run_dir, wl, args, timeout):
    """The timed sweeps (or pairs of them) of a run, for `args.seconds`."""
    masters = random.Random(args.seed)
    timed = []
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < MIN_TIMED or time.monotonic() < deadline:
        master = masters.getrandbits(32)
        if args.trace:
            record = run_child(run_dir, wl, master, timeout(), traced=i % 2 == 1)
            check(record, wl)
            timed.append(record)
        else:
            order = (SRC, ANCHOR) if i % 2 == 0 else (ANCHOR, SRC)
            pair = {src: run_child(run_dir, wl, master, timeout(), src=src) for src in order}
            own, anchor = pair[SRC], pair[ANCHOR]
            expected = anchor.get("outputs")
            check(anchor, wl)
            check(own, wl, expected)
            if own["ok"] and anchor["ok"]:
                own["speedup"] = own["trials_per_s"] / anchor["trials_per_s"]
            timed += [pair[src] for src in order]
        if not all(r["ok"] for r in timed):
            break
        i += 1
    return timed


def report(args, manifest, warmup, timed, metrics, units):
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"{'program':>7} {'master_seed':>11} {'trace':>5} {'setup_s':>8} {'sweep_s':>8} "
          f"{'trials/s':>9} {'rss_MiB':>8}  sha256")
    for r in warmup + timed:
        line = f"{r['program']:>7} {r['master_seed']:>11} {int(r['traced']):>5} "
        if "sweep_s" in r:
            line += (f"{r['setup_s']:8.4f} {r['sweep_s']:8.4f} {r['trials_per_s']:9.2f} "
                     f"{r['peak_rss_mb']:8.2f}  {r.get('sha256', '-')}")
        print(line + ("" if r["ok"] else "  FAILED: " + "; ".join(r["errors"])))
    samples = end_to_end_samples(timed) if not args.trace else {}
    for name, value in metrics.items():
        line = f"{name} = {value:.6g} {units[name]}"
        if samples.get(name):
            q1, q3 = quartiles(samples[name])
            line += (f"  ({aggregate(name).__name__.replace('_', ' ')} of {len(samples[name])};"
                     f" quartiles {q1:.6g} .. {q3:.6g})")
        print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ris_crlb" / "__init__.py").is_file():
        print(f"perfbench: no ris_crlb package under {SRC}", file=sys.stderr)
        return 2
    references = json.loads((REFERENCE / "references.json").read_text(encoding="utf-8"))

    start = time.monotonic()
    wl = WORKLOADS[args.workload]
    manifest = {
        **environment_manifest(),
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": REFERENCE_SEED,
        "trials_per_sweep": trials_per_sweep(wl),
        "threads": workload_threads(wl),
    }
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "workload.cfg").write_text(config_text(wl), encoding="utf-8")

    def timeout():
        return max(HARD_LIMIT_S - (time.monotonic() - start), 1.0)

    # untimed warm-up of both programs, checked against the stored reference
    warmup = [run_child(run_dir, wl, REFERENCE_SEED, timeout(), src=src) for src in (SRC, ANCHOR)]
    for record in warmup:
        check(record, wl, stored_reference(wl, references))
    timed = timed_sweeps(run_dir, wl, args, timeout) if all(r["ok"] for r in warmup) else []
    shutil.rmtree(run_dir, ignore_errors=True)

    records = warmup + timed
    failed = sum(1 for r in records if not r["ok"])
    correct = failed == 0
    if args.trace:
        units = PER_LAYER
        metrics = per_layer_metrics(timed)
    else:
        units = END_TO_END
        metrics = {name: aggregate(name)(v) for name, v in end_to_end_samples(timed).items()}
    summary = {name: metrics[name] for name in units}
    summary.update(
        trials_per_s=median(samples_of(timed, "trials_per_s", program="src", traced=False)),
        anchor_trials_per_s=median(samples_of(timed, "trials_per_s", program="anchor")),
        max_rel_err=max(samples_of(records, "max_rel_err"), default=math.inf),
        failed_run_share=failed / len(records),
    )
    report(args, manifest, warmup, timed, summary, {**units, **REPORTED})

    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "manifest": manifest, "metrics": summary, "correct": correct,
        "sweeps": [{k: v for k, v in r.items() if k != "trial_ms"} for r in records],
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": summary[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
