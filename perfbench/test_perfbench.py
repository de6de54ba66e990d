"""Self-test of the benchmark on tiny configs.

Run from the repository root: python3 -m pytest -q perfbench
"""

import csv
import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import make_reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = "k_values = 8, 12\nsnr_db_values = 20, 40\ntrials = 3\n"


def traced_sweep(tmp_path, config, *flags):
    """Run child.py's traced sweep in-process; return (child result, out CSV path)."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    result_path = tmp_path / "child.json"
    code = child.main([
        repr(time.monotonic()), str(result_path), "1",
        "--", "sweep", "--config", str(cfg), "--out", str(out), "--seed", "5", *flags,
    ])
    assert code == 0
    return json.loads(result_path.read_text()), out


def originals():
    return {
        (mod, attr): getattr(importlib.import_module(f"ris_crlb.{mod}"), attr)
        for mod, attr, _name, _kind in tracer.PATCHES
    }


def test_stat_calls_equal_subsets_examined(tmp_path):
    result, out = traced_sweep(tmp_path, TINY, "--per-trial")
    layers = tracer.layer_metrics(result["spans"], threads=1)
    with open(out.with_name("out_trials.csv"), newline="") as fh:
        examined = sum(int(row["subsets_examined"]) for row in csv.DictReader(fh))
    assert examined > 0
    assert layers["estimator.stat_calls"] == examined
    assert layers["channel.truth_calls_per_trial"] == 1.0


def test_physical_truth_is_drawn_twice_per_trial(tmp_path):
    config = TINY + "mode = physical_off_grid\nestimator = genie\n"
    result, _out = traced_sweep(tmp_path, config)
    layers = tracer.layer_metrics(result["spans"], threads=1)
    assert layers["channel.truth_calls_per_trial"] == 2.0
    assert layers["estimator.stat_calls"] == 0
    assert layers["estimator.search_hit_ratio"] == 0.0


def test_layer_self_times_fit_in_wall(tmp_path):
    result, _out = traced_sweep(tmp_path, TINY)
    layers = tracer.layer_metrics(result["spans"], threads=1)
    self_total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert 0 < self_total <= result["sweep_s"]
    assert 0 < layers["harness.parallel_eff"] <= 1


def test_wrappers_are_removed(tmp_path):
    before = originals()
    traced_sweep(tmp_path, TINY)
    assert originals() == before
    from ris_crlb import harness

    assert harness.run_sweep is before[("harness", "run_sweep")]


def test_missing_function_reports_zero(monkeypatch):
    from ris_crlb import estimator

    monkeypatch.delattr(estimator, "omp_estimate")
    t = tracer.Tracer().start()
    spans = t.stop()
    assert t.unpatched == ["estimator.omp_estimate"]
    assert tracer.layer_metrics(spans, threads=1)["estimator.baseline_s"] == 0.0


def test_self_time_subtracts_overlapping_children():
    spans = [
        (1, None, "harness.sweep", 0.0, 10.0, None),
        (2, 1, "harness.trial", 1.0, 5.0, None),
        (3, 1, "harness.trial", 3.0, 7.0, None),  # a second thread
        (4, 2, "estimator.stat", 2.0, 3.0, None),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 4.0, 4: 1.0}


@pytest.mark.parametrize("scale, ok", [(1 + 1e-12, True), (1 + 1e-6, False)])
def test_expected_output_tolerance(scale, ok):
    wl = run.WORKLOADS["jt-sparse2"]
    references = json.loads((run.REFERENCE / "references.json").read_text())
    expected = run.stored_reference(wl, references)
    rows = expected["csv"].decode().splitlines()
    fields = rows[1].split(",")
    fields[2] = format(float(fields[2]) * scale, ".17g")
    rows[1] = ",".join(fields)
    record = {"outputs": {"csv": ("\n".join(rows) + "\n").encode(), "trials_csv": None},
              "errors": [], "ok": False}
    run.check(record, wl, expected)
    assert record["ok"] is ok
    assert record["max_rel_err"] > 0


def test_anchor_is_frozen():
    references = json.loads((run.REFERENCE / "references.json").read_text())
    assert make_reference.anchor_digest() == references["anchor_sha256"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jt-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
