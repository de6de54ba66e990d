"""Outside-in span tracer for one `ris-crlb sweep`, plus the per-layer metrics.

The tracer replaces module attributes of the `ris_crlb` package with timing
wrappers, at the place where each caller looks the name up: `estimator`
imports `as_matrix` from `numerics` into its own namespace, so the wrapper is
installed on `estimator.as_matrix`, not only on `numerics.as_matrix`.  Spans
(id, parent id, name, start, end, info) are kept in memory and handed back by
`Tracer.stop`, which also restores every original attribute.

`layer_metrics` turns the spans of one sweep into the per-layer metrics named
in `LAYER_METRICS`.  A function that the program no longer calls, or no longer
has, reports 0 calls rather than an error.
"""

import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict

# (module, attribute, span name, info taken from the result).  Several
# attributes may share a span name; the metric then sums over them.
PATCHES = (
    ("harness", "run_sweep", "harness.sweep", None),
    ("harness", "run_trial", "harness.trial", None),
    ("harness", "write_sweep_csv", "harness.export", None),
    ("harness", "write_sweep_json", "harness.export", None),
    ("harness", "write_trials_csv", "harness.export", None),
    ("channel", "realize_synthetic", "channel.truth", None),
    ("channel", "realize_physical", "channel.truth", None),
    ("channel", "draw_hop", "channel.hop", None),
    ("sensing", "gen_pilots", "sensing.pilots", None),
    ("sensing", "measurement_model", "sensing.model", None),
    ("sensing", "measurement_matrix", "sensing.model", "nbytes"),
    ("sensing", "observe", "sensing.observe", None),
    ("sensing", "kron", "numerics.kron", None),
    ("sensing", "as_vector", "numerics.validate", None),
    ("estimator", "as_matrix", "numerics.validate", None),
    ("estimator", "as_vector", "numerics.validate", None),
    ("numerics", "as_matrix", "numerics.validate", None),
    ("numerics", "as_vector", "numerics.validate", None),
    ("estimator", "least_squares", "numerics.lstsq", None),
    ("estimator", "typicality_statistic", "estimator.stat", None),
    ("estimator", "jt_estimate", "estimator.search", "search"),
    ("estimator", "crlb", "estimator.crlb", None),
    ("estimator", "genie_ls", "estimator.baseline", None),
    ("estimator", "omp_estimate", "estimator.baseline", None),
    ("estimator", "missed_detection_term", "estimator.bound", None),
    ("estimator", "wrong_support_term", "estimator.bound", None),
)


def _info(kind, result):
    if kind == "nbytes":
        return int(result.nbytes)
    if kind == "search":
        return [int(result.subsets_examined), 0 if result.failed else 1]
    return None


class Tracer:
    """Installs the wrappers of `PATCHES` on `start` and removes them on `stop`."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = None
        self._root = None  # outermost open span of the owner thread
        self._saved = []
        self.spans = []
        self.unpatched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, kind):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            else:
                # worker threads start with an empty stack: their spans
                # belong to the span the owner thread has open
                parent = self._root
                if threading.get_ident() == self._owner:
                    self._root = sid
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                info = _info(kind, result) if kind and result is not None else None
                self.spans.append((sid, parent, name, t0, t1, info))

        return traced

    def start(self):
        self._owner = threading.get_ident()
        for mod_name, attr, name, kind in PATCHES:
            module = importlib.import_module(f"ris_crlb.{mod_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.unpatched.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, kind))
        return self

    def stop(self):
        """Restore every wrapped attribute; return the recorded spans."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return self.spans


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, _info in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        for sid, _parent, _name, t0, t1, _info in spans
    }


# name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "estimator.stat_calls": ("count", "lower"),
    "estimator.stat_s": ("s", "lower"),
    "estimator.search_s": ("s", "lower"),
    "estimator.subsets_per_search_mean": ("count", "lower"),
    "estimator.subsets_per_search_max": ("count", "lower"),
    "estimator.search_hit_ratio": ("ratio", "higher"),
    "estimator.crlb_s": ("s", "lower"),
    "estimator.baseline_s": ("s", "lower"),
    "estimator.bound_s": ("s", "lower"),
    "numerics.validate_calls": ("count", "lower"),
    "numerics.validate_s": ("s", "lower"),
    "numerics.kron_s": ("s", "lower"),
    "numerics.lstsq_calls": ("count", "lower"),
    "numerics.lstsq_s": ("s", "lower"),
    "channel.truth_calls": ("count", "lower"),
    "channel.truth_calls_per_trial": ("count", "lower"),
    "channel.truth_s": ("s", "lower"),
    "sensing.pilots_s": ("s", "lower"),
    "sensing.model_s": ("s", "lower"),
    "sensing.observe_s": ("s", "lower"),
    "sensing.upsilon_bytes": ("bytes", "lower"),
    "harness.trial_p50_ms": ("ms", "lower"),
    "harness.trial_p99_ms": ("ms", "lower"),
    "harness.trial_self_s": ("s", "lower"),
    "harness.aggregate_s": ("s", "lower"),
    "harness.export_s": ("s", "lower"),
    "harness.parallel_eff": ("ratio", "higher"),
}


def layer_metrics(spans, threads):
    """Per-layer metrics of one traced sweep (times are self times in s).

    `harness.trial_p50_ms`/`_p99_ms` are left out here, because they are
    percentiles over the pooled trials of several sweeps; `trial_latencies_ms`
    gives their samples.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    searches = []
    upsilon_bytes = 0
    for sid, _parent, name, _t0, _t1, info in spans:
        calls[name] += 1
        busy[name] += own[sid]
        if name == "estimator.search" and info is not None:
            searches.append(info)
        elif name == "sensing.model" and info is not None:
            upsilon_bytes += info
    sweep_wall = sum(t1 - t0 for _s, _p, n, t0, t1, _i in spans if n == "harness.sweep")
    trial_busy = sum(t1 - t0 for _s, _p, n, t0, t1, _i in spans if n == "harness.trial")
    examined = [s[0] for s in searches]
    return {
        "estimator.stat_calls": calls["estimator.stat"],
        "estimator.stat_s": busy["estimator.stat"],
        "estimator.search_s": busy["estimator.search"],
        "estimator.subsets_per_search_mean": (
            sum(examined) / len(examined) if examined else 0.0
        ),
        "estimator.subsets_per_search_max": max(examined, default=0),
        "estimator.search_hit_ratio": (
            sum(s[1] for s in searches) / len(searches) if searches else 0.0
        ),
        "estimator.crlb_s": busy["estimator.crlb"],
        "estimator.baseline_s": busy["estimator.baseline"],
        "estimator.bound_s": busy["estimator.bound"],
        "numerics.validate_calls": calls["numerics.validate"],
        "numerics.validate_s": busy["numerics.validate"],
        "numerics.kron_s": busy["numerics.kron"],
        "numerics.lstsq_calls": calls["numerics.lstsq"],
        "numerics.lstsq_s": busy["numerics.lstsq"],
        "channel.truth_calls": calls["channel.truth"],
        "channel.truth_calls_per_trial": (
            calls["channel.truth"] / calls["harness.trial"] if calls["harness.trial"] else 0.0
        ),
        "channel.truth_s": busy["channel.truth"] + busy["channel.hop"],
        "sensing.pilots_s": busy["sensing.pilots"],
        "sensing.model_s": busy["sensing.model"],
        "sensing.observe_s": busy["sensing.observe"],
        "sensing.upsilon_bytes": upsilon_bytes,
        "harness.trial_self_s": busy["harness.trial"],
        "harness.aggregate_s": busy["harness.sweep"],
        "harness.export_s": busy["harness.export"],
        "harness.parallel_eff": (
            trial_busy / (sweep_wall * threads) if sweep_wall > 0 else 0.0
        ),
    }


def trial_latencies_ms(spans):
    return [(t1 - t0) * 1e3 for _s, _p, n, t0, t1, _i in spans if n == "harness.trial"]


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]
