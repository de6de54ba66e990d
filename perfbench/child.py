"""One benchmark sweep in a fresh process: `ris_crlb.cli.main(["sweep", ...])`.

Usage: child.py SPAWN_T RESULT_JSON TRACE -- <ris-crlb arguments>

SPAWN_T is the parent's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux).  The child
writes RESULT_JSON with

* `setup_s`: from SPAWN_T to the entry of `harness.run_sweep`, i.e. the
  interpreter start, the import of numpy and `ris_crlb`, argument parsing
  and config load;
* `sweep_s`: from that entry to the return of `cli.main`, CSV/JSON export
  included;
* `peak_rss_mb`: the process's peak resident set size;
* with TRACE=1, the spans of the sweep (see `tracer.py`).

It exits with the exit code of `cli.main`.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    spawn_t, result_path, trace = float(argv[0]), argv[1], argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]

    import ris_crlb
    from ris_crlb import cli, harness

    src = os.environ.get("PERFBENCH_SRC")
    if src and not os.path.abspath(ris_crlb.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ris_crlb imported from {ris_crlb.__file__}, not from {src}", file=sys.stderr)
        return 3

    marks = {}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().start()
    inner_sweep = harness.run_sweep

    def run_sweep(*args, **kwargs):
        marks["ready"] = time.monotonic()
        return inner_sweep(*args, **kwargs)

    harness.run_sweep = run_sweep
    try:
        code = cli.main(cli_args)
        done = time.monotonic()
    finally:
        harness.run_sweep = inner_sweep
        spans = tracer.stop() if tracer else None

    result = {
        "setup_s": marks["ready"] - spawn_t if "ready" in marks else None,
        "sweep_s": done - marks["ready"] if "ready" in marks else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["spans"] = spans
        result["unpatched"] = tracer.unpatched
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
