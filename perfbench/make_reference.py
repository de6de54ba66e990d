"""Regenerate the stored reference outputs in `reference/`.

Usage (from the repository root): python3 perfbench/make_reference.py

For each workload it runs `ris-crlb sweep` at the reference master seed,
once with BLAS pinned to one thread (as the benchmark runs it) and once
unpinned, requires both to give the same bytes, and stores the aggregate CSV
(and for per-trial workloads the trials CSV).  jt-default-mt must reproduce
jt-default's CSV.  It records a digest of the frozen `anchor/` sources, and
recomputes the digest of the 100-trial default-config sweep and compares it
with the prefix and suffix published in ROADMAP.md.  Results, with the
environment manifest, go to `reference/references.json`.
"""

import hashlib
import json
import shutil
import subprocess
import sys

import run

ROADMAP_DIGEST_100 = ("72b4ffed", "94ebe329")


def anchor_digest():
    """sha256 over the names and bytes of the anchor's source files."""
    digest = hashlib.sha256()
    for path in sorted((run.ANCHOR / "ris_crlb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def sweep(work, name, cli_args, pinned):
    """Run one sweep; return (aggregate CSV bytes, trials CSV bytes or None)."""
    env = run.child_env()
    if not pinned:
        for key in run.BLAS_PINS:
            env.pop(key)
    out = work / f"{name}-{'pinned' if pinned else 'unpinned'}.csv"
    subprocess.run(
        [sys.executable, "-m", "ris_crlb.cli", "sweep", *cli_args, "--out", str(out)],
        env=env, cwd=work, check=True, stdout=subprocess.DEVNULL,
    )
    trials = out.with_name(out.stem + "_trials.csv")
    return out.read_bytes(), trials.read_bytes() if trials.exists() else None


def main():
    work = run.OUT / "make_reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.REFERENCE.mkdir(exist_ok=True)

    entries = {}
    pinned_equals_unpinned = True
    for name, wl in run.WORKLOADS.items():
        cfg = work / f"{name}.cfg"
        cfg.write_text(run.config_text(wl), encoding="utf-8")
        cli_args = ["--config", str(cfg), "--seed", str(run.REFERENCE_SEED),
                    "--threads", str(run.workload_threads(wl))]
        if wl["per_trial"]:
            cli_args.append("--per-trial")
        pinned = sweep(work, name, cli_args, pinned=True)
        unpinned = sweep(work, name, cli_args, pinned=False)
        pinned_equals_unpinned &= pinned == unpinned
        if pinned != unpinned:
            print(f"{name}: output differs with BLAS unpinned", file=sys.stderr)
        if wl["reference"] != name:
            if entries[wl["reference"]]["sha256"] != hashlib.sha256(pinned[0]).hexdigest():
                raise SystemExit(f"{name}: CSV differs from {wl['reference']}'s")
            continue
        entry = {"csv": f"{name}.csv", "sha256": hashlib.sha256(pinned[0]).hexdigest()}
        (run.REFERENCE / entry["csv"]).write_bytes(pinned[0])
        if pinned[1] is not None:
            entry["trials_csv"] = f"{name}_trials.csv"
            entry["trials_sha256"] = hashlib.sha256(pinned[1]).hexdigest()
            (run.REFERENCE / entry["trials_csv"]).write_bytes(pinned[1])
        entries[name] = entry

    default_100 = sweep(work, "default-100", ["--trials", "100", "--threads", "1"], pinned=True)
    digest_100 = hashlib.sha256(default_100[0]).hexdigest()
    matches_roadmap = digest_100.startswith(ROADMAP_DIGEST_100[0]) and digest_100.endswith(
        ROADMAP_DIGEST_100[1]
    )
    shutil.rmtree(work)

    payload = {
        "reference_seed": run.REFERENCE_SEED,
        "manifest": run.environment_manifest(),
        "blas_pinned_equals_unpinned": pinned_equals_unpinned,
        "anchor_sha256": anchor_digest(),
        "default_config_100_trials": {
            "sha256": digest_100,
            "roadmap": "...".join(ROADMAP_DIGEST_100),
            "matches_roadmap": matches_roadmap,
        },
        "workloads": entries,
    }
    (run.REFERENCE / "references.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(payload, indent=2))
    return 0 if pinned_equals_unpinned and matches_roadmap else 1


if __name__ == "__main__":
    sys.exit(main())
