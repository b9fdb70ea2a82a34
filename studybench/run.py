#!/usr/bin/env python3
"""Study benchmark for the p2pmal reproduction.

    python3 studybench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds the benchmark package (release, offline)
into $CARGO_TARGET_DIR (default .bench_build), then runs the workload in
fresh processes, one per iteration, until --seconds of measurement have been
spent (at least one iteration; two with --trace 1). Each untraced iteration
is followed by SETUP_PROBES set-up probes, each a fresh process of its own.
Each iteration checks the study's outputs; this script adds the
trajectory-fingerprint check, across the iterations of this run and against
the digest the first run of this workload, seed and binary recorded under
studybench/runs/. It prints, as its last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over untraced iterations).
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones, the self time of each span, and the
tracing overhead (traced minus untraced wall time).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lw_steady", "lw_churn", "ft_month")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_s", "s"), ("peak_rss_mib", "MiB"))
# core.run is left out: setup is derived as its remainder, so its self time
# is zero by construction.
SPANS = ("core.setup", "netsim.day", "core.finish", "filter.eval", "analysis.report")
# Stop starting iterations past this many seconds, well inside the 180 s limit.
HARD_STOP_S = 150.0
# Zero-day collections timed after each untraced iteration, each in a fresh
# process, so `setup_s` is a median of many fresh-process set-ups. A set-up
# takes 5-20 ms, and about a third of the probes land on a busy core and
# take twice as long; forty keep the median out of that slow mode.
SETUP_PROBES = 40
RUNS = HERE / "runs"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        log(f"no p2pmal-core sources under {ROOT / 'crates'}; run from a full checkout")
        sys.exit(1)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("benchmark build failed")
        sys.exit(1)
    return target / "release" / "p2pmal-studybench"


def iterate(binary, args, budget_s, extra=()):
    cmd = [str(binary), "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    cmd += extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:
        log(f"iteration timed out after {budget_s:.0f}s")
        return None
    if proc.returncode != 0:
        log(f"iteration exited with {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        log(f"unreadable iteration output: {e}")
        return None


def recorded_digest(binary, workload, seed, digest):
    """The digest the first run of this workload and seed on this binary
    recorded, recording `digest` if there is none yet."""
    sha = hashlib.sha256(Path(binary).read_bytes()).hexdigest()[:16]
    path = RUNS / f"digest-{workload}-{seed}-{sha}.txt"
    if path.is_file():
        return path.read_text().strip()
    RUNS.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(digest + "\n")
    tmp.replace(path)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("P2PMAL_"))
    if knobs:
        log(f"refusing to run: {', '.join(knobs)} set; the benchmark configures every knob itself")
        sys.exit(2)
    binary = build()

    runs, probes, crashed = [], [], 0
    start = time.monotonic()
    budget = lambda: HARD_STOP_S + 25 - (time.monotonic() - start)
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        t0 = time.monotonic()
        r = iterate(binary, args, budget(),
                    ["--trace", "--spans-dir", str(RUNS)] if traced else [])
        for _ in range(0 if r is None or args.trace else SETUP_PROBES):
            p = iterate(binary, args, budget(), ["--setup-only"])
            if p is None:
                r = None
                break
            probes.append(p["setup_probe_s"])
        took = time.monotonic() - t0
        if r is None:
            crashed += 1
            break
        runs.append(r)
        elapsed = time.monotonic() - start
        need = 2 if args.trace else 1
        if len(runs) >= need and (elapsed + took > args.seconds or elapsed + took > HARD_STOP_S):
            break
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not plain or (args.trace and not traced):
        log("no iteration of the needed kind completed")
        sys.exit(1)
    failures = [f for r in runs for f in r["failures"]]
    digests = [r["digest"] for r in runs]
    recorded = recorded_digest(binary, args.workload, runs[0]["config"]["seed"], digests[0])
    first, compared = (digests[0], digests[1:]) if recorded is None else (recorded, digests)
    mismatched = sum(d != first for d in compared)
    if mismatched:
        failures.append(f"trajectory digest {digests} differs from the set's first {first}")
    if crashed:
        failures.append("an iteration did not complete")
    attempted = sum(r["checks_run"] for r in runs) + len(compared) + crashed
    failed = sum(r["checks_failed"] for r in runs) + mismatched + crashed

    med = lambda rs, key: statistics.median(r[key] for r in rs)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name]["value"] for r in traced),
                   "unit": traced[0]["layers"][name]["unit"]}
            for name in traced[0]["layers"]
        }
        for span in SPANS:
            metrics[f"self_s.{span}"] = {
                "value": statistics.median(r["span_self_s"].get(span, 0.0) for r in traced),
                "unit": "s"}
        traced_wall, plain_wall = med(traced, "wall_s"), med(plain, "wall_s")
        metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
        metrics["trace.cost_s"] = {"value": med(traced, "trace_cost_s"), "unit": "s"}
    else:
        metrics = {name: {"value": med(plain, name), "unit": unit} for name, unit in END_TO_END}
        metrics["setup_s"]["value"] = statistics.median([r["setup_s"] for r in plain] + probes)

    print(f"config {json.dumps(runs[0]['config'], sort_keys=True)}")
    print(f"iterations {len(runs)} ({len(traced)} traced) in {time.monotonic() - start:.1f} s")
    print(f"digest {digests[0]} {runs[0]['fingerprint']}")
    if probes:
        print(f"setup derived {med(plain, 'setup_s')} s, probes {statistics.median(probes)} s "
              f"(median of {len(probes)})")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    misses = sorted({m for r in runs for m in r["band_misses"]})
    print(f"bands {runs[0]['bands'] - len(misses)}/{runs[0]['bands']} held ("
          + ("counted as checks" if runs[0]["bands_counted"] else
             "reported only: not measured to hold at this seed") + ")")
    for m in misses:
        log(f"band missed: {m}")
    for u in sorted({u for r in runs for u in r["unverified"]}):
        log(f"not counted (fault-injected network): {u}")
    print(f"metric checks_run {attempted} count")
    print(f"metric checks_failed {failed} count")
    for f in failures:
        log(f"check failed: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
