#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the libraries under src/ it links) into
.bench_build/perfbench, runs one workload for about S seconds and prints two
lines: a detail object (median, quartiles and sample count of every metric,
plus host and build facts), then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 its per-layer ones, and the traced run also writes a Chrome trace
to .bench_build/traces/. Every workload reports every end-to-end metric. A
per-layer metric the workload does not measure is reported as 0 and named
in the detail line's "not_run" list. Exits non-zero, without a result
line, when the build or the run fails or a metric is missing, and non-zero
after the result line when a correctness check failed. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "lachesis_perfbench"
WORKLOADS = ("tick_steady", "tick_churn", "fleet", "native")
RUN_TIMEOUT_S = 170
MANIFEST = ROOT / "BENCHMARK.json"
# Which workloads measure a per-layer metric, by name prefix (the longest
# matching prefix wins).
LAYER_WORKLOADS = {
    "core.": ("tick_steady", "tick_churn"),
    "obs.": ("tick_steady", "tick_churn"),
    "core.fleet.": ("fleet",),
    "exp.": ("fleet",),
    "sim.": ("fleet",),
    "core.native.": ("native",),
    "native.": ("native",),
    "spe.": ("native",),
    "osctl.": ("native",),
    "trace.": WORKLOADS,
}
# glibc adapts its trim and mmap thresholds to the frees a process has
# made, so the same RunFleet call took 2.8 s or 4.7 s depending on what the
# previous one left in the heap. Fixed thresholds make repetitions agree
# within a few percent; every commit is measured under the same setting.
MALLOC_TUNABLES = ("glibc.malloc.trim_threshold=17179869184:"
                   "glibc.malloc.mmap_threshold=33554432")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an existing build tree takes well under a second, and
    # always doing it recovers from an interrupted first configure.
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def source_digest():
    """SHA-256 over every file of src/ and perfbench/: the build identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measured_by(metric):
    prefixes = [p for p in LAYER_WORKLOADS if metric.startswith(p)]
    return LAYER_WORKLOADS[max(prefixes, key=len)] if prefixes else ()


def select_metrics(workload, trace, reported):
    """The result line's metrics: exactly the manifest's metrics of this
    mode, each in its declared unit. Returns (metrics, not_run, error)."""
    manifest = json.loads(MANIFEST.read_text())
    metrics, not_run = {}, []
    for spec in manifest["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        got = reported.get(name)
        if got is None:
            if not trace or workload in measured_by(name):
                return None, None, f"metric {name} was not reported"
            metrics[name] = {"value": 0, "unit": unit}
            not_run.append(name)
            continue
        if got["unit"] != unit:
            return None, None, f"metric {name} is in {got['unit']}, not {unit}"
        if not math.isfinite(got["value"]):
            return None, None, f"metric {name} is not finite"
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics, not_run, None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 3
    lines = done.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from the benchmark binary (exit {done.returncode})")
        return 3

    metrics, not_run, error = select_metrics(args.workload, args.trace,
                                             detail["metrics"])
    if error:
        log(error)
        return 3
    detail["info"]["not_run"] = not_run
    detail["info"]["commit"] = commit()
    detail["info"]["source_digest"] = source_digest()
    print(json.dumps(detail))
    print(json.dumps({"correct": detail["correct"],
                      "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": metrics}))
    if done.returncode != 0 or not detail["correct"]:
        for failure in detail.get("check_failures", []):
            log(f"check failed: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
