#!/usr/bin/env python3
"""Repository benchmark: builds the measuring program and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The harness (perfbench/harness)
and the simulator library are built with CMake into $CARGO_TARGET_DIR
(default .bench_build). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median of the measuring run's own set-up and this many
# extra set-up-only processes, each starting cold.
SETUP_PROBES = 8

# Seconds one harness process may take before it is killed.
RUN_TIMEOUT = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then bring the harness up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no simulator sources at %s; run from a full checkout" % ROOT)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir),
                  "--target", "pcbp_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "pcbp_perfbench"


def harness(binary, args):
    """Run the harness; returns its stdout lines (exits on failure)."""
    try:
        proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % RUN_TIMEOUT)
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode,
             proc.returncode)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("harness printed nothing")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    # Relative paths keep trace workload names, and so the store
    # digest, independent of where the checkout lives.
    work = build_dir / "work" / args.workload
    rel = lambda p: os.path.relpath(p, ROOT)
    shutil.rmtree(work, ignore_errors=True)
    spans = build_dir / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        lines = harness(binary, common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", rel(work / "run"),
            "--spans-out",
            rel(spans / ("%s-seed%d.json" % (args.workload, args.seed)))])
        result = json.loads(lines[-1])
        setup = []
        if "setup_s" in result["metrics"]:
            setup.append(result["metrics"]["setup_s"]["value"])
            for k in range(SETUP_PROBES):
                probe = harness(binary, common + [
                    "--seconds", "0", "--setup-only",
                    "--work", rel(work / ("probe%d" % k))])
                setup.append(json.loads(probe[-1])["setup_s"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    if setup:
        print("  setup_s samples: " + ", ".join("%.6f" % s for s in setup))
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
