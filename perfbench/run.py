#!/usr/bin/env python3
"""Serving benchmark of the IS-LABEL index: builds the load generator from
the source tree, runs one workload and prints the result as the last line
of standard output.

    python3 perfbench/run.py --workload uniform-miss|zipf-hit|insert-read \\
        --seed N --seconds S --trace 0|1 [--corrupt-expectation]

Run it from the root of the source tree. The build goes to
.bench_build/perfbench (the first run compiles the libraries, a few
minutes); every run's scratch files go under .bench_build too. With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer metrics (see perfbench/BENCHMARK.md and spans.py). A wrong
answer exits 3 with "correct": false; --corrupt-expectation plants one
wrong expectation to show that it does (selftest.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOADGEN = os.path.join(BUILD, "perfbench_loadgen")
WORKLOADS = ("uniform-miss", "zipf-hit", "insert-read")
# Each run must end within 180 s; the load generator gets the rest after
# the (incremental) build.
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # run only inside the checkout's build dir
sys.path.insert(0, HERE)
import spans  # noqa: E402


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds the load generator; build output goes to
    stderr so standard output stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no islabel sources next to perfbench/ (expected src/)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_loadgen",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expectation", action="store_true")
    args = ap.parse_args()
    if not build():
        return 1

    workdir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    span_file = os.path.join(BUILD_ROOT, "spans-%s.tsv" % args.workload)
    cmd = [LOADGEN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--spans", span_file]
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("load generator timed out")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("load generator failed (exit %d) without a result" % proc.returncode)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if args.trace and result["correct"]:
        per_layer = spans.per_layer_metrics(*spans.read(span_file))
        result["metrics"] = {name: {"value": value, "unit": spans.UNITS[name]}
                             for name, (value, _) in per_layer.items()}
        for name, (value, n) in per_layer.items():
            log("%-26s %16.6g %-6s n=%d" % (name, value, spans.UNITS[name], n))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
