#!/usr/bin/env python3
"""Self-test of the benchmark's answer checking: one deliberately wrong
expectation must fail the run.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all three) it runs run.py twice on a short
timed phase, once as is and once with --corrupt-expectation, which makes
the first timed request expect a distance one too long (or a single
distance where a one-to-many row comes back). The clean run must pass;
the corrupted one must exit 3 with "correct": false. Exits 1 if either
does not happen. Standard library only.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("uniform-miss", "zipf-hit", "insert-read")


def run(workload, corrupt):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-expectation")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main(argv):
    failures = 0
    for workload in argv[1:] or WORKLOADS:
        rc, result = run(workload, corrupt=False)
        clean_ok = rc == 0 and result is not None and result["correct"]
        rc_bad, bad = run(workload, corrupt=True)
        caught = rc_bad == 3 and bad is not None and not bad["correct"]
        print("%-13s clean run %s, corrupted expectation %s" % (
            workload, "passes" if clean_ok else "FAILS (rc %d)" % rc,
            "fails the run" if caught else "NOT CAUGHT (rc %d)" % rc_bad))
        failures += (not clean_ok) + (not caught)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
