#!/usr/bin/env python3
"""Self-tests of the benchmark's checks: each check must be able to fail.

    python3 perfbench/selftest.py [--workload NAME] [--seconds S]

For every workload it makes one clean run, which must exit 0, report
"correct": true and pass every check, and one run per injected fault, which
must exit non-zero, report "correct": false and fail exactly the check the
fault targets (the run's "info: checks:" line names each check's outcome):

  corrupt-payload  flips one data word of a long-lived record before the
                   final collection; the model walk's payload check fails;
  drop-root        drops the main thread's root of one table after the
                   final collection and before the walk of reachable
                   objects; the live set no longer equals the reachable set;
  miscount-alloc   adds one to the benchmark's allocation tally; the
                   conservation check fails.

Exits 0 when every expectation holds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["young-churn", "old-cache"]
CHECKS = ["readback", "model", "live", "conservation"]
# The one check each injected fault must fail.
FAULTS = {"corrupt-payload": "model", "drop-root": "live",
          "miscount-alloc": "conservation"}


def run(workload, seconds, inject):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace", "0",
           "--inject", inject]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    failed_checks = None
    for line in lines:
        if line.startswith("info: checks:"):
            words = line.split()[2:]
            outcome = dict(zip(words[0::2], words[1::2]))
            failed_checks = sorted(c for c in CHECKS
                                   if outcome.get(c) != "ok")
    return done.returncode, result, failed_checks, done


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=1.5)
    args = parser.parse_args()
    failures = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        for inject in ["none"] + list(FAULTS):
            code, result, failed_checks, done = run(workload, args.seconds,
                                                    inject)
            want_ok = inject == "none"
            want_failed = [] if want_ok else [FAULTS[inject]]
            ok = (result is not None and result["correct"] == want_ok
                  and (code == 0) == want_ok
                  and failed_checks == want_failed)
            print("%-12s %-16s exit %d correct %s failed checks %s -> %s" % (
                workload, inject, code,
                None if result is None else result["correct"],
                failed_checks, "ok" if ok else "UNEXPECTED"))
            if not ok:
                failures += 1
                sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    print("%d unexpected outcome(s)" % failures)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
