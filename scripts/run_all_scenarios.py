#!/usr/bin/env python3
"""Run every registered scenario and print a one-line verdict table.

Usage: python scripts/run_all_scenarios.py [--seed N] [--cases K] [--max-size S]
                                           [--digests]

With ``--digests`` each line ends in the sha256 of the scenario's JSON report
instead of its time, and the total time is left out, so two runs of the
table (before and after a change, say) can be compared with ``diff``.

Exit status is the number of scenarios whose computed verdicts do not match
their registered expectations (0 = everything reproduces).
"""

import argparse
import hashlib
import sys
import time

from tracedcat.cli import (SCENARIOS, RunConfig, _positive_int, format_report,
                           run_scenario)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=_positive_int, default=60)
    parser.add_argument("--max-size", type=_positive_int, default=3)
    parser.add_argument("--digests", action="store_true",
                        help="print each JSON report's sha256, no times")
    args = parser.parse_args()

    config = RunConfig(seed=args.seed, cases=args.cases,
                       max_size=args.max_size)
    mismatches = 0
    started = time.perf_counter()
    for name in sorted(SCENARIOS):
        t0 = time.perf_counter()
        payload = run_scenario(name, config)
        verdicts = ",".join(s["verdict"][0] for s in payload["suites"])
        status = "ok" if payload["expected_match"] else "MISMATCH"
        mismatches += 0 if payload["expected_match"] else 1
        if args.digests:
            tail = hashlib.sha256(
                format_report(payload, "json").encode()).hexdigest()
        else:
            tail = f"{time.perf_counter() - t0:6.1f}s"
        print(f"{name:38s} {status:9s} [{verdicts}] {tail}")
    total = ("" if args.digests
             else f", {time.perf_counter() - started:.1f}s total")
    print(f"\n{len(SCENARIOS)} scenarios, {mismatches} mismatches{total}")
    return mismatches


if __name__ == "__main__":
    sys.exit(main())
