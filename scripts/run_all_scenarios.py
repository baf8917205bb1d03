#!/usr/bin/env python3
"""Run every registered scenario and print a one-line verdict table.

Usage: python scripts/run_all_scenarios.py [--seed N] [--cases K] [--max-size S]

Exit status is the number of scenarios whose computed verdicts do not match
their registered expectations (0 = everything reproduces).
"""

import argparse
import sys
import time

from tracedcat.cli import SCENARIOS, RunConfig, _positive_int, run_scenario


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=_positive_int, default=60)
    parser.add_argument("--max-size", type=_positive_int, default=3)
    args = parser.parse_args()

    config = RunConfig(seed=args.seed, cases=args.cases,
                       max_size=args.max_size)
    mismatches = 0
    started = time.time()
    for name in sorted(SCENARIOS):
        t0 = time.time()
        payload = run_scenario(name, config)
        verdicts = ",".join(s["verdict"][0] for s in payload["suites"])
        status = "ok" if payload["expected_match"] else "MISMATCH"
        mismatches += 0 if payload["expected_match"] else 1
        print(f"{name:38s} {status:9s} [{verdicts}] {time.time() - t0:6.1f}s")
    print(f"\n{len(SCENARIOS)} scenarios, {mismatches} mismatches, "
          f"{time.time() - started:.1f}s total")
    return mismatches


if __name__ == "__main__":
    sys.exit(main())
