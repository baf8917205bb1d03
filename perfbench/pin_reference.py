#!/usr/bin/env python3
"""Write reference.json: every suite's verdict and cases_run per workload.

Usage (from the repository root, with src/ on PYTHONPATH):
    PYTHONPATH=src python3 perfbench/pin_reference.py [SEED ...]

Pins seeds 0 and 1 by default.  Run it only on a commit whose verdicts are
known good: the benchmark then checks every later commit against it.
"""

import json
import sys
from pathlib import Path

import workloads

PATH = Path(__file__).resolve().parent / "reference.json"


def main(seeds):
    pinned = {}
    for seed in seeds:
        pinned[str(seed)] = {}
        for workload in sorted(workloads.WHY):
            records = workloads.run_pass(workload, seed)
            unmet = [r for r in records if r[4] is not True]
            if unmet:
                raise SystemExit(f"{workload} seed {seed}: expectations "
                                 f"not met: {unmet}")
            pinned[str(seed)][workload] = records
            print(f"seed {seed} {workload}: {len(records)} suites", flush=True)
    with open(PATH, "w") as fh:
        json.dump({"seeds": pinned}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0, 1])
