#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, by CPU time per pass.

Usage (from any directory):
    python scripts/ab_passes.py PARENT_DIR CHANGE_DIR WORKLOAD ROUNDS

Each round starts one fresh process per checkout, in alternating order
(the parent first in even rounds, the change first in odd ones).  Each
process imports that checkout's ``src/`` and its ``perfbench/workloads.py``
(read-only), runs ``PASSES`` passes of the workload at seed ``SEED`` and
reports the median CPU time (``time.process_time``) of its passes and the
records of its last pass.  After the timed passes it runs one more under
:mod:`cProfile` and reports that pass's total function calls, which do not
vary with the machine's load, so an effect too small for the timings to
resolve still shows as a change in work done.  The calls are summed over
the profiler's own entries, one per function: :mod:`pstats` keeps one of
two functions that share a file, line and name (two comprehensions on one
line), and which one depends on memory layout.  The script fails unless
every process of both sides returns the same records.

Prints one JSON line: per side, its per-round medians, their median and
quartiles, the number of rounds it won (ties count for neither) and its
median call count; the change's median relative to the parent's; the
median over rounds of the change's time relative to the parent's in the
same round, which a slow stretch of a shared machine moves less; and the
change's call count relative to the parent's.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PASSES = 5
SEED = 0

CHILD = """
import cProfile, json, statistics, sys, time
root, workload, passes, seed = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
sys.path[:0] = [root + "/src", root + "/perfbench"]
import workloads
cpu, records = [], None
for _ in range(passes):
    start = time.process_time()
    records = workloads.run_pass(workload, seed)
    cpu.append(time.process_time() - start)
profile = cProfile.Profile()
profile.runcall(workloads.run_pass, workload, seed)
print(json.dumps({"cpu_s": statistics.median(cpu), "records": records,
                  "calls": sum(f.callcount for f in profile.getstats())}))
"""


def one_process(root, workload):
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(root), workload, str(PASSES),
         str(SEED)], capture_output=True, text=True, check=True,
        cwd=root).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv):
    if len(argv) != 4:
        sys.exit(__doc__)
    parent, change = (Path(p).resolve() for p in argv[:2])
    workload, rounds = argv[2], int(argv[3])
    times = {"parent": [], "change": []}
    calls = {"parent": [], "change": []}
    reference = None
    for r in range(rounds):
        order = [("parent", parent), ("change", change)]
        for side, root in (order if r % 2 == 0 else order[::-1]):
            res = one_process(root, workload)
            if reference is None:
                reference = res["records"]
            if res["records"] != reference:
                sys.exit(f"round {r}: the {side} records differ from the "
                         f"first process's")
            times[side].append(res["cpu_s"])
            calls[side].append(res["calls"])
    wins = {"parent": 0, "change": 0}
    for p, c in zip(times["parent"], times["change"]):
        if p != c:
            wins["parent" if p < c else "change"] += 1
    summary = {"workload": workload, "rounds": rounds, "passes": PASSES,
               "seed": SEED}
    for side, xs in times.items():
        q1, q3 = quartiles(xs)
        summary[side] = {"median_cpu_s": round(statistics.median(xs), 4),
                         "q1": round(q1, 4), "q3": round(q3, 4),
                         "won": wins[side],
                         "calls": statistics.median_low(calls[side]),
                         "cpu_s": [round(x, 4) for x in xs]}
    summary["change_vs_parent"] = round(
        summary["change"]["median_cpu_s"] / summary["parent"]["median_cpu_s"]
        - 1, 4)
    summary["paired_change_vs_parent"] = round(statistics.median(
        c / p for p, c in zip(times["parent"], times["change"])) - 1, 4)
    summary["calls_change_vs_parent"] = round(
        summary["change"]["calls"] / summary["parent"]["calls"] - 1, 6)
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
