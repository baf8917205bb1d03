#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload, by its end-to-end metrics.

Usage (from any directory):
    python scripts/ab_bench.py PARENT_DIR CHANGE_DIR WORKLOAD PAIRS SEED

Each pair runs ``perfbench/run.py --workload WORKLOAD --seed SEED
--seconds 20 --trace 0`` once in each checkout, in alternating order (the
parent first in even pairs, the change first in odd ones), and reads the
four end-to-end metrics of ``BENCHMARK.json`` from its last line.  Fails
unless every run prints ``"correct": true`` with no failed check.

Prints one line per pair with both sides' metrics, then one line per
metric: each side's median and quartiles, the pairs each side won (by the
metric's ``better`` direction; ties count for neither), the change's median
relative to the parent's, and two verdicts:

- ``claim``: whether the change could claim a gain on this metric, that is
  it won at least nine in ten of the pairs and its median is better than
  the parent's by more than the parent's interquartile range;
- ``within_bound``: whether the change's median is worse than the parent's
  by no more than the metric's bound in ``BENCHMARK.json``.

The last line is the same summary as one JSON object.
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 20


def run_once(root, workload, seed):
    """The ``metrics`` values of one ``perfbench/run.py`` run in ``root``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{root}: the run was not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(parent, change, metrics):
    """One summary per metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries), from the paired runs ``parent[k]`` and
    ``change[k]``, each a dict of metric values."""
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        xs = [run[name] for run in parent]
        ys = [run[name] for run in change]
        wins = {"parent": sum(sign * (x - y) < 0 for x, y in zip(xs, ys)),
                "change": sum(sign * (y - x) < 0 for x, y in zip(xs, ys))}
        (p_q1, p_q3), (c_q1, c_q3) = quartiles(xs), quartiles(ys)
        p_med, c_med = statistics.median(xs), statistics.median(ys)
        gain = sign * (p_med - c_med)   # > 0 when the change is better
        out[name] = {
            "parent": {"median": p_med, "q1": p_q1, "q3": p_q3,
                       "won": wins["parent"]},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3,
                       "won": wins["change"]},
            "change_vs_parent": c_med / p_med - 1,
            "claim": (wins["change"] >= math.ceil(0.9 * len(xs))
                      and gain > p_q3 - p_q1),
            "bound": spec["bound"],
            "within_bound": -gain <= spec["bound"] * p_med,
        }
    return out


def main(argv):
    if len(argv) != 5:
        sys.exit(__doc__)
    parent, change = (Path(p).resolve() for p in argv[:2])
    workload, pairs, seed = argv[2], int(argv[3]), int(argv[4])
    with open(parent / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    names = [spec["name"] for spec in metrics]
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        order = [("parent", parent), ("change", change)]
        for side, root in (order if k % 2 == 0 else order[::-1]):
            runs[side].append(run_once(root, workload, seed))
        print(f"pair {k} ({order[k % 2][0]} first): " + "  ".join(
            f"{n} {runs['parent'][k][n]:.4g} -> {runs['change'][k][n]:.4g}"
            for n in names), flush=True)
    summary = summarize(runs["parent"], runs["change"], metrics)
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name}: parent {p['median']:.4g} [{p['q1']:.4g}, "
              f"{p['q3']:.4g}] won {p['won']}; change {c['median']:.4g} "
              f"[{c['q1']:.4g}, {c['q3']:.4g}] won {c['won']}; "
              f"{s['change_vs_parent']:+.1%}; claim {s['claim']}; "
              f"within bound {s['bound']}: {s['within_bound']}")
    print(json.dumps({"workload": workload, "pairs": pairs, "seed": seed,
                      "metrics": summary, "runs": runs}))


if __name__ == "__main__":
    main(sys.argv[1:])
