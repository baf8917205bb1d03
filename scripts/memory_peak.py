#!/usr/bin/env python3
"""Measure the memory of one benchmark pass, in this fresh process.

Usage (from the repository root):
    PYTHONPATH=src python scripts/memory_peak.py WORKLOAD SEED

Runs one untraced pass of a ``perfbench`` workload and reads the resident
peak (``ru_maxrss``), then runs a second pass under ``tracemalloc`` and
reads its peak, the most memory the pass held at once beyond what the first
pass left behind.  Prints one JSON line.

``perfbench/run.py``'s ``peak_rss_mib`` is the resident peak after many
passes, which also moves with heap fragmentation; these two numbers do not,
so a memory claim quotes them beside it.
"""

import json
import resource
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

MIB = 2 ** 20


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.run_pass(workload, seed)
    first_pass_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    workloads.run_pass(workload, seed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({"workload": workload, "seed": seed,
                      "first_pass_maxrss_mib": round(first_pass_kib / 1024, 2),
                      "tracemalloc_peak_mib": round(peak / MIB, 2)}))


if __name__ == "__main__":
    main()
