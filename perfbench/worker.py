"""One workload in one fresh process; prints its raw results as JSON.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE OUT_DIR

Untraced (TRACE 0): passes run back to back while the next one is predicted
to end within SECONDS; at least one pass runs.  Traced (TRACE 1): one
untraced pass, then one pass with the wrappers of ``tracer`` installed; the
spans are written to OUT_DIR at the end.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracedcat.cli  # noqa: F401  (set-up, the same import the CLI does)

import tracer
import workloads


def timed_pass(workload, seed):
    start = time.perf_counter()
    records = workloads.run_pass(workload, seed)
    return {"seconds": time.perf_counter() - start, "records": records}


def untraced_run(workload, seed, seconds):
    passes, start = [], time.perf_counter()
    while True:
        passes.append(timed_pass(workload, seed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["seconds"] for p in passes)
        if elapsed + typical > seconds:
            return passes


def traced_run(workload, seed, out_dir):
    untraced = timed_pass(workload, seed)
    spans = tracer.Tracer()
    with spans:
        traced = timed_pass(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans.dump(), fh)
    calls = {name: c for name, (c, _, _) in spans.totals().items()}
    return [untraced, traced], {"metrics": spans.metrics(), "calls": calls,
                                "file": path}


def main(argv):
    workload, seed, seconds, trace, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    result = {"passes": [], "error": None, "trace": None}
    try:
        if trace == "1":
            result["passes"], result["trace"] = traced_run(workload, seed,
                                                           out_dir)
        else:
            result["passes"] = untraced_run(workload, seed, seconds)
    except Exception:
        result["error"] = traceback.format_exc()
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
