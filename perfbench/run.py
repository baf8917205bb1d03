#!/usr/bin/env python3
"""tracedcat benchmark: time-to-verdict per workload, checked verdicts.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts fresh processes: SETUP_PROBES that only import
``tracedcat.cli`` (set-up time), then one worker that runs the workload in a
closed loop on one thread (see worker.py).  Every suite's verdict and
cases_run is checked against reference.json.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced pass with --trace 1.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 15      # half before the worker, half after it
DEADLINE_S = 170.0
PROBE = ("import sys, tracedcat.cli; "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(env):
    """Wall time from spawning a fresh interpreter to tracedcat.cli imported."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError("set-up probe could not import tracedcat.cli")
    return elapsed


def run_worker(env, args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), str(OUT_DIR)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def reference_for(workload, seed):
    """(reference records, pinned) for a seed; unpinned seeds check verdicts."""
    with open(HERE / "reference.json") as fh:
        seeds = json.load(fh)["seeds"]
    pinned = str(seed) in seeds
    return seeds[str(seed) if pinned else "0"][workload], pinned


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(result, setup):
    passes = result["passes"]
    verdict_s = metrics.median(p["seconds"] for p in passes)
    cases = metrics.median(sum(r[3] for r in p["records"]) / p["seconds"]
                           for p in passes)
    return {
        "verdict_s": metric(verdict_s, "s"),
        "cases_per_s": metric(cases, "1/s"),
        "setup_s": metric(metrics.median(setup), "s"),
        "peak_rss_mib": metric(result["maxrss_kib"] / 1024.0, "MiB"),
    }


def per_layer(result):
    untraced, traced = (p["seconds"] for p in result["passes"])
    units = {"self_s": "s", "accept_ratio": "ratio"}
    out = {name: metric(value, units.get(name.rsplit(".", 1)[1], "count"))
           for name, value in result["trace"]["metrics"].items()}
    out["tracing.verdict_s"] = metric(traced, "s")
    out["tracing.overhead_s"] = metric(traced - untraced, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "tracedcat" / "cli.py").is_file():
        raise BenchError(f"no tracedcat sources under {ROOT / 'src'}")
    reference, pinned = reference_for(args.workload, args.seed)

    env = child_env()
    setup_seconds(env)  # untimed: fills the file cache and writes bytecode
    # probes on both sides of the worker, so one slow stretch of the
    # machine does not set every sample
    setup = [setup_seconds(env) for _ in range(SETUP_PROBES // 2)]
    result = run_worker(env, args,
                        DEADLINE_S - (time.perf_counter() - started))
    setup += [setup_seconds(env) for _ in range(SETUP_PROBES - len(setup))]

    failed, attempted = metrics.suite_mismatches(
        [p["records"] for p in result["passes"]], reference, pinned)
    problems = []
    if result["error"]:
        problems.append(result["error"].rstrip())
        failed = attempted = max(attempted, len(reference))
    elif args.trace:
        calls = result["trace"]["calls"]
        missing = [n for n in workloads.EXPECTED_SPANS[args.workload]
                   if not calls.get(n)]
        problems += [f"expected span {n} recorded no calls" for n in missing]
        failed += len(missing)
        attempted += len(workloads.EXPECTED_SPANS[args.workload])
    if failed and not problems:
        problems.append("suite verdicts or cases_run differ from the "
                        "reference" + ("" if pinned else " (verdicts of seed 0)"))

    passes = len(result["passes"])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"tracing {'on' if args.trace else 'off'}  passes {passes}  "
          f"reference {'pinned' if pinned else 'seed-0 verdicts'}")
    if args.trace:
        found = per_layer(result) if not result["error"] else {}
        print(f"  spans written to {result['trace']['file']}"
              if found else "  no traced pass completed")
    else:
        found = end_to_end(result, setup) if passes else {}
        tail = metrics.tail_percentile(passes)
        if found and tail:
            times = [p["seconds"] for p in result["passes"]]
            print(f"  pass time p{tail:g}: "
                  f"{metrics.percentile(times, tail):.6g} s")
        print(f"  verdict_s and cases_per_s are medians over {passes} "
              f"pass(es); setup_s over {len(setup)} fresh processes")
    for name, m in found.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"  {'mismatch_ratio':52s} {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} checks)")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not problems and bool(found),
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": found}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
