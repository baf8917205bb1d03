"""The benchmark's own arithmetic: order statistics and verdict checking."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail_percentile(count, beyond=10):
    """Highest of TAIL_PERCENTILES with at least ``beyond`` samples above it."""
    for p in TAIL_PERCENTILES:
        if count * (1000 - round(p * 10)) >= beyond * 1000:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def suite_mismatches(passes, reference, pinned):
    """Count suite verdicts that disagree with the reference, over all passes.

    ``passes`` and ``reference`` hold records
    ``[label, suite, verdict, cases_run, expected_match]``.  A suite
    mismatches when its label, suite name or verdict differs from the
    reference, when its scenario missed its registered expectation, when
    ``pinned`` and its cases_run differs from the reference, or when its
    cases_run differs from the first pass.  Missing and surplus suites
    mismatch too.  Returns (mismatched, attempted).
    """
    mismatched = attempted = 0
    first = passes[0] if passes else []
    for records in passes:
        attempted += max(len(records), len(reference))
        mismatched += abs(len(records) - len(reference))
        for got, ref, base in zip(records, reference, first):
            if (got[:3] != ref[:3] or got[4] is not True
                    or (pinned and got[3] != ref[3]) or got[3] != base[3]):
                mismatched += 1
    return mismatched, attempted
