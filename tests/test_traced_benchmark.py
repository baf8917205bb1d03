"""The benchmark's traced passes call every span they are expected to.

``perfbench/run.py --trace 1`` counts an expected span that records no call
as a failed check, so a change that routes a workload around a wrapped
function (``core.Model.tensor_obj``, say) fails the benchmark's correctness
check although every verdict holds.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["law-exhaustive", "poset-exhaustive"])
def test_traced_pass_calls_every_expected_span(workload):
    spans = tracer.Tracer()
    with spans:
        workloads.run_pass(workload, 0)
    calls = {name: c for name, (c, _, _) in spans.totals().items()}
    missing = [name for name in workloads.EXPECTED_SPANS[workload]
               if not calls.get(name)]
    assert missing == []
