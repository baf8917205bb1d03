"""The benchmark's traced passes call every span they are expected to.

``perfbench/run.py --trace 1`` counts an expected span that records no call
as a failed check, so a change that routes a workload around a wrapped
function (``core.Model.tensor_obj``, say) fails the benchmark's correctness
check although every verdict holds.  Each pass also stays under ceilings on
its per-layer metrics, so that per-case work that comes back to
poset-exhaustive, or a large hom-set that law-exhaustive builds whole again,
fails here first.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

# the tracer wraps the bindings of the tracedcat modules loaded when it is
# installed, so every module is loaded first, as perfbench/worker.py does
importlib.import_module("tracedcat.cli")


# Largest per-layer metrics of a pass.  poset-exhaustive takes each fixed
# point and composite once per object triple or hom-set, not once per case
# (8,664 fix and 19,034 compose calls when strictness_property took them
# case by case).  law-exhaustive builds no pfn hom-set of more than
# laws.HOM_SLICE maps (247,434 tables when it built its seven larger
# hom-sets whole; 27,369 streaming them).
CEILINGS = {"poset-exhaustive": {"model_order.fix.calls": 400,
                                 "core.compose.calls": 5000},
            "law-exhaustive": {"model_iter.enumerate_hom.homs": 40_000}}


@pytest.mark.parametrize("workload", ["law-exhaustive", "poset-exhaustive"])
def test_traced_pass_calls_every_expected_span(workload):
    spans = tracer.Tracer()
    with spans:
        workloads.run_pass(workload, 0)
    calls = {name: c for name, (c, _, _) in spans.totals().items()}
    missing = [name for name in workloads.EXPECTED_SPANS[workload]
               if not calls.get(name)]
    assert missing == []
    metrics = spans.metrics()
    over = {name: metrics[name] for name, most in
            CEILINGS.get(workload, {}).items() if metrics[name] > most}
    assert over == {}
