"""Self-tests of the benchmark's own arithmetic and wrapper installation.

Run from the repository root: python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

import metrics
import tracer

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_calls():
    # outer [0, 10] calls inner [1, 4] and inner [5, 6]
    spans = tracer.Tracer(clock=FakeClock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]))
    inner = spans.wrap("t.inner", lambda: None)

    def body():
        inner()
        inner()

    spans.wrap("t.outer", body, keep=True)()
    assert spans.aggregate[("t.outer", "<root>")] == [1, 10.0, 6.0]
    assert spans.aggregate[("t.inner", "t.outer")] == [2, 4.0, 4.0]
    assert spans.spans == [(0, None, "t.outer", 0.0, 10.0)]


def test_recursive_span_counts_self_time_once():
    # f [0, 8] calls f [2, 5]: total time 11, self time 8
    spans = tracer.Tracer(clock=FakeClock([0.0, 2.0, 5.0, 8.0]))
    depth = []

    def f():
        depth.append(1)
        if len(depth) == 1:
            wrapped()

    wrapped = spans.wrap("t.f", f)
    wrapped()
    assert spans.totals()["t.f"] == [2, 11.0, 8.0]


def test_span_recorded_when_call_raises():
    spans = tracer.Tracer(clock=FakeClock([0.0, 3.0]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        spans.wrap("t.boom", boom)()
    assert spans.totals()["t.boom"] == [1, 3.0, 3.0]
    assert spans._stack == [["<root>", 3.0, None]]


def test_median_and_quartile_spread():
    assert metrics.median([3.0, 1.0, 2.0]) == 2.0
    assert metrics.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    # statistics.quantiles(n=4), exclusive method: q1 = 2.5, q3 = 7.5
    values = [float(v) for v in range(1, 10)]
    assert metrics.quartile_spread(values) == pytest.approx(5.0 / 5.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.tail_percentile(19) is None
    assert metrics.tail_percentile(20) == 50.0
    assert metrics.tail_percentile(99) == 50.0
    assert metrics.tail_percentile(100) == 90.0
    assert metrics.tail_percentile(1000) == 99.0
    assert metrics.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 100) == 100
    assert metrics.percentile([7.0], 99.9) == 7.0


REFERENCE = [["s", "a", "pass", 10, True], ["s", "b", "fail", 5, True]]


def test_mismatch_ratio_against_the_reference():
    good = [list(r) for r in REFERENCE]
    assert metrics.suite_mismatches([good, good], REFERENCE, True) == (0, 4)


def test_mismatch_ratio_against_a_wrong_reference():
    wrong = [["s", "a", "fail", 10, True], ["s", "b", "fail", 6, True]]
    good = [list(r) for r in REFERENCE]
    # a wrong verdict always counts; a wrong cases_run only when pinned
    assert metrics.suite_mismatches([good], wrong, True) == (2, 2)
    assert metrics.suite_mismatches([good], wrong, False) == (1, 2)


def test_mismatch_counts_expectations_missing_suites_and_drift():
    unmet = [["s", "a", "pass", 10, False], ["s", "b", "fail", 5, True]]
    assert metrics.suite_mismatches([unmet], REFERENCE, True) == (1, 2)
    assert metrics.suite_mismatches([REFERENCE[:1]], REFERENCE, True) == (1, 2)
    drift = [["s", "a", "pass", 11, True], ["s", "b", "fail", 5, True]]
    assert metrics.suite_mismatches([REFERENCE, drift], REFERENCE,
                                    False) == (1, 4)


def test_install_patches_every_binding_and_uninstall_restores():
    import tracedcat.cli as cli
    from tracedcat import core, eilenberg_moore, hopf_monoid, laws, monads

    before = (laws.check_trace_axioms, monads.fusion_left, core.Model.trace)
    spans = tracer.Tracer()
    with spans:
        assert cli.check_trace_axioms is laws.check_trace_axioms
        assert laws.check_trace_axioms is not before[0]
        for module in (monads, eilenberg_moore, hopf_monoid):
            assert module.fusion_left is not before[1]
            assert module.fusion_left.__wrapped__ is before[1]
        assert core.Model.trace.__wrapped__ is before[2]
    assert (laws.check_trace_axioms, monads.fusion_left,
            core.Model.trace) == before
    assert cli.check_trace_axioms is before[0]
    assert eilenberg_moore.fusion_left is before[1]


def test_metric_names_cover_every_span_and_module():
    names = tracer.metric_names()
    assert len(names) == len(set(names))
    assert {n.split(".")[0] for n in names} == set(tracer.MODULES)
    assert set(tracer.Tracer().metrics()) == set(names)
