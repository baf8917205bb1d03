import pytest

from tracedcat.core import CapabilityError, Morphism
from tracedcat.laws import (CaseBudget, LawSpec, _run_specs,
                            check_conway_axioms, check_conway_trace_roundtrip,
                            check_monoidal_laws, check_snake,
                            check_trace_axioms)
from tracedcat.eilenberg_moore import check_trace_coherence
from tracedcat.model_linear import MatModel
from tracedcat.model_order import bounded_poset_two_traces, sierpinski
from tracedcat.monads import identity_hopf_bundle


BUDGET = CaseBudget(seed=3, cases=40, max_object_size=3)


def test_monoidal_laws_all_models(mat, zle, fincppo, pfn, two_traces):
    for model in (mat, zle, fincppo, pfn, two_traces.product):
        assert check_monoidal_laws(model, BUDGET).verdict == "pass"


def test_trace_axioms_all_models(mat, zle, fincppo, pfn, two_traces):
    for model in (mat, zle, fincppo, pfn, two_traces.lfp, two_traces.gfp,
                  two_traces.product):
        assert check_trace_axioms(model, BUDGET).verdict == "pass"


def test_snake_requires_compact(fincppo):
    with pytest.raises(CapabilityError):
        check_snake(fincppo, BUDGET)


def test_snake_passes_on_compact_models(mat, zle):
    assert check_snake(mat, CaseBudget(seed=1, cases=10, max_object_size=6)).passed
    assert check_snake(zle, BUDGET).passed


def test_conway_axioms_and_capability(fincppo, two_traces, pfn):
    for model in (fincppo, two_traces.lfp, two_traces.gfp):
        assert check_conway_axioms(model, BUDGET).passed
        assert check_conway_trace_roundtrip(model, BUDGET).passed
    with pytest.raises(CapabilityError):
        check_conway_axioms(pfn, BUDGET)


def test_conway_fix_examples(fincppo):
    sig = sierpinski()
    point = fincppo.unit_obj()
    dom = fincppo.tensor_obj(point, sig)
    ident = fincppo.table(dom, sig, (0, 1))    # f(a, x) = x
    const_top = fincppo.table(dom, sig, (1, 1))
    assert fincppo.fix(sig, point, ident).payload == (0,)
    assert fincppo.fix(sig, point, const_top).payload == (1,)


def test_reports_are_deterministic(mat):
    a = check_trace_axioms(mat, BUDGET)
    b = check_trace_axioms(mat, BUDGET)
    assert a == b
    c = check_trace_axioms(mat, CaseBudget(seed=4, cases=40, max_object_size=3))
    assert c.cases_run == a.cases_run  # same shape, different draws


def test_exhaustive_without_enumerator_is_inconclusive(mat):
    report = check_trace_axioms(mat, BUDGET, exhaustive=True)
    assert report.verdict == "inconclusive"
    assert not report.failures
    # yanking quantifies over objects alone, so it is still exhausted
    assert report.cases_run == 244


def test_exhaustive_models_never_inconclusive(zle, pfn):
    small = CaseBudget(seed=5, cases=10, max_object_size=2)
    assert check_trace_axioms(zle, small, exhaustive=True).verdict == "pass"
    assert check_trace_axioms(pfn, small, exhaustive=True).verdict == "pass"


def test_declined_hom_set_is_skipped_and_counted(capped_pfn):
    budget = CaseBudget(seed=0, cases=40, max_object_size=2)
    # vanishing_tensor at (2, 2, 2, 2) needs an 8-element hom-set: 8^8 maps
    report = check_trace_axioms(bounded_poset_two_traces().lfp, budget,
                                exhaustive=True)
    assert (report.verdict, report.cases_run) == ("inconclusive", 1600)
    assert report.findings == {"skipped_object_tuples": 1}

    report = check_trace_axioms(capped_pfn, budget, exhaustive=True)
    assert (report.verdict, report.cases_run) == ("inconclusive", 5232)
    assert report.findings == {"skipped_object_tuples": 110}

    report = check_trace_coherence(identity_hopf_bundle(capped_pfn), budget)
    assert (report.verdict, report.cases_run) == ("inconclusive", 173)
    assert report.findings == {"quantification": "exhaustive_with_skips",
                               "skipped_object_tuples": 6}


class _BrokenTrace(MatModel):
    """Trace that drops the off-diagonal feedback: violates the axioms."""

    def _trace(self, X, A, B, f):
        good = super()._trace(X, A, B, f)
        bad_rows = [[2 * v for v in row] for row in
                    __import__("tracedcat.model_linear",
                               fromlist=["dense_rows"]).dense_rows(good)]
        return self.morphism(A, B, bad_rows)


def test_failures_replay_soundly():
    model = _BrokenTrace()
    report = check_trace_axioms(model, BUDGET)
    assert report.verdict == "fail"
    assert report.failures
    for failure in report.failures:
        assert isinstance(failure.lhs, Morphism)
        assert not model.mor_eq(failure.lhs, failure.rhs)


def test_budget_validation():
    with pytest.raises(ValueError):
        CaseBudget(seed=0, cases=0)
    with pytest.raises(ValueError):
        CaseBudget(seed=0, max_object_size=0)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_spec_with_several_equations(pfn, exhaustive):
    # each endomap f gives two equations, f = id and f o f = f; every
    # equation is a case, and failures keep instantiation order, then the
    # order of the equations within it
    seen = []

    def sides(A, f):
        seen.append((A, f))
        inputs = {"A": A, "f": f}
        return [("is_identity", inputs, f, pfn.identity(A)),
                ("idempotent", inputs, pfn.compose(f, f), f)]

    spec = LawSpec("endomaps", 1, sides, lambda A: ((A, A),))
    budget = CaseBudget(seed=2, cases=30, max_object_size=2)
    report = _run_specs(pfn, budget, "endomaps", (spec,), exhaustive)
    drawn = list(seen)
    assert len(drawn) == (30 if not exhaustive else
                          sum(len(pfn.enumerate_hom(A, A))
                              for A in pfn.enumerate_objects(2)))
    assert report.cases_run == 2 * len(drawn)
    expected = [(law, inputs) for A, f in drawn
                for law, inputs, lhs, rhs in sides(A, f)
                if not pfn.mor_eq(lhs, rhs)]
    assert [(fl.law, fl.inputs) for fl in report.failures] == expected
    assert {fl.law for fl in report.failures} == {"is_identity",
                                                  "idempotent"}
    assert report.verdict == "fail"
