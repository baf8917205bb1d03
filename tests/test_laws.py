import collections
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracedcat
from tracedcat import laws
from tracedcat.core import (UNDEF, CapabilityError, HomSet,
                            ModelMismatchError, Morphism, _payloads)
from tracedcat.laws import (CaseBudget, LawSpec, Recorder, _run_specs,
                            check_conway_axioms, check_conway_trace_roundtrip,
                            check_monoidal_laws, check_snake,
                            check_trace_axioms)
from tracedcat.eilenberg_moore import check_trace_coherence
from tracedcat.model_iter import PfnModel, label_set
from tracedcat.model_linear import MatModel
from tracedcat.model_order import (bounded_poset_two_traces, fincppo_model,
                                   poset_product, sierpinski)
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


def test_driver_checks_objects_then_enumerates_each_hom_set_once(
        monkeypatch):
    model, calls = PfnModel(), collections.Counter()
    enumerate_hom = model.enumerate_hom

    def counted(A, B):
        calls[A, B] += 1
        return enumerate_hom(A, B)

    monkeypatch.setattr(model, "enumerate_hom", counted)
    budget = CaseBudget(seed=0, cases=5, max_object_size=1)
    report = check_trace_axioms(model, budget, exhaustive=True)
    assert (report.verdict, report.cases_run) == ("pass", 389)
    assert len(calls) == 31 and set(calls.values()) == {1}

    def no_case(A):
        raise AssertionError(f"a case ran on {A!r}")

    with pytest.raises(ModelMismatchError, match="not a finite label set"):
        _run_specs(model, budget, "objects", (LawSpec("any", 1, no_case),),
                   exhaustive=True, objs=[label_set(0), 3])


def test_a_kept_hom_set_is_its_own_batch(monkeypatch, fincppo):
    # a hom-set the run keeps goes to the evaluator as itself, not a copy;
    # one of more than HOM_SLICE elements is still read afresh in slices
    hom_sets, P = laws._HomSets(fincppo), poset_product(sierpinski(),
                                                        sierpinski())
    kept = hom_sets[P, P]
    assert kept is hom_sets[P, P] and len(kept) > 1
    (batch,) = hom_sets.slices((P, P), kept)
    assert batch is kept
    monkeypatch.setattr(laws, "HOM_SLICE", 4)
    slices = list(laws._HomSets(fincppo).slices((P, P), kept))
    assert [len(s) for s in slices][:-1] == [4] * (len(slices) - 1)
    assert [f for s in slices for f in s] == list(kept)


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


@pytest.mark.parametrize("failures, skipped, covered, verdict", [
    (0, 0, True, "pass"), (0, 2, True, "inconclusive"),
    (0, 0, False, "inconclusive"), (0, 2, False, "inconclusive"),
    (1, 0, True, "fail"), (1, 2, False, "fail")])
def test_recorder_decides_the_verdict(pfn, failures, skipped, covered,
                                      verdict):
    rec = Recorder(pfn, skipped=skipped, covered=covered)
    for _ in range(failures):
        rec.fail("law", {})
    report = rec.finish("suite", {"kept": 1})
    assert (report.suite, report.model, report.verdict) == (
        "suite", "pfn", verdict)
    # the skip count goes after the caller's findings
    assert list(report.findings.items()) == [("kept", 1)] + (
        [("skipped_object_tuples", skipped)] if skipped else [])


def test_recorder_leaves_a_written_skip_count_in_place(pfn):
    rec = Recorder(pfn, skipped=2)
    findings = {"checked": 1, "skipped_object_tuples": 2, "total": 3}
    assert list(rec.finish("suite", findings).findings) == list(findings)
    # strictness_property writes it even when it is 0
    report = Recorder(pfn).finish("suite", {"skipped_object_tuples": 0})
    assert (report.verdict, report.findings) == (
        "pass", {"skipped_object_tuples": 0})
    assert Recorder(pfn).finish("suite").findings == {}


def test_recorder_folds_a_nested_report(pfn):
    failure = laws.Failure("inner_law", {}, None, None)
    rec = Recorder(pfn, cases=1)
    rec.fold(laws.CheckReport("inner", "pfn", 5, "pass"))
    assert (rec.cases, rec.failures, rec.covered) == (6, [], True)
    rec.fold(laws.CheckReport("inner", "pfn", 3, "inconclusive"))
    assert (rec.cases, rec.covered) == (9, False)
    assert rec.finish("outer").verdict == "inconclusive"
    rec.fold(laws.CheckReport("inner", "pfn", 1, "fail", [failure]))
    report = rec.finish("outer")
    assert (report.cases_run, report.verdict, report.failures) == (
        10, "fail", [failure])


def test_recorder_compares_two_verdicts(pfn):
    rec = Recorder(pfn)
    assert rec.agree("differ", "pass", "pass", {}) is True
    assert rec.agree("differ", False, False, {}) is True
    assert (rec.failures, rec.covered) == ([], True)
    assert rec.agree("differ", "pass", "fail", {"x": 1}) is False
    assert rec.failures == [laws.Failure("differ", {"x": 1}, None, None)]
    assert rec.covered
    assert rec.agree("differ", "fail", "inconclusive", {}) is None
    assert (len(rec.failures), rec.covered, rec.cases) == (1, False, 0)
    rec.failures.clear()
    assert rec.finish("suite").verdict == "inconclusive"


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
    # an exhaustive run hands a hom-set of several endomaps over at once
    drawn = [(A, g) for A, f in seen
             for g in (f if isinstance(f, HomSet) else (f,))]
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


class _MutantPfn(PfnModel):
    """A trace wrong at one point: the loop ``a -> x0 -> x1 -> x0`` of
    ``f : 1 (+) 2 -> 1 (+) 2`` is traced to a defined output."""

    LOOP, WRONG = bytes([1, 2, 1]), bytes([0])

    def _trace(self, X, A, B, f):
        if f.payload == self.LOOP and (X.size, A.size, B.size) == (2, 1, 1):
            return Morphism(self.name, A, B, self.WRONG)
        return super()._trace(X, A, B, f)

    def _trace_hom(self, X, A, B, hom):
        out = super()._trace_hom(X, A, B, hom)
        if (X.size, A.size, B.size) != (2, 1, 1):
            return out
        return HomSet(self.name, A, B,
                      [self.WRONG if f == self.LOOP else p
                       for f, p in zip(hom.payloads, out.payloads)])


class _BifunctorMutantPfn(PfnModel):
    """A tensor wrong at one point: the nowhere-defined map ``1 -> 1``
    tensored with itself is defined at its second entry.  No structural
    map is nowhere defined, so of the exhaustive monoidal laws only
    ``tensor_bifunctorial`` sees it."""

    NOWHERE, WRONG = bytes([UNDEF]), bytes([UNDEF, 1])

    def _hit(self, f, g, fp, gp):
        return (f.cod.size, g.cod.size, fp, gp) == (1, 1, self.NOWHERE,
                                                   self.NOWHERE)

    def _tensor(self, f, g):
        out = super()._tensor(f, g)
        if self._hit(f, g, f.payload, g.payload):
            return Morphism(self.name, out.dom, out.cod, self.WRONG)
        return out

    def _tensor_hom(self, f, g):
        out = super()._tensor_hom(f, g)
        return HomSet(self.name, out.dom, out.cod,
                      [self.WRONG if self._hit(f, g, fp, gp) else p
                       for fp, gp, p in zip(_payloads(f), _payloads(g),
                                            out.payloads)])


class _UnstreamedPfn(PfnModel):
    """Partial functions whose hom-sets the driver builds whole."""

    def stream_hom(self, A, B, above):
        return None


class _UnstreamedMutantPfn(_MutantPfn, _UnstreamedPfn):
    pass


@pytest.mark.parametrize("streamed, built", [
    (PfnModel, _UnstreamedPfn), (_MutantPfn, _UnstreamedMutantPfn)])
def test_streamed_hom_sets_give_the_built_report(monkeypatch, streamed,
                                                 built):
    # with 7-map slices every pfn hom-set of more than 7 maps streams, and
    # _MutantPfn fails inside Hom(3, 3), whose 64 maps come in nine slices
    # of 7 and a last one of 1
    monkeypatch.setattr(laws, "HOM_SLICE", 7)
    sizes, check_hom = [], Recorder.check_hom

    def counted(self, equations, n):
        sizes.append(n)
        return check_hom(self, equations, n)

    monkeypatch.setattr(Recorder, "check_hom", counted)
    budget = CaseBudget(0, 10, 2)
    reports = [check_trace_axioms(model(), budget, exhaustive=True)
               for model in (streamed, built)]
    assert {1, 7} <= set(sizes)
    (got, want) = reports
    assert (got.verdict, got.cases_run, got.findings) == (
        want.verdict, want.cases_run, want.findings)
    assert [(f.law, f.inputs, f.lhs, f.rhs) for f in got.failures] == [
        (f.law, f.inputs, f.lhs, f.rhs) for f in want.failures]
    assert bool(got.failures) == (streamed is _MutantPfn)


def test_exhaustive_pfn_trace_memory_peak():
    # in a fresh process: no hom-set of more than HOM_SLICE maps is built
    # whole, so the peak is the kept hom-sets and one slice's work (8.6 MiB
    # when Hom(6, 6)'s 117,649 maps were built at once)
    script = ("import tracemalloc\n"
              "from tracedcat.laws import CaseBudget, check_trace_axioms\n"
              "from tracedcat.model_iter import pfn_model\n"
              "tracemalloc.start()\n"
              "check_trace_axioms(pfn_model(), CaseBudget(0, 60, 2),\n"
              "                   exhaustive=True)\n"
              "print(tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(tracedcat.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert int(done.stdout) < 4 * 2 ** 20


def test_hom_set_driver_matches_a_morphism_by_morphism_run(monkeypatch):
    # the exhaustive driver hands the innermost run of hom-sets over at
    # once, zipped, in batches of at most HOM_SLICE; the reference
    # evaluates every exhaustive spec on one Morphism at a time, and
    # samples the others as the driver does
    runs = [  # (model, suite, HOM_SLICE, the laws that fail)
        (_MutantPfn(), check_trace_axioms, laws.HOM_SLICE,
         {"tightening_left", "tightening_right", "sliding",
          "vanishing_tensor", "superposing"}),
        # batches end mid-product, and Hom(2, 2)'s nine maps come in two
        # slices
        (_BifunctorMutantPfn(), check_monoidal_laws, 5,
         {"tensor_bifunctorial"}),
        (fincppo_model(), check_trace_axioms, laws.HOM_SLICE, set()),
        (fincppo_model(), check_monoidal_laws, laws.HOM_SLICE, set()),
    ]
    budget = CaseBudget(seed=0, cases=60, max_object_size=2)
    specs = []

    def capture(model, budget, suite, run, exhaustive=False, objs=None):
        specs.extend(run)
        return _run_specs(model, budget, suite, run, exhaustive, objs)

    monkeypatch.setattr(laws, "_run_specs", capture)
    for model, check, hom_slice, failing in runs:
        specs.clear()
        monkeypatch.setattr(laws, "HOM_SLICE", hom_slice)
        report = check(model, budget, exhaustive=True)
        reference = Recorder(model)
        objs = model.enumerate_objects(budget.max_object_size)
        for spec in specs:
            if not spec.exhaustive:
                sampled = _run_specs(model, budget, spec.name, (spec,))
                reference.cases += sampled.cases_run
                reference.failures += sampled.failures
                continue
            for objects in itertools.product(objs, repeat=spec.arity):
                homs = [model.enumerate_hom(dom, cod)
                        for dom, cod in (spec.homs(*objects) if spec.homs
                                         else ())]
                if None in homs:
                    continue
                for morphisms in itertools.product(*map(list, homs)):
                    for equation in spec.sides(*objects, *morphisms):
                        reference.check(*equation)
        assert report.cases_run == reference.cases
        assert report.failures == reference.failures
        assert {f.law for f in report.failures} == failing
        assert (report.verdict == "fail") == bool(failing)
