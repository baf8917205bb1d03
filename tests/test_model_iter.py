import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracedcat.core import UsageError
from tracedcat.laws import CaseBudget, check_trace_axioms
from tracedcat.model_iter import (UNDEF, FinLabelSet, _tagged_union,
                                  exception_bimonad, label_set)
from tracedcat.monads import (check_bimonad_laws, check_monad_laws,
                              hopf_from_bimonad, idempotence_suite,
                              try_invert_fusion)
from tracedcat.eilenberg_moore import cocartesian_corollary_check


def test_trace_examples(pfn):
    x = label_set("x")
    yank = pfn.trace(x, x, x, pfn.sym(x, x))
    assert yank.payload == bytes([0])

    # a self-loop diverges: output undefined for anything routed into it
    A = label_set("a")
    X = label_set("s")
    dom = pfn.tensor_obj(A, X)
    f = pfn.table(dom, dom, (1, 1))  # a -> loop state -> itself
    tr = pfn.trace(X, A, A, f)
    assert tr.payload == bytes([UNDEF])

    nowhere = pfn.table(dom, dom, (None, None))
    assert pfn.trace(X, A, A, nowhere).payload == bytes([UNDEF])


def test_trace_terminates_through_states(pfn):
    A = label_set("a")
    B = label_set("b")
    X = label_set(0, 1)
    dom = pfn.tensor_obj(A, X)
    cod = pfn.tensor_obj(B, X)
    # a -> state0 -> state1 -> b
    f = pfn.table(dom, cod, (1, 2, 0))
    assert pfn.trace(X, A, B, f).payload == bytes([0])


def test_copair_laws_and_uniqueness(pfn):
    A = label_set("a0", "a1")
    B = label_set("b0")
    C = label_set("c0", "c1")
    fs = pfn.enumerate_hom(A, C)
    gs = pfn.enumerate_hom(B, C)
    i0, i1 = pfn.inj0(A, B), pfn.inj1(A, B)
    for f, g in itertools.product(fs[:9], gs):
        h = pfn.copair(f, g)
        assert pfn.mor_eq(pfn.compose(h, i0), f)
        assert pfn.mor_eq(pfn.compose(h, i1), g)
        # uniqueness: any map restricting to f and g equals the copairing
        matches = [k for k in pfn.enumerate_hom(pfn.tensor_obj(A, B), C)
                   if pfn.mor_eq(pfn.compose(k, i0), f)
                   and pfn.mor_eq(pfn.compose(k, i1), g)]
        assert matches == [h]


def test_initial_map_unique(pfn):
    A = label_set("a")
    assert pfn.initial_map(A).payload == b""
    assert list(pfn.enumerate_hom(pfn.unit_obj(), A)) == [pfn.initial_map(A)]


def test_iteration_axioms_exhaustive_tiny(pfn):
    report = check_trace_axioms(pfn, CaseBudget(seed=1, cases=5,
                                                max_object_size=1),
                                exhaustive=True)
    assert report.verdict == "pass"


def test_exception_bundle_empty_is_identity_like(pfn):
    budget = CaseBudget(seed=2, cases=20, max_object_size=2)
    empty = exception_bimonad(pfn, label_set())
    assert check_monad_laws(empty, budget).passed
    assert check_bimonad_laws(empty, budget).passed
    assert idempotence_suite(empty, budget).findings["idempotent"]


def test_exception_bundle_err_computed_verdicts(pfn):
    budget = CaseBudget(seed=2, cases=20, max_object_size=2)
    err = exception_bimonad(pfn, label_set("err"))
    assert check_monad_laws(err, budget).passed
    report = check_bimonad_laws(err, budget)
    assert report.verdict == "fail"
    laws = {f.law for f in report.failures}
    assert "comonoidal_counit_left" in laws
    # its fusion operator still inverts...
    assert try_invert_fusion(err, label_set(0, 1), label_set(0)) is not None
    # ...but the multiplication merges the two error summands: not injective
    assert not idempotence_suite(err, budget).findings["mu_invertible"]


def test_corollary_gate_excludes_pseudo_bundle(pfn):
    budget = CaseBudget(seed=3, cases=15, max_object_size=1)
    err = exception_bimonad(pfn, label_set("err"))
    pseudo, witness = hopf_from_bimonad(err, budget)
    assert witness is None
    report = cocartesian_corollary_check(pseudo, budget)
    assert report.findings["bimonad_laws"] == "fail"
    assert report.findings["corollary_applicable"] is False
    assert report.findings["idempotent"] is False
    # the raw coherence equation happens to hold for this wrapper, which is
    # exactly why the gate on the actual Hopf laws matters
    assert report.findings["trace_coherence"] == "pass"


def test_label_sets_are_interned(pfn):
    two = label_set(0, 1)
    assert two is FinLabelSet([0, 1])
    assert pfn.enumerate_objects(2)[2] is two
    assert pfn.unit_obj() is label_set() is pfn.enumerate_objects(0)[0]
    one = label_set(0)
    union = _tagged_union(one, one)
    assert union is label_set((0, 0), (1, 0)) is pfn.tensor_obj(one, one)
    for same in (copy.copy(two), copy.deepcopy(two),
                 pickle.loads(pickle.dumps(two))):
        assert same is two
    with pytest.raises(AttributeError):
        two.labels = (5, 6)
    assert two.labels == (0, 1) and two.size == 2


def test_repr_shows_table_indices(pfn):
    # a table is bytes, but a witness prints its indices and None
    f = pfn.table(label_set(0, 1, 2), label_set(0, 1), (1, None, 0))
    assert f.payload == bytes([1, UNDEF, 0])
    assert repr(f) == "Mor[pfn](Labels[0, 1, 2] -> Labels[0, 1]; (1, None, 0))"
    assert repr(pfn.identity(label_set())).endswith("; ())")


def test_unhashable_or_repeated_label_is_a_usage_error():
    with pytest.raises(UsageError, match=r"label \[1\] is not hashable"):
        label_set([1])
    with pytest.raises(UsageError, match=r"label \(0, \[1\]\) is not hashable"):
        FinLabelSet([(0, [1])])
    with pytest.raises(UsageError, match="distinct"):
        label_set("a", "a")


def test_label_sets_fit_in_a_byte(pfn):
    with pytest.raises(UsageError, match="at most 254 labels"):
        label_set(*range(255))
    half = label_set(*range(128))
    with pytest.raises(UsageError, match="at most 254 labels"):
        pfn.tensor_obj(half, half)
    widest = pfn.identity(label_set(*range(254)))
    assert pfn.compose(widest, widest) == widest == pfn.invert(widest)
    assert pfn.tensor(widest, pfn.identity(pfn.unit_obj())).payload \
        == widest.payload


def _sets(draw, lo, hi):
    return FinLabelSet(tuple(range(draw(st.integers(lo, hi)))))


def _table(draw, dom, cod):
    opts = [None] + list(range(cod.size))
    return tuple(draw(st.sampled_from(opts)) for _ in range(dom.size))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_composition_associative_on_random_tables(data):
    from tracedcat.model_iter import pfn_model

    model = pfn_model()
    A, B, C, D = (_sets(data.draw, 0, 3) for _ in range(4))
    f = model.table(A, B, _table(data.draw, A, B))
    g = model.table(B, C, _table(data.draw, B, C))
    h = model.table(C, D, _table(data.draw, C, D))
    assert model.compose(h, model.compose(g, f)) == \
        model.compose(model.compose(h, g), f)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tightening_on_random_tables(data):
    from tracedcat.model_iter import pfn_model

    model = pfn_model()
    A, Ap, B, X = (_sets(data.draw, 0, 3) for _ in range(4))
    AX = model.tensor_obj(A, X)
    BX = model.tensor_obj(B, X)
    f = model.table(AX, BX, _table(data.draw, AX, BX))
    g = model.table(Ap, A, _table(data.draw, Ap, A))
    lhs = model.trace(X, Ap, B,
                      model.compose(f, model.tensor(g, model.identity(X))))
    rhs = model.compose(model.trace(X, A, B, f), g)
    assert model.mor_eq(lhs, rhs)
