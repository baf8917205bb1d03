"""Each model's trace against its definition, computed independently.

On the poset models the trace of ``f : A x X -> B x X`` at ``a`` feeds
back the least fixed point (the greatest, for the descending flavour) of
``x |-> f(a, x)_X``, found here among all fixed points by the order.  On
partial functions it is the execution formula
``f_AB v V_n f_XB o f_XX^n o f_AX``, the join of partial maps; the
partial-function composite and tensor are checked against their
definitions on tuple tables too, where None is the undefined entry.
"""

import itertools
import random

import pytest

from tracedcat.core import HomSet
from tracedcat.model_iter import UNDEF, pfn_model
from tracedcat.model_order import (bounded_poset_two_traces, fincppo_model,
                                   poset_product)


def fixed_point_trace(X, A, table, least):
    """Indices are row-major: ``(a, x)`` is ``a * |X| + x``, and so is
    ``(b, x)`` in the codomain."""
    nx = X.size
    images = []
    for a in range(A.size):
        row = table[a * nx:(a + 1) * nx]
        fixed = [x for x in range(nx) if row[x] % nx == x]
        extreme = [x for x in fixed if all(
            X.leq(x, y) if least else X.leq(y, x) for y in fixed)]
        assert len(extreme) == 1
        images.append(row[extreme[0]] // nx)
    return tuple(images)


def execution_formula(X, A, B, table):
    """Indices are tagged: ``A + X`` puts ``x`` at ``|A| + x``, and
    ``B + X`` puts it at ``|B| + x``."""
    na, nb = A.size, B.size

    def component(offset, size, to_b):
        out = {}
        for i in range(size):
            v = table[offset + i]
            if v is not None and (v < nb) == to_b:
                out[i] = v if to_b else v - nb
        return out

    f_ab, f_ax = component(0, na, True), component(0, na, False)
    f_xb, f_xx = component(na, X.size, True), component(na, X.size, False)
    images = []
    for a in range(na):
        outputs = {f_ab[a]} if a in f_ab else set()
        x = f_ax.get(a)
        # x_0 .. x_|X| hold every state the sequence x_n ever reaches
        for _ in range(X.size + 1):
            if x is None:
                break
            if x in f_xb:
                outputs.add(f_xb[x])
            x = f_xx.get(x)
        assert len(outputs) <= 1     # the join of the terms is a partial map
        images.append(outputs.pop() if outputs else None)
    return tuple(images)


def as_tuple(table):
    """A pfn table as a tuple, with None where it is undefined."""
    return tuple(None if v == UNDEF else v for v in table)


def from_tuple(images):
    return bytes(UNDEF if v is None else v for v in images)


def _poset_models():
    two = bounded_poset_two_traces()
    return {"fincppo": (fincppo_model(), True), "bposet-lfp": (two.lfp, True),
            "bposet-gfp": (two.gfp, False)}


def _hom_sets(model, max_size, boundary):
    """Every ``(X, A, B)`` up to ``max_size`` with the enumerated hom-set
    of the morphisms it traces."""
    for X, A, B in itertools.product(model.enumerate_objects(max_size),
                                     repeat=3):
        yield X, A, B, model.enumerate_hom(*boundary(X, A, B))


def _check_hom_sets(model, hom_sets, oracle):
    checked = 0
    for X, A, B, hom in hom_sets:
        traces = model.trace(X, A, B, hom)
        for f, tr in zip(hom, traces):
            assert tr.payload == oracle(X, A, B, f.payload)
            assert model.trace(X, A, B, f) == tr
        checked += len(hom)
    return checked


def test_poset_traces_are_extreme_fixed_points():
    checked = 0
    for model, least in _poset_models().values():
        checked += _check_hom_sets(
            model,
            _hom_sets(model, 2, lambda X, A, B: (poset_product(A, X),
                                                 poset_product(B, X))),
            lambda X, A, B, table, least=least:
                fixed_point_trace(X, A, table, least))
    assert checked == 183


@pytest.mark.parametrize("name", sorted(_poset_models()))
def test_sampled_poset_traces_are_extreme_fixed_points(name):
    model, least = _poset_models()[name]
    rng = random.Random(f"trace-oracle:{name}")
    objects = model.enumerate_objects(3)
    for _ in range(200):
        X, A, B = (rng.choice(objects) for _ in range(3))
        f = model.sample_hom(rng, poset_product(A, X), poset_product(B, X))
        assert (model.trace(X, A, B, f).payload
                == fixed_point_trace(X, A, f.payload, least))


def test_pfn_traces_follow_the_execution_formula():
    pfn = pfn_model()
    checked = _check_hom_sets(
        pfn,
        _hom_sets(pfn, 2, lambda X, A, B: (pfn.tensor_obj(A, X),
                                           pfn.tensor_obj(B, X))),
        lambda X, A, B, table: from_tuple(
            execution_formula(X, A, B, as_tuple(table))))
    assert checked == 1388


def composite(f, g):
    """g after f, on tuple tables."""
    gt = as_tuple(g.payload)
    return tuple(None if v is None else gt[v] for v in as_tuple(f.payload))


def tensor_product(f, g):
    """f (+) g on tuple tables: g's entries follow f's codomain."""
    nb = f.cod.size
    return as_tuple(f.payload) + tuple(None if v is None else nb + v
                                       for v in as_tuple(g.payload))


def _check_kernel(op, definition, fs, gs):
    """``op`` on two zipped HomSets, and on a HomSet with a Morphism, gives
    element by element ``op`` on each pair of Morphisms, and that is the
    definition."""
    pairs = list(itertools.product(fs, gs))
    runs = [(op(HomSet("pfn", fs.dom, fs.cod, [f.payload for f, _ in pairs]),
                HomSet("pfn", gs.dom, gs.cod, [g.payload for _, g in pairs])),
             pairs)]
    runs += [(op(f, gs), [(f, g) for g in gs]) for f in fs]
    runs += [(op(fs, g), [(f, g) for f in fs]) for g in gs]
    for hom, run in runs:
        assert hom.__class__ is HomSet and len(hom) == len(run)
        for h, (f, g) in zip(hom, run):
            assert h == op(f, g)
            assert as_tuple(h.payload) == definition(f, g)
    return len(pairs)


def test_pfn_compose_and_tensor_kernels_follow_their_definitions():
    pfn = pfn_model()
    objects = pfn.enumerate_objects(2)
    homs = [pfn.enumerate_hom(A, B)
            for A, B in itertools.product(objects, repeat=2)]
    composed = tensored = 0
    for fs, gs in itertools.product(homs, repeat=2):
        tensored += _check_kernel(pfn.tensor, tensor_product, fs, gs)
        if fs.cod == gs.dom:
            composed += _check_kernel(lambda f, g: pfn.compose(g, f),
                                      composite, fs, gs)
    assert (composed, tensored) == (233, 529)
