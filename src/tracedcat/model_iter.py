"""Finite sets with partial functions: feedback by iteration.

The tensor is the tagged disjoint union, the empty set is both the unit and
an initial object, and the trace of ``f : A (+) X -> B (+) X`` at an input
``a`` repeatedly feeds the X-outputs back into f until a B-output appears;
revisiting an X-state (or stepping on an undefined entry) makes the output
undefined.  Divergence-as-undefinedness is what lets finite sets carry a
trace at all: with total functions there is none.

Morphism tables are index-based: entry i is the codomain index or None.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .core import (BoundaryError, HomSet, Model, ModelMismatchError,
                   Morphism, _payloads, _structural, check_labels)
from .monads import BimonadBundle

_LABEL_SETS = {}


class FinLabelSet:
    """A finite set of distinct, hashable labels.  Interned: building one
    equal to an earlier one returns that instance, so equality is identity.
    """

    __slots__ = ("labels", "size")

    def __new__(cls, labels):
        labels = tuple(labels)
        check_labels(labels)
        self = _LABEL_SETS.get(labels)
        if self is None:
            self = _LABEL_SETS[labels] = object.__new__(cls)
            object.__setattr__(self, "labels", labels)
            object.__setattr__(self, "size", len(labels))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a FinLabelSet is immutable")

    def __reduce__(self):  # copies and unpickled sets are re-interned
        return FinLabelSet, (self.labels,)

    def __repr__(self):
        return f"Labels{list(self.labels)!r}"


def label_set(*labels) -> FinLabelSet:
    return FinLabelSet(labels)


@lru_cache(maxsize=None)
def _tagged_union(A: FinLabelSet, B: FinLabelSet) -> FinLabelSet:
    # memoised: the exhaustive law drivers ask for the same few unions
    # millions of times
    return FinLabelSet(tuple((0, x) for x in A.labels)
                       + tuple((1, y) for y in B.labels))


class PfnModel(Model):
    name = "pfn"
    traced = True
    cocartesian = True
    hom_cap = 300_000

    def check_obj(self, A):
        if not isinstance(A, FinLabelSet):
            raise ModelMismatchError(f"not a finite label set: {A!r}")

    def obj_size(self, A):
        return A.size

    def unit_obj(self):
        return FinLabelSet(())

    def _tensor_obj(self, A, B):
        return _tagged_union(A, B)

    # morphisms
    def table(self, dom, cod, images) -> Morphism:
        images = tuple(images)
        if len(images) != dom.size or any(
                v is not None and not (0 <= v < cod.size) for v in images):
            raise ModelMismatchError("partial-function table out of range")
        return Morphism(self.name, dom, cod, images)

    def _identity(self, A):
        return Morphism(self.name, A, A, tuple(range(A.size)))

    def _compose(self, g, f):
        gt = g.payload
        images = tuple(None if v is None else gt[v] for v in f.payload)
        return Morphism(self.name, f.dom, g.cod, images)

    def _tensor(self, f, g):
        nb = f.cod.size
        images = tuple(f.payload) + tuple(
            None if v is None else nb + v for v in g.payload)
        return Morphism(self.name, self._tensor_obj(f.dom, g.dom),
                        self._tensor_obj(f.cod, g.cod), images)

    def _sym(self, A, B):
        images = tuple(B.size + i for i in range(A.size)) \
            + tuple(range(B.size))
        return Morphism(self.name, self._tensor_obj(A, B),
                        self._tensor_obj(B, A), images)

    # coproduct structure
    @_structural
    def inj0(self, A, B):
        return Morphism(self.name, A, self._tensor_obj(A, B),
                        tuple(range(A.size)))

    @_structural
    def inj1(self, A, B):
        return Morphism(self.name, B, self._tensor_obj(A, B),
                        tuple(A.size + j for j in range(B.size)))

    def copair(self, f, g):
        self.check_mor(f)
        self.check_mor(g)
        if f.cod != g.cod:
            raise BoundaryError("copairing needs a shared codomain")
        dom = self._tensor_obj(f.dom, g.dom)
        return Morphism(self.name, dom, f.cod, tuple(f.payload) + tuple(g.payload))

    @_structural
    def initial_map(self, A):
        return Morphism(self.name, self.unit_obj(), A, ())

    def _compose_hom(self, g, f):
        if g.__class__ is HomSet:
            # f's None entries index the None appended to each table of g
            m = f.cod.size
            fs = _payloads(f, lambda ft: tuple(m if v is None else v
                                               for v in ft))
            out = [tuple(map((gt + (None,)).__getitem__, ft))
                   for gt, ft in zip(g.payloads, fs)]
        else:
            look = dict(enumerate(g.payload))
            look[None] = None
            out = [tuple(map(look.__getitem__, ft)) for ft in f.payloads]
        return HomSet(self.name, f.dom, g.cod, out)

    def _tensor_hom(self, f, g):
        nb = f.cod.size
        gs = _payloads(g, lambda gt: tuple(None if v is None else nb + v
                                           for v in gt))
        return HomSet(self.name, self._tensor_obj(f.dom, g.dom),
                      self._tensor_obj(f.cod, g.cod),
                      [ft + gt for ft, gt in zip(_payloads(f), gs)])

    # iteration trace
    def _trace(self, X, A, B, f):
        return self._trace_hom(X, A, B, HomSet(self.name, f.dom, f.cod,
                                               (f.payload,)))[0]

    def _trace_hom(self, X, A, B, hom):
        # an output still in X after |X| feedback steps has revisited an
        # X-state, so it diverges and is undefined
        nb, steps = B.size, range(X.size)
        feed = A.size - nb   # output nb + x is fed back in at A.size + x
        inputs = range(A.size)
        out = []
        for table in hom.payloads:
            images = []
            for i in inputs:
                u = table[i]
                for _ in steps:
                    if u is None or u < nb:
                        break
                    u = table[u + feed]
                else:
                    if u is not None and u >= nb:
                        u = None
                images.append(u)
            out.append(tuple(images))
        return HomSet(self.name, A, B, out)

    # enumeration / sampling: canonical label sets are 0..k-1
    def enumerate_objects(self, max_size):
        return [FinLabelSet(tuple(range(k))) for k in range(max_size + 1)]

    def enumerate_hom(self, A, B):
        self.check_obj(A)
        self.check_obj(B)
        if (B.size + 1) ** A.size > self.hom_cap:
            return None
        opts = [None] + list(range(B.size))
        return HomSet(self.name, A, B,
                      itertools.product(opts, repeat=A.size))

    def sample_hom(self, rng, A, B):
        opts = [None] + list(range(B.size))
        return Morphism(self.name, A, B,
                        tuple(rng.choice(opts) for _ in range(A.size)))

    def invert(self, f):
        self.check_mor(f)
        if f.dom.size != f.cod.size:
            return None
        if None in f.payload or len(set(f.payload)) != f.dom.size:
            return None
        inv = [0] * f.cod.size
        for i, v in enumerate(f.payload):
            inv[v] = i
        return Morphism(self.name, f.cod, f.dom, tuple(inv))


def pfn_model() -> PfnModel:
    return PfnModel()


def exception_bimonad(model: PfnModel, E: FinLabelSet) -> BimonadBundle:
    """T(A) = A (+) E with the exception-style plumbing.

    The multiplication merges the two error summands, the unit is the left
    injection, the comonoidal map routes errors to the left factor and the
    counit-at-unit is nowhere defined (the unit is the empty set).  Whether
    this is actually a bimonad -- let alone a Hopf one -- is left to the
    checkers; no verdict is assumed here.
    """
    model.check_obj(E)
    ne = E.size

    def T(A):
        return model.tensor_obj(A, E)

    def on_mor(f):
        return model.tensor(f, model.identity(E))

    def mu(A):
        na = A.size
        images = tuple(range(na + ne)) + tuple(range(na, na + ne))
        return Morphism(model.name, T(T(A)), T(A), images)

    def eta(A):
        return model.inj0(A, E)

    def m(A, B):
        na, nb = A.size, B.size
        images = (tuple(range(na))                                  # A -> left A
                  + tuple(na + ne + b for b in range(nb))           # B -> right B
                  + tuple(na + e for e in range(ne)))               # E -> left E
        return Morphism(model.name, T(model.tensor_obj(A, B)),
                        model.tensor_obj(T(A), T(B)), images)

    m_unit = Morphism(model.name, T(model.unit_obj()), model.unit_obj(),
                      (None,) * ne)

    return BimonadBundle(model, f"exception[{ne}]", on_obj=T, on_mor=on_mor,
                         mu=mu, eta=eta, m=m, m_unit=m_unit)
