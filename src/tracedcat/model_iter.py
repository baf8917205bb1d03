"""Finite sets with partial functions: feedback by iteration.

The tensor is the tagged disjoint union, the empty set is both the unit and
an initial object, and the trace of ``f : A (+) X -> B (+) X`` at an input
``a`` repeatedly feeds the X-outputs back into f until a B-output appears;
revisiting an X-state (or stepping on an undefined entry) makes the output
undefined.  Divergence-as-undefinedness is what lets finite sets carry a
trace at all: with total functions there is none.

Morphism tables are ``bytes``: entry i is a codomain index, or ``UNDEF``
(255) where the map is undefined, and every table maps UNDEF to itself.  So
each primitive is a C-level ``bytes`` operation (``g o f`` is f translated
by g padded with ``IDENT``), and a set has at most ``MAX_LABELS`` (254)
labels: a larger one is a :class:`~tracedcat.core.UsageError`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, itemgetter

from .core import (UNDEF, BoundaryError, HomSet, Model, ModelMismatchError,
                   Morphism, UsageError, _mapped, _payloads, _structural,
                   check_labels)
from .monads import BimonadBundle

IDENT = bytes(range(256))     # IDENT[:n] is the identity table of n labels
_UNDEFS = bytes([UNDEF]) * 256
MAX_LABELS = UNDEF - 1

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
            if len(labels) > MAX_LABELS:
                raise UsageError(f"a label set has at most {MAX_LABELS} labels")
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


@lru_cache(maxsize=None)
def _shift(n: int) -> bytes:
    """The translation table that adds ``n`` to an index and fixes UNDEF."""
    return IDENT[n:UNDEF] + _UNDEFS[:n + 1]


def _resolved(parts, nb, nx):
    """For each feedback part fb = table[|A|:] of an ``A (+) X -> B (+) X``
    table, the 256-byte table taking its outputs to the trace's.  A step
    takes output |B| + x to fb[x], and r is where |X| steps lead; an output
    still in X has then revisited an X-state, so it diverges (undefined)."""
    repeat, lo, kill = itertools.repeat, IDENT[:nb], IDENT[:nb] + _UNDEFS[nb:]
    steps = list(map(bytes.join, parts, repeat((lo, IDENT[nb + nx:]))))
    r = parts
    for _ in range(nx - 1):
        r = list(map(bytes.translate, r, steps))
    return map(bytes.join, map(bytes.translate, r, repeat(kill)),
               repeat((lo, kill[nb + nx:])))


def _relabels(x):
    """Whether ``x`` is a Morphism whose table is the identity's between
    sets of one size, so that composing with it changes no table."""
    return (x.__class__ is Morphism and x.dom.size == x.cod.size
            and x.payload == IDENT[:x.dom.size])


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

    # morphisms; None is the undefined entry of a table given here
    def table(self, dom, cod, images) -> Morphism:
        images = tuple(images)
        if len(images) != dom.size or any(
                v is not None and not (0 <= v < cod.size) for v in images):
            raise ModelMismatchError("partial-function table out of range")
        return Morphism(self.name, dom, cod,
                        bytes(UNDEF if v is None else v for v in images))

    def _identity(self, A):
        return Morphism(self.name, A, A, IDENT[:A.size])

    def _compose(self, g, f):
        return Morphism(self.name, f.dom, g.cod,
                        f.payload.translate(g.payload + IDENT[g.dom.size:]))

    def _tensor(self, f, g):
        return Morphism(self.name, self._tensor_obj(f.dom, g.dom),
                        self._tensor_obj(f.cod, g.cod),
                        f.payload + g.payload.translate(_shift(f.cod.size)))

    def _sym(self, A, B):
        return Morphism(self.name, self._tensor_obj(A, B),
                        self._tensor_obj(B, A),
                        IDENT[B.size:B.size + A.size] + IDENT[:B.size])

    # coproduct structure
    @_structural
    def inj0(self, A, B):
        return Morphism(self.name, A, self._tensor_obj(A, B), IDENT[:A.size])

    @_structural
    def inj1(self, A, B):
        return Morphism(self.name, B, self._tensor_obj(A, B),
                        IDENT[A.size:A.size + B.size])

    def copair(self, f, g):
        self.check_mor(f)
        self.check_mor(g)
        if f.cod != g.cod:
            raise BoundaryError("copairing needs a shared codomain")
        dom = self._tensor_obj(f.dom, g.dom)
        return Morphism(self.name, dom, f.cod, f.payload + g.payload)

    @_structural
    def initial_map(self, A):
        return Morphism(self.name, self.unit_obj(), A, b"")

    # the HomSet kernels map the formula of their primitive in C
    def _compose_hom(self, g, f):
        # an identity, associator or unitor factor leaves the other as it is
        if _relabels(g):
            return HomSet(self.name, f.dom, g.cod, f.payloads)
        if _relabels(f):
            return HomSet(self.name, f.dom, g.cod, g.payloads)
        return HomSet(self.name, f.dom, g.cod, map(
            bytes.translate, _payloads(f),
            _mapped(add, g, IDENT[g.dom.size:])))

    def _tensor_hom(self, f, g):
        return HomSet(self.name, self._tensor_obj(f.dom, g.dom),
                      self._tensor_obj(f.cod, g.cod), map(
                          add, _payloads(f),
                          _mapped(bytes.translate, g, _shift(f.cod.size))))

    # iteration trace: a HomSet resolves each distinct feedback part once
    def _trace(self, X, A, B, f):
        return self._trace_hom(X, A, B, HomSet(self.name, f.dom, f.cod,
                                               (f.payload,)))[0]

    def _trace_hom(self, X, A, B, hom):
        feedback = list(map(itemgetter(slice(A.size, None)), hom.payloads))
        parts = list(dict.fromkeys(feedback))
        resolve = dict(zip(parts, _resolved(parts, B.size, X.size)))
        return HomSet(self.name, A, B, map(
            bytes.translate, map(itemgetter(slice(A.size)), hom.payloads),
            map(resolve.__getitem__, feedback)))

    # enumeration / sampling: canonical label sets are 0..k-1
    def enumerate_objects(self, max_size):
        return [FinLabelSet(tuple(range(k))) for k in range(max_size + 1)]

    def enumerate_hom(self, A, B):
        # this class's stream at any size: a subclass may stream nothing
        tables = PfnModel.stream_hom(self, A, B, -1)
        return None if tables is None else HomSet(self.name, A, B, tables)

    def stream_hom(self, A, B, above):
        self.check_obj(A)
        self.check_obj(B)
        if not above < (B.size + 1) ** A.size <= self.hom_cap:
            return None
        return map(bytes, itertools.product([UNDEF, *range(B.size)],
                                            repeat=A.size))

    def sample_hom(self, rng, A, B):
        opts = [UNDEF, *range(B.size)]   # the order enumerate_hom uses
        return Morphism(self.name, A, B,
                        bytes(rng.choice(opts) for _ in range(A.size)))

    def invert(self, f):
        self.check_mor(f)
        if f.dom.size != f.cod.size:
            return None
        if UNDEF in f.payload or len(set(f.payload)) != f.dom.size:
            return None
        inv = [0] * f.cod.size
        for i, v in enumerate(f.payload):
            inv[v] = i
        return Morphism(self.name, f.cod, f.dom, bytes(inv))


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
        images = IDENT[:na + ne] + IDENT[na:na + ne]
        return Morphism(model.name, T(T(A)), T(A), images)

    def eta(A):
        return model.inj0(A, E)

    def m(A, B):
        na, nb = A.size, B.size
        images = (IDENT[:na]                                  # A -> left A
                  + IDENT[na + ne:na + ne + nb]                 # B -> right B
                  + IDENT[na:na + ne])                          # E -> left E
        return Morphism(model.name, T(model.tensor_obj(A, B)),
                        model.tensor_obj(T(A), T(B)), images)

    m_unit = Morphism(model.name, T(model.unit_obj()), model.unit_obj(),
                      _UNDEFS[:ne])

    return BimonadBundle(model, f"exception[{ne}]", on_obj=T, on_mor=on_mor,
                         mu=mu, eta=eta, m=m, m_unit=m_unit)
