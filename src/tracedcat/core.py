"""Executable symmetric monoidal categories.

A :class:`Model` bundles the operation table of one concrete category:
objects, morphisms, tensor, symmetry, structural isomorphisms, and optional
extra structure (trace operator, duals, finite products or coproducts, fixed
points), each declared by a capability flag.  Every model enumerates its
objects up to a size bound; a hom-set may decline to enumerate.  Shipped
models live in ``model_linear``, ``model_order`` and ``model_iter``.

Conventions used everywhere:

* morphisms are immutable values with explicit ``dom``/``cod`` objects and
  exact, decidable equality (integers, fractions, finite tables -- never
  floats);
* ``compose(g, f)`` means "g after f";
* the trace operator always receives its factorisation ``(X, A, B)``
  explicitly, because tensor on objects is not free in every model
  (integers add, dimensions multiply), so ``dom(f)`` alone does not
  determine ``A``.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property, partial, wraps
from typing import Optional


class ModelError(Exception):
    """Base class for errors raised by model operations."""


class ModelMismatchError(ModelError):
    """An object or morphism was handed to a model that does not own it."""


class BoundaryError(ModelError):
    """Domain/codomain bookkeeping failed (composition, trace shapes...)."""


class CapabilityError(ModelError):
    """The model lacks the requested capability (trace, duals, products)."""


class UsageError(ModelError):
    """An operation was called with inconsistent or ambiguous arguments."""


class EmptyHomError(ModelError):
    """A sampler was asked for a morphism out of an empty hom-set."""


# the entry of a ``bytes`` table (a partial function's, in ``model_iter``)
# where the map is undefined
UNDEF = 255


def check_labels(labels: tuple) -> None:
    """The labels of an interned object must be hashable and distinct."""
    for label in labels:
        try:
            hash(label)
        except TypeError:
            raise UsageError(f"label {label!r} is not hashable") from None
    if len(set(labels)) != len(labels):
        raise UsageError(f"labels must be distinct: {labels!r}")


class Morphism:
    """A morphism of a concrete model.

    ``payload`` is model-specific (matrix, monotone table, partial-function
    table, order witness) and immutable; two parallel morphisms are equal
    iff their payloads are equal.  Never equal to a tuple of its fields.
    """

    __slots__ = ("model", "dom", "cod", "payload")

    def __init__(self, model: str, dom, cod, payload):
        _set_model(self, model)
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_payload(self, payload)

    def __setattr__(self, name, value):  # __init__ uses the slot setters
        raise AttributeError("a Morphism is immutable")

    def __reduce__(self):  # copy and pickle would restore through setattr
        return Morphism, (self.model, self.dom, self.cod, self.payload)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.model, self.dom, self.cod, self.payload)
                == (other.model, other.dom, other.cod, other.payload))

    def __hash__(self):
        return hash((self.model, self.dom, self.cod, self.payload))

    def __repr__(self):  # short, for failure witnesses
        payload = self.payload
        if payload.__class__ is bytes:  # a table: indices, None undefined
            payload = tuple(None if v == UNDEF else v for v in payload)
        return f"Mor[{self.model}]({self.dom!r} -> {self.cod!r}; {payload!r})"


_set_model, _set_dom, _set_cod, _set_payload = (
    vars(Morphism)[name].__set__ for name in Morphism.__slots__)


class HomSet(Sequence):
    """Parallel morphisms ``dom -> cod`` of the model named ``model``: an
    immutable sequence of payloads, each read as a :class:`Morphism`."""

    __slots__ = ("model", "dom", "cod", "payloads")

    def __init__(self, model: str, dom, cod, payloads):
        _set_hom_model(self, model)
        _set_hom_dom(self, dom)
        _set_hom_cod(self, cod)
        _set_hom_payloads(self, tuple(payloads))

    def __setattr__(self, name, value):
        raise AttributeError("a HomSet is immutable")

    def __reduce__(self):
        return HomSet, (self.model, self.dom, self.cod, self.payloads)

    def __len__(self):
        return len(self.payloads)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return HomSet(self.model, self.dom, self.cod, self.payloads[k])
        return Morphism(self.model, self.dom, self.cod, self.payloads[k])

    def __iter__(self):  # Sequence.__iter__ indexes until IndexError
        return map(partial(Morphism, self.model, self.dom, self.cod),
                   self.payloads)


_set_hom_model, _set_hom_dom, _set_hom_cod, _set_hom_payloads = (
    vars(HomSet)[name].__set__ for name in HomSet.__slots__)


def _zip_hom(*args):
    """The elements of the HomSet arguments, zipped; a Morphism repeats."""
    return zip(*(x if x.__class__ is HomSet else itertools.repeat(x)
                 for x in args))


def _payloads(x):
    """The payloads of a HomSet, or a Morphism's payload repeated."""
    if x.__class__ is HomSet:
        return x.payloads
    return itertools.repeat(x.payload)


def _mapped(op, x, *args):
    """``op(payload, *args)`` over a HomSet in C; a Morphism's, repeated."""
    if x.__class__ is HomSet:
        return map(op, x.payloads, *map(itertools.repeat, args))
    return itertools.repeat(op(x.payload, *args))


def _once_each(op, x):
    """``op(payload)`` for each element of a HomSet, computed once per
    distinct payload (the tables of a zipped HomSet repeat); a Morphism's,
    repeated."""
    if x.__class__ is HomSet:
        memo = {p: op(p) for p in dict.fromkeys(x.payloads)}
        return map(memo.__getitem__, x.payloads)
    return itertools.repeat(op(x.payload))


def _check_parallel(f, g) -> None:
    """Two sides of an equation must share their domain and codomain."""
    if f.dom != g.dom or f.cod != g.cod:
        raise BoundaryError(
            f"an equation needs parallel sides, got {f.dom!r}->{f.cod!r} "
            f"vs {g.dom!r}->{g.cod!r}")


def _structural(build):
    """Keep what is fixed by its objects alone in ``Model._memo``: a
    structural morphism, a thin model's hom-set, or ``_trace_boundary``,
    the boundary of a trace triple."""

    def lookup(self, key):
        try:
            return self._memo[key]
        except (KeyError, TypeError):  # a miss, or an unhashable object
            pass
        for ob in key[1:arity + 1]:
            self.check_obj(ob)
        return self._memo.setdefault(key, build(self, *key[1:arity + 1]))

    arity = build.__code__.co_argcount - 1  # a *objs key costs more than a hit
    if arity == 1:
        def memoised(self, A):
            return lookup(self, (build, A, type(A)))
    elif arity == 2:
        def memoised(self, A, B):
            return lookup(self, (build, A, B, type(A), type(B)))
    else:
        def memoised(self, A, B, C):
            return lookup(self, (build, A, B, C, type(A), type(B), type(C)))
    return wraps(build)(memoised)


class Model:
    """Operation table of one executable symmetric monoidal category.

    A subclass supplies its objects (``check_obj``, ``obj_size``,
    ``unit_obj``, ``_tensor_obj``, and ``enumerate_objects``, which lists
    every object up to a size bound), the primitives ``_identity``,
    ``_compose``, ``_tensor`` and ``_sym``, and ``enumerate_hom`` (which may
    decline a hom-set) and ``sample_hom``.  The six associators and unitors
    are derived here through ``_strict``.  The public wrappers do the
    boundary/ownership checking once, in one place: ``_check_args`` checks
    the morphism arguments of every primitive.

    ``compose``, ``tensor`` and ``trace`` (and ``fix`` and ``pair`` where a
    model has them) also take a :class:`HomSet` in any morphism argument,
    as the exhaustive law driver hands them a batch of a law's
    instantiations.  They check its owner and boundary once and return the
    HomSet of the element-wise results; two HomSet arguments are zipped,
    since they index the same instantiation, and a Morphism argument is
    used for every element.  A HomSet's payloads are trusted as the model's
    own: ``check_mor`` runs on none of them, and one that comes from outside
    is checked with ``check_payload`` where it comes in.  The work is done
    by a payload kernel, ``_compose_hom``, ``_tensor_hom`` or
    ``_trace_hom``, which maps the per-morphism primitive here and which a
    model may replace with a loop over raw payloads.  An empty HomSet
    builds no morphism.  The law driver checks its objects once per run
    and reuses its hom-sets.

    One memo per model instance, ``_memo``, holds what depends on objects
    alone: ``identity``, ``sym``, the associators and unitors (and what else
    a model marks ``_structural``), and ``_trace_boundary``, the boundary
    products of each ``trace`` triple ``(X, A, B)``, which ``trace``
    compares ``f`` with on every call.  An entry is filled on the first
    call, once ``check_obj`` has passed its objects; an unhashable one fails
    there.  Keys hold the
    types too: ``True == 1``, but it is no ``int_poset`` object.

    Optional structure is declared by a flag; a model that sets it defines
    the operations, and checkers test the flag before calling them:
    ``traced``: ``_trace(X, A, B, f)``;
    ``compact``: ``dual_obj``, ``cup(A) : A* (x) A -> I``,
    ``cap(A) : I -> A (x) A*``; ``cartesian``: ``proj0``, ``proj1``,
    ``pair``, ``terminal_map``; ``has_conway``:
    ``fix(X, A, f)``, the parametrized fixed point of ``f : A x X -> X``;
    ``cocartesian``: ``inj0``, ``inj1``, ``copair``, ``initial_map``.
    """

    name = "abstract"
    traced = False
    compact = False
    cartesian = False
    cocartesian = False
    has_conway = False

    # ---------------------------------------------------------------- objects

    def check_obj(self, A) -> None:
        raise NotImplementedError

    def obj_size(self, A) -> int:
        raise NotImplementedError

    def unit_obj(self):
        raise NotImplementedError

    def tensor_obj(self, A, B):
        self.check_obj(A)
        self.check_obj(B)
        return self._tensor_obj(A, B)

    def _tensor_obj(self, A, B):
        raise NotImplementedError

    # -------------------------------------------------------------- morphisms

    def check_mor(self, f: Morphism) -> None:
        if not isinstance(f, Morphism) or f.model != self.name:
            raise ModelMismatchError(
                f"morphism {f!r} does not belong to model {self.name!r}")

    def check_payload(self, dom, cod, payload) -> None:
        """Check that ``payload`` fits ``dom -> cod``.  The primitives trust
        their own payloads and no kernel calls this; a model whose
        ``check_mor`` tests payloads does it here, for payloads that come
        from outside (an ``algmor_enumerator`` hook's)."""

    @_structural
    def identity(self, A) -> Morphism:
        return self._identity(A)

    def _identity(self, A) -> Morphism:
        raise NotImplementedError

    def _check_args(self, *args) -> bool:
        """Check the morphism arguments of a primitive: a Morphism in full,
        a :class:`HomSet` by its owner (its payloads are trusted), and
        zipped HomSets by their length.  Whether any argument is a HomSet."""
        n = None
        for x in args:
            if x.__class__ is not HomSet:
                self.check_mor(x)
            elif x.model != self.name:
                raise ModelMismatchError(
                    f"hom-set of model {x.model!r} does not belong to model "
                    f"{self.name!r}")
            elif n is None:
                n = len(x)
            elif len(x) != n:
                raise UsageError(f"zipped hom-sets differ in length: "
                                 f"{n} vs {len(x)}")
        return n is not None

    def compose(self, g, f):
        """``g`` after ``f``; a HomSet argument gives the HomSet of the
        composites, element by element."""
        hom = self._check_args(f, g)
        if f.cod != g.dom:
            raise BoundaryError(
                f"cannot compose: cod of first {f.cod!r} != dom of second {g.dom!r}")
        return (self._compose_hom if hom else self._compose)(g, f)

    def _compose(self, g, f) -> Morphism:
        raise NotImplementedError

    def _compose_hom(self, g, f) -> HomSet:
        return HomSet(self.name, f.dom, g.cod,
                      [self._compose(gk, fk).payload
                       for gk, fk in _zip_hom(g, f)])

    def tensor(self, f, g):
        """``f (x) g``; a HomSet argument gives a HomSet, as ``compose``."""
        return (self._tensor_hom if self._check_args(f, g)
                else self._tensor)(f, g)

    def _tensor(self, f, g) -> Morphism:
        raise NotImplementedError

    def _tensor_hom(self, f, g) -> HomSet:
        return HomSet(self.name, self._tensor_obj(f.dom, g.dom),
                      self._tensor_obj(f.cod, g.cod),
                      [self._tensor(fk, gk).payload
                       for fk, gk in _zip_hom(f, g)])

    def mor_eq(self, f: Morphism, g: Morphism) -> bool:
        self.check_mor(f)
        self.check_mor(g)
        _check_parallel(f, g)
        return f.payload == g.payload

    # ------------------------------------------------------------- structure

    @_structural
    def sym(self, A, B) -> Morphism:
        return self._sym(A, B)

    def _sym(self, A, B):
        raise NotImplementedError

    @_structural
    def assoc(self, A, B, C) -> Morphism:
        """A (x) (B (x) C) -> (A (x) B) (x) C."""
        return self._strict(self._tensor_obj(A, self._tensor_obj(B, C)),
                            self._tensor_obj(self._tensor_obj(A, B), C))

    @_structural
    def assoc_inv(self, A, B, C) -> Morphism:
        return self._strict(self._tensor_obj(self._tensor_obj(A, B), C),
                            self._tensor_obj(A, self._tensor_obj(B, C)))

    @_structural
    def lunit(self, A) -> Morphism:
        """I (x) A -> A."""
        return self._strict(self._tensor_obj(self.unit_obj(), A), A)

    @_structural
    def lunit_inv(self, A) -> Morphism:
        return self._strict(A, self._tensor_obj(self.unit_obj(), A))

    @_structural
    def runit(self, A) -> Morphism:
        """A (x) I -> A."""
        return self._strict(self._tensor_obj(A, self.unit_obj()), A)

    @_structural
    def runit_inv(self, A) -> Morphism:
        return self._strict(A, self._tensor_obj(A, self.unit_obj()))

    def _strict(self, dom, cod) -> Morphism:
        # the associators and unitors relabel dom as cod, so they carry the
        # identity payload of dom; a model whose tensor is not strict up to
        # relabelling overrides this
        return Morphism(self.name, dom, cod, self._identity(dom).payload)

    # ------------------------------------------------------------------ trace

    def trace(self, X, A, B, f):
        """Trace out X from ``f : A (x) X -> B (x) X``; factors explicit.
        A :class:`HomSet` ``f`` is checked once and traced to a HomSet A -> B."""
        if not self.traced:
            raise CapabilityError(f"model {self.name!r} has no trace operator")
        hom = self._check_args(f)
        dom, cod = self._trace_boundary(X, A, B)
        if f.dom != dom or f.cod != cod:
            raise BoundaryError(
                f"trace shape mismatch: f is {f.dom!r}->{f.cod!r}, "
                f"expected {A!r}(x){X!r} -> {B!r}(x){X!r}")
        return (self._trace_hom if hom else self._trace)(X, A, B, f)

    @_structural
    def _trace_boundary(self, X, A, B):
        """``(A (x) X, B (x) X)``, the boundary of a traced ``f``."""
        return self.tensor_obj(A, X), self.tensor_obj(B, X)

    def _trace_hom(self, X, A, B, hom: HomSet) -> HomSet:
        return HomSet(self.name, A, B,
                      [self._trace(X, A, B, f).payload for f in hom])

    @cached_property
    def _memo(self) -> dict:
        return {}

    # -------------------------------------------------- enumeration, sampling

    def enumerate_objects(self, max_size) -> list:
        """All objects of size <= max_size (every model enumerates them)."""
        raise NotImplementedError

    def enumerate_hom(self, A, B) -> Optional[HomSet]:
        """The full hom-set as a HomSet, or None when not (feasibly) finite."""
        return None

    def sample_hom(self, rng, A, B) -> Morphism:
        raise NotImplementedError

    def invert(self, f: Morphism) -> Optional[Morphism]:
        """Two-sided inverse of f, or None when f is not invertible."""
        return None

    # ---------------------------------------------------------------- helpers

    def seq(self, *steps: Morphism) -> Morphism:
        """Compose a pipeline given in diagram order (first applied first)."""
        if not steps:
            raise UsageError("seq() needs at least one morphism")
        out = steps[0]
        for step in steps[1:]:
            out = self.compose(step, out)
        return out

    def mid4(self, P, Q, R, S) -> Morphism:
        """(P(x)Q)(x)(R(x)S) -> (P(x)R)(x)(Q(x)S), the middle-four interchange."""
        i = self.identity
        return self.seq(
            self.assoc_inv(P, Q, self.tensor_obj(R, S)),
            self.tensor(i(P), self.assoc(Q, R, S)),
            self.tensor(i(P), self.tensor(self.sym(Q, R), i(S))),
            self.tensor(i(P), self.assoc_inv(R, Q, S)),
            self.assoc(P, R, self.tensor_obj(Q, S)),
        )

