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

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional


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


@dataclass(frozen=True)
class Morphism:
    """A morphism of a concrete model.

    ``payload`` is model-specific (matrix, monotone table, partial-function
    table, order witness) and immutable; two parallel morphisms are equal
    iff their payloads are equal.
    """

    model: str
    dom: Any
    cod: Any
    payload: Any

    def __repr__(self):  # short, for failure witnesses
        return f"Mor[{self.model}]({self.dom!r} -> {self.cod!r}; {self.payload!r})"


class Model:
    """Operation table of one executable symmetric monoidal category.

    A subclass supplies its objects (``check_obj``, ``obj_size``,
    ``unit_obj``, ``_tensor_obj``, and ``enumerate_objects``, which lists
    every object up to a size bound), the primitives ``_identity``,
    ``_compose``, ``_tensor`` and ``_sym``, and ``enumerate_hom`` (which may
    decline a hom-set) and ``sample_hom``.  The six associators and unitors
    are derived here through ``_strict``.  The public wrappers do the
    boundary/ownership checking once, in one place.  ``trace`` validates
    each boundary triple ``(X, A, B)`` on its first call only and keeps the
    two products in a per-model memo keyed by the objects and their types.

    Optional structure is declared by a flag; a model that sets it defines
    the operations, and checkers test the flag before calling them:
    ``traced``: ``_trace(X, A, B, f)``; ``compact``: ``dual_obj``,
    ``cup(A) : A* (x) A -> I``, ``cap(A) : I -> A (x) A*``; ``cartesian``:
    ``proj0``, ``proj1``, ``pair``, ``terminal_map``; ``has_conway``:
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

    def identity(self, A) -> Morphism:
        self.check_obj(A)
        return self._identity(A)

    def _identity(self, A) -> Morphism:
        raise NotImplementedError

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        self.check_mor(f)
        self.check_mor(g)
        if f.cod != g.dom:
            raise BoundaryError(
                f"cannot compose: cod of first {f.cod!r} != dom of second {g.dom!r}")
        return self._compose(g, f)

    def _compose(self, g, f) -> Morphism:
        raise NotImplementedError

    def tensor(self, f: Morphism, g: Morphism) -> Morphism:
        self.check_mor(f)
        self.check_mor(g)
        return self._tensor(f, g)

    def _tensor(self, f, g) -> Morphism:
        raise NotImplementedError

    def mor_eq(self, f: Morphism, g: Morphism) -> bool:
        self.check_mor(f)
        self.check_mor(g)
        if f.dom != g.dom or f.cod != g.cod:
            raise BoundaryError(
                f"mor_eq needs parallel morphisms, got {f.dom!r}->{f.cod!r} "
                f"vs {g.dom!r}->{g.cod!r}")
        return f.payload == g.payload

    # ------------------------------------------------------------- structure

    def sym(self, A, B) -> Morphism:
        self.check_obj(A)
        self.check_obj(B)
        return self._sym(A, B)

    def _sym(self, A, B):
        raise NotImplementedError

    def assoc(self, A, B, C) -> Morphism:
        """A (x) (B (x) C) -> (A (x) B) (x) C."""
        for ob in (A, B, C):
            self.check_obj(ob)
        return self._strict(self._tensor_obj(A, self._tensor_obj(B, C)),
                            self._tensor_obj(self._tensor_obj(A, B), C))

    def assoc_inv(self, A, B, C) -> Morphism:
        for ob in (A, B, C):
            self.check_obj(ob)
        return self._strict(self._tensor_obj(self._tensor_obj(A, B), C),
                            self._tensor_obj(A, self._tensor_obj(B, C)))

    def lunit(self, A) -> Morphism:
        """I (x) A -> A."""
        self.check_obj(A)
        return self._strict(self._tensor_obj(self.unit_obj(), A), A)

    def lunit_inv(self, A) -> Morphism:
        self.check_obj(A)
        return self._strict(A, self._tensor_obj(self.unit_obj(), A))

    def runit(self, A) -> Morphism:
        """A (x) I -> A."""
        self.check_obj(A)
        return self._strict(self._tensor_obj(A, self.unit_obj()), A)

    def runit_inv(self, A) -> Morphism:
        self.check_obj(A)
        return self._strict(A, self._tensor_obj(A, self.unit_obj()))

    def _strict(self, dom, cod) -> Morphism:
        # the associators and unitors relabel dom as cod, so they carry the
        # identity payload of dom; a model whose tensor is not strict up to
        # relabelling overrides this
        return Morphism(self.name, dom, cod, self._identity(dom).payload)

    # ------------------------------------------------------------------ trace

    def trace(self, X, A, B, f: Morphism) -> Morphism:
        """Trace out X from ``f : A (x) X -> B (x) X``; factors explicit.

        The first call for a triple ``(X, A, B)`` validates all three
        objects through ``tensor_obj`` and memoises ``(A (x) X, B (x) X)``;
        every call still checks that ``f`` belongs to the model and has
        exactly those boundaries.  The memo key carries the objects' types
        too: ``True == 1`` and both hash alike, but only ``1`` is an
        ``int_poset`` object.
        """
        if not self.traced:
            raise CapabilityError(f"model {self.name!r} has no trace operator")
        self.check_mor(f)
        key = (X, A, B, type(X), type(A), type(B))
        try:
            shape = self._trace_shapes.get(key)
        except TypeError:  # unhashable: check_obj names the bad object
            shape = None
        if shape is None:
            shape = self._trace_shapes[key] = (self.tensor_obj(A, X),
                                               self.tensor_obj(B, X))
        if f.dom != shape[0] or f.cod != shape[1]:
            raise BoundaryError(
                f"trace shape mismatch: f is {f.dom!r}->{f.cod!r}, "
                f"expected {A!r}(x){X!r} -> {B!r}(x){X!r}")
        return self._trace(X, A, B, f)

    @cached_property
    def _trace_shapes(self) -> dict:
        return {}

    # -------------------------------------------------- enumeration, sampling

    def enumerate_objects(self, max_size) -> list:
        """All objects of size <= max_size (every model enumerates them)."""
        raise NotImplementedError

    def enumerate_hom(self, A, B) -> Optional[list]:
        """The full hom-set as a list, or None when not (feasibly) finite."""
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

