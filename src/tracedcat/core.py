"""Executable symmetric monoidal categories.

A :class:`Model` bundles the operation table of one concrete category:
objects, morphisms, tensor, structural isomorphisms, and optional extra
structure (trace operator, duals, finite products or coproducts, fixed
points).  Shipped models live in ``model_linear``, ``model_order`` and
``model_iter``.

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

    A subclass supplies its objects (``check_obj``, ``unit_obj``,
    ``_tensor_obj`` and friends) and the primitives ``_identity``,
    ``_compose``, ``_tensor``, ``_sym`` and, when traced, ``_trace``.  The
    six associators and unitors are derived here through ``_strict``.  The
    public wrappers do the boundary/ownership checking once, in one place.
    Capability flags say which optional structure is present.
    """

    name = "abstract"
    symmetric = True
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

    def factor_tensor(self, AB, X):
        """Return the object A with ``A (x) X == AB``.

        Raises :class:`UsageError` when A is not uniquely determined and
        :class:`BoundaryError` when no factorisation exists.
        """
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
        """Trace out X from ``f : A (x) X -> B (x) X``; factors explicit."""
        if not self.traced:
            raise CapabilityError(f"model {self.name!r} has no trace operator")
        self.check_mor(f)
        if f.dom != self.tensor_obj(A, X) or f.cod != self.tensor_obj(B, X):
            raise BoundaryError(
                f"trace shape mismatch: f is {f.dom!r}->{f.cod!r}, "
                f"expected {A!r}(x){X!r} -> {B!r}(x){X!r}")
        return self._trace(X, A, B, f)

    def _trace(self, X, A, B, f):
        raise CapabilityError(f"model {self.name!r} has no trace operator")

    # ----------------------------------------------------- optional structure

    def dual_obj(self, A):
        raise CapabilityError(f"model {self.name!r} is not compact closed")

    def cup(self, A) -> Morphism:
        """A* (x) A -> I."""
        raise CapabilityError(f"model {self.name!r} is not compact closed")

    def cap(self, A) -> Morphism:
        """I -> A (x) A*."""
        raise CapabilityError(f"model {self.name!r} is not compact closed")

    # finite products (cartesian models)
    def proj0(self, A, B) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cartesian")

    def proj1(self, A, B) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cartesian")

    def pair(self, f: Morphism, g: Morphism) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cartesian")

    def terminal_map(self, A) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cartesian")

    def fix(self, X, A, f: Morphism) -> Morphism:
        """Parametrized fixed point of ``f : A x X -> X``."""
        raise CapabilityError(f"model {self.name!r} has no fixed-point operator")

    # finite coproducts (cocartesian models)
    def inj0(self, A, B) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cocartesian")

    def inj1(self, A, B) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cocartesian")

    def copair(self, f: Morphism, g: Morphism) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cocartesian")

    def initial_map(self, A) -> Morphism:
        raise CapabilityError(f"model {self.name!r} is not cocartesian")

    # -------------------------------------------------- enumeration, sampling

    def enumerate_objects(self, max_size) -> Optional[list]:
        """All objects of size <= max_size, or None when not enumerable."""
        return None

    def sample_object(self, rng, max_size):
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


_STRUCTURAL_ARITY = {
    "assoc": 3, "assoc_inv": 3,
    "lunit": 1, "lunit_inv": 1, "runit": 1, "runit_inv": 1,
    "sym": 2,
}


def structural(model: Model, kind: str, objects) -> Morphism:
    """Look up one of the seven coherence isomorphisms by name."""
    if kind not in _STRUCTURAL_ARITY:
        raise UsageError(f"unknown structural morphism kind {kind!r}")
    objects = list(objects)
    want = _STRUCTURAL_ARITY[kind]
    if len(objects) != want:
        raise UsageError(
            f"structural {kind!r} takes {want} object(s), got {len(objects)}")
    return getattr(model, kind)(*objects)


def trace(model: Model, X, f: Morphism, A=None, B=None) -> Morphism:
    """Trace out X from f, inferring A and B when the model permits it."""
    if A is None:
        A = model.factor_tensor(f.dom, X)
    if B is None:
        B = model.factor_tensor(f.cod, X)
    return model.trace(X, A, B, f)


# --------------------------------------------------------------------- terms

@dataclass(frozen=True)
class Term:
    """Composite expressions over a model, evaluated by :func:`eval_term`."""


@dataclass(frozen=True)
class Prim(Term):
    f: Morphism


@dataclass(frozen=True)
class Id(Term):
    obj: Any


@dataclass(frozen=True)
class Compose(Term):
    after: Term
    before: Term


@dataclass(frozen=True)
class Tensor(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sym(Term):
    a: Any
    b: Any


@dataclass(frozen=True)
class Assoc(Term):
    a: Any
    b: Any
    c: Any


@dataclass(frozen=True)
class AssocInv(Term):
    a: Any
    b: Any
    c: Any


@dataclass(frozen=True)
class LUnit(Term):
    a: Any


@dataclass(frozen=True)
class LUnitInv(Term):
    a: Any


@dataclass(frozen=True)
class RUnit(Term):
    a: Any


@dataclass(frozen=True)
class RUnitInv(Term):
    a: Any


@dataclass(frozen=True)
class Trace(Term):
    x: Any
    body: Term
    a: Any = None
    b: Any = None


def term_boundaries(model: Model, t: Term):
    """Bottom-up typing pass; raises naming the offending subterm."""
    if isinstance(t, Prim):
        model.check_mor(t.f)
        return t.f.dom, t.f.cod
    if isinstance(t, Id):
        model.check_obj(t.obj)
        return t.obj, t.obj
    if isinstance(t, Compose):
        d1, c1 = term_boundaries(model, t.before)
        d2, c2 = term_boundaries(model, t.after)
        if c1 != d2:
            raise BoundaryError(
                f"ill-typed Compose: {t.before!r} ends at {c1!r} but "
                f"{t.after!r} starts at {d2!r}")
        return d1, c2
    if isinstance(t, Tensor):
        d1, c1 = term_boundaries(model, t.left)
        d2, c2 = term_boundaries(model, t.right)
        return model.tensor_obj(d1, d2), model.tensor_obj(c1, c2)
    if isinstance(t, Sym):
        return (model.tensor_obj(t.a, t.b), model.tensor_obj(t.b, t.a))
    if isinstance(t, Assoc):
        bc = model.tensor_obj(t.b, t.c)
        ab = model.tensor_obj(t.a, t.b)
        return model.tensor_obj(t.a, bc), model.tensor_obj(ab, t.c)
    if isinstance(t, AssocInv):
        bc = model.tensor_obj(t.b, t.c)
        ab = model.tensor_obj(t.a, t.b)
        return model.tensor_obj(ab, t.c), model.tensor_obj(t.a, bc)
    if isinstance(t, LUnit):
        return model.tensor_obj(model.unit_obj(), t.a), t.a
    if isinstance(t, LUnitInv):
        return t.a, model.tensor_obj(model.unit_obj(), t.a)
    if isinstance(t, RUnit):
        return model.tensor_obj(t.a, model.unit_obj()), t.a
    if isinstance(t, RUnitInv):
        return t.a, model.tensor_obj(t.a, model.unit_obj())
    if isinstance(t, Trace):
        d, c = term_boundaries(model, t.body)
        a = t.a if t.a is not None else model.factor_tensor(d, t.x)
        b = t.b if t.b is not None else model.factor_tensor(c, t.x)
        if model.tensor_obj(a, t.x) != d or model.tensor_obj(b, t.x) != c:
            raise BoundaryError(
                f"ill-typed Trace over {t.x!r}: body is {d!r}->{c!r}")
        return a, b
    raise UsageError(f"not a Term: {t!r}")


def eval_term(model: Model, t: Term) -> Morphism:
    """Evaluate a term by structural recursion into a single morphism."""
    term_boundaries(model, t)  # fail fast with a named subterm
    return _eval(model, t)


def _eval(model: Model, t: Term) -> Morphism:
    if isinstance(t, Prim):
        return t.f
    if isinstance(t, Id):
        return model.identity(t.obj)
    if isinstance(t, Compose):
        return model.compose(_eval(model, t.after), _eval(model, t.before))
    if isinstance(t, Tensor):
        return model.tensor(_eval(model, t.left), _eval(model, t.right))
    if isinstance(t, Sym):
        return model.sym(t.a, t.b)
    if isinstance(t, Assoc):
        return model.assoc(t.a, t.b, t.c)
    if isinstance(t, AssocInv):
        return model.assoc_inv(t.a, t.b, t.c)
    if isinstance(t, LUnit):
        return model.lunit(t.a)
    if isinstance(t, LUnitInv):
        return model.lunit_inv(t.a)
    if isinstance(t, RUnit):
        return model.runit(t.a)
    if isinstance(t, RUnitInv):
        return model.runit_inv(t.a)
    if isinstance(t, Trace):
        body = _eval(model, t.body)
        a = t.a if t.a is not None else model.factor_tensor(body.dom, t.x)
        b = t.b if t.b is not None else model.factor_tensor(body.cod, t.x)
        return model.trace(t.x, a, b, body)
    raise UsageError(f"not a Term: {t!r}")
