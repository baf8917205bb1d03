"""Property-based checkers for the monoidal, trace, snake and Conway laws.

Each suite is generic over any :class:`~tracedcat.core.Model` and produces a
witness-carrying :class:`CheckReport`.  Runs are deterministic: the same
(model, budget) pair always yields the same report.

Every checker counts and records through one :class:`Recorder`, which
compares two sides with ``mor_eq`` and keeps a :class:`Failure` when they
differ, so every reported failure replays to ``lhs != rhs``.  The only
failures without sides (``None``) are the disagreements of two verdicts or
determinations: ``main_theorem_crosscheck_disagreement``,
``fix_vs_trace_coherence_disagreement``, ``cocartesian_corollary`` and
``hopf_idempotence_criterion``.

Every law quantified over objects and hom-sets is part of a
:class:`LawSpec` in a suite's table: its name, how many objects it takes,
the ``(dom, cod)`` of each hom-set it quantifies over, and the evaluator
that returns the equations of one instantiation.  One driver runs every
table either *sampled* (``budget.cases`` seeded draws per spec) or
*exhaustive* (every object tuple within ``budget.max_object_size``, times
every morphism tuple of its hom-sets).  The snake, round-trip, monad and
Hopf suites are tables too.  ``symmetry_natural`` is marked sampled-only,
so exhaustive monoidal runs still sample it.

An exhaustive run hands the innermost hom-set of an instantiation to the
evaluator at once, as a :class:`~tracedcat.core.HomSet` of at most
``HOM_SLICE`` elements, so the model primitives it calls
(``compose``, ``tensor``, ``trace``, ``fix``) run once per slice, not
once per morphism; a one-element hom-set goes in as its Morphism.
``Recorder.check_hom`` then counts and compares every element, and keeps
the failures as if each element had been checked on its own.

A run checks each object of its pool once, so the law tables build
boundaries with the unchecked ``_tensor_obj``; ``_HomSets`` keeps each
hom-set of at most ``HOM_SLICE`` elements for the rest of the run.

Objects always enumerate, so only hom-sets limit an exhaustive run, and it
claims no more than it evaluated.  A law on a model whose hom-sets do not
enumerate is sampled instead; an object tuple with a hom-set that
``enumerate_hom`` declines is skipped and counted in
``findings["skipped_object_tuples"]``.  Either way the verdict is
``inconclusive`` unless a failure is found.  A run remembers its dead
boundaries in two sets.  A tuple that meets ``declined`` (``enumerate_hom``
gave None) is counted before any of its hom-sets is looked up, so none
beside it is enumerated again.  One that meets ``empty`` is passed over
once its hom-sets are looked up, without testing their payloads: a
declined hom-set beside an empty one still counts the tuple as skipped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (CapabilityError, EmptyHomError, HomSet, Model, Morphism,
                   UsageError, _check_parallel, _payloads)


@dataclass(frozen=True)
class CaseBudget:
    """Seeded, bounded test budget; identical budgets replay identically."""
    seed: int
    cases: int = 100
    max_object_size: int = 4

    def __post_init__(self):
        if self.cases < 1:
            raise ValueError("cases must be >= 1")
        if self.max_object_size < 1:
            raise ValueError("max_object_size must be >= 1")


@dataclass(frozen=True)
class Failure:
    """An equation that did not hold: its law, instantiation and sides."""
    law: str
    inputs: dict
    lhs: Optional[Morphism]
    rhs: Optional[Morphism]


@dataclass
class CheckReport:
    suite: str
    model: str
    cases_run: int
    verdict: str  # pass | fail | inconclusive
    failures: list = field(default_factory=list)
    findings: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.verdict == "pass"


@dataclass
class Recorder:
    """The cases and failures of one suite run on ``model``.

    Every checker counts its cases and keeps its failures here; a count
    that is not one case per equation is added to ``cases`` directly.
    """
    model: Model
    cases: int = 0
    failures: list = field(default_factory=list)

    def check(self, law, inputs, lhs, rhs, count=True) -> bool:
        """Compare two sides, keeping a failure when they differ.

        Counts one case unless ``count`` is false (a second equation of a
        case already counted).
        """
        if count:
            self.cases += 1
        if self.model.mor_eq(lhs, rhs):
            return True
        self.fail(law, inputs, lhs, rhs)
        return False

    def check_hom(self, equations, n) -> bool:
        """Check the equations of one batch of ``n`` instantiations, whose
        morphism arguments are HomSets of ``n`` elements zipped (or
        Morphisms used for all of them).

        Each side is a HomSet of ``n`` elements or a Morphism used for all
        of them; each element of each equation is one case.  The sides are
        checked for ownership and parallelism once, as ``mor_eq`` does, and
        compared as whole payload tuples; only sides that differ are
        searched element by element.  A mismatch at element ``k`` is kept
        as the failure of ``lhs[k]`` and ``rhs[k]``, with every HomSet of
        ``inputs`` read at ``k``: failures come in element order, then
        equation order, as if each element had been checked alone.
        """
        model, found = self.model, []
        for j, (law, inputs, lhs, rhs) in enumerate(equations):
            model._check_args(lhs, rhs)
            _check_parallel(lhs, rhs)
            for side in (lhs, rhs):
                if side.__class__ is HomSet and len(side) != n:
                    raise UsageError(f"{law}: a side holds {len(side)} "
                                     f"elements, not {n}")
            self.cases += n
            if not _agree(lhs, rhs, n):
                found.extend((k, j) for k, a, b in zip(
                    range(n), _payloads(lhs), _payloads(rhs)) if a != b)
        for k, j in sorted(found):
            law, inputs, lhs, rhs = equations[j]
            self.fail(law, {name: _at(value, k)
                            for name, value in inputs.items()},
                      _at(lhs, k), _at(rhs, k))
        return not found

    def fail(self, law, inputs, lhs=None, rhs=None):
        """Keep a failure decided elsewhere; no case is counted."""
        self.failures.append(Failure(law, inputs, lhs, rhs))

    def finish(self, suite, exhaustive_ok=True, findings=None) -> CheckReport:
        verdict = ("fail" if self.failures else
                   "pass" if exhaustive_ok else "inconclusive")
        return CheckReport(suite, self.model.name, self.cases, verdict,
                           self.failures, findings or {})


def _at(value, k):
    """The k-th element of a HomSet; any other value as it is."""
    return value[k] if value.__class__ is HomSet else value


def _agree(lhs, rhs, n) -> bool:
    """Whether two sides of ``n`` elements agree at every element, decided
    in C: two HomSets by their payload tuples, a HomSet and a Morphism by
    counting the Morphism's payload."""
    if lhs.__class__ is HomSet:
        if rhs.__class__ is HomSet:
            return lhs.payloads == rhs.payloads
        return lhs.payloads.count(rhs.payload) == n
    if rhs.__class__ is HomSet:
        return rhs.payloads.count(lhs.payload) == n
    return lhs.payload == rhs.payload


def _rng(budget: CaseBudget, tag: str, i: int) -> random.Random:
    return random.Random(f"{tag}:{budget.seed}:{i}")


def _objects(model: Model, budget: CaseBudget):
    return model.enumerate_objects(budget.max_object_size)


def _size_sorted_objects(model: Model, budget: CaseBudget) -> list:
    return sorted(_objects(model, budget),
                  key=lambda o: (model.obj_size(o), repr(o)))


def _homs_enumerable(model, hom_of=None):
    I = model.unit_obj()
    return (hom_of or _HomSets(model).__getitem__)((I, I)) is not None


# ---------------------------------------------------------------- law driver

# The most elements of an innermost hom-set one call of an evaluator gets:
# the whole of a 117,649-map hom-set at once doubled the peak memory of an
# exhaustive pfn run.
HOM_SLICE = 4096


class _HomSets(dict):
    """One run's memo of ``enumerate_hom``: ``(dom, cod)`` to its HomSet or
    None.  One of more than ``HOM_SLICE`` elements is not kept, so a run
    holds at most one at a time.  ``ones`` keeps the Morphism of each
    one-element hom-set, by its ``(dom, cod)``."""

    def __init__(self, model):
        self.model = model
        self.ones = {}

    def __missing__(self, boundary):
        hom = self.model.enumerate_hom(*boundary)
        if hom is None or len(hom) <= HOM_SLICE:
            self[boundary] = hom
            if hom is not None and len(hom) == 1:
                self.ones[boundary] = hom[0]
        return hom


@dataclass(frozen=True)
class LawSpec:
    """Laws quantified over ``arity`` objects and the hom-sets they bound.

    ``homs(*objects)`` gives the ``(dom, cod)`` of each quantified hom-set in
    draw order (``None``: the laws quantify over objects alone), and
    ``sides(*objects, *morphisms)`` returns the equations of that
    instantiation as a list of ``(law, inputs, lhs, rhs)``; laws that share
    a draw or costly intermediates are one spec.  In an exhaustive run the
    last morphism may be a HomSet, so ``sides`` builds its equations with
    the model's primitives only.  A spec with ``exhaustive=False`` is
    sampled even in exhaustive runs.
    """
    name: str
    arity: int
    sides: Callable
    homs: Optional[Callable] = None
    exhaustive: bool = True


def _run_specs(model: Model, budget: CaseBudget, suite, specs,
               exhaustive=False, objs=None) -> CheckReport:
    """Check every spec over ``objs`` (default: the budget's object pool).

    A sampled case draws its objects, then one morphism per hom-set; the
    draws are seeded by the spec name and case index.  An exhaustive spec
    takes the product over objects, then over every hom-set but the
    innermost, which goes to ``spec.sides`` as one HomSet in slices of at
    most ``HOM_SLICE`` elements (as its Morphism when it has one element;
    an empty one makes no call).  Each equation of each element is one
    case.  An exhaustive run that has to sample a spec, or skips an object
    tuple, is at best ``inconclusive``.  Each object is checked first.
    """
    if objs is None:
        objs = _objects(model, budget)
    for ob in objs:
        model.check_obj(ob)
    hom_sets = _HomSets(model)
    hom_of, one_of = hom_sets.__getitem__, hom_sets.ones.__getitem__
    homs_ok = exhaustive and _homs_enumerable(model, hom_of)
    rec, skipped, covered = Recorder(model), 0, True
    declined, empty = set(), set()   # the run's dead boundaries
    for spec in specs:
        wanted = exhaustive and spec.exhaustive
        if wanted and (homs_ok or spec.homs is None):
            for objects in itertools.product(objs, repeat=spec.arity):
                bounds = spec.homs(*objects) if spec.homs else ()
                if not declined.isdisjoint(bounds):
                    skipped += 1  # hom-set beyond the enumeration cap
                    continue
                homs = list(map(hom_of, bounds))
                if None in homs:
                    declined.update(bound for bound, hom in zip(bounds, homs)
                                    if hom is None)
                    skipped += 1
                    continue
                if not empty.isdisjoint(bounds):
                    continue  # an empty hom-set: no instantiation
                if not all([hom.payloads for hom in homs]):
                    empty.update(bound for bound, hom in zip(bounds, homs)
                                 if not hom.payloads)
                    continue
                # the batch: the innermost hom-set, and before it the
                # longest run whose product has at most HOM_SLICE elements
                split, n = len(homs), 1
                while split and (n == 1 or n * len(homs[split - 1].payloads)
                                 <= HOM_SLICE):
                    split -= 1
                    n *= len(homs[split].payloads)
                if n == 1:  # every hom-set has one element
                    for equation in spec.sides(*objects,
                                               *map(one_of, bounds)):
                        rec.check(*equation)
                    continue
                inner = list(zip(bounds[split:], homs[split:]))
                columns = [hom.payloads for _, hom in inner
                           if len(hom.payloads) > 1]
                if len(columns) > 1:  # the batch's product, one column each
                    columns = list(zip(*itertools.product(*columns)))
                batches = []
                for k in range(0, n, HOM_SLICE):
                    column = iter(columns)
                    batches.append(([HomSet(model.name, *bound,
                                            next(column)[k:k + HOM_SLICE])
                                     if len(hom.payloads) > 1
                                     else one_of(bound)
                                     for bound, hom in inner],
                                    min(n - k, HOM_SLICE)))
                for morphisms in itertools.product(*homs[:split]):
                    for batch, size in batches:
                        rec.check_hom(spec.sides(*objects, *morphisms,
                                                 *batch), size)
            continue
        if wanted:
            covered = False  # hom-sets do not enumerate
        for i in range(budget.cases):
            rng = _rng(budget, spec.name, i)
            objects = [rng.choice(objs) for _ in range(spec.arity)]
            try:
                morphisms = ([model.sample_hom(rng, dom, cod)
                              for dom, cod in spec.homs(*objects)]
                             if spec.homs else [])
                equations = spec.sides(*objects, *morphisms)
            except EmptyHomError:
                continue  # subsingleton models: the drawn hom-set was empty
            for equation in equations:
                rec.check(*equation)
    return rec.finish(suite, exhaustive_ok=covered and not skipped,
                      findings={"skipped_object_tuples": skipped} if skipped
                      else None)


# ------------------------------------------------------------ monoidal suite


def check_monoidal_laws(model: Model, budget: CaseBudget,
                        exhaustive=False) -> CheckReport:
    """Pentagon, triangle, symmetry involution, hexagon, bifunctoriality."""
    i = model.identity
    T = model._tensor_obj

    def pentagon(A, B, C, D):
        lhs = model.compose(model.assoc(T(A, B), C, D),
                            model.assoc(A, B, T(C, D)))
        rhs = model.seq(model.tensor(i(A), model.assoc(B, C, D)),
                        model.assoc(A, T(B, C), D),
                        model.tensor(model.assoc(A, B, C), i(D)))
        return [("pentagon", {"objects": (A, B, C, D)}, lhs, rhs)]

    def triangle(A, B):
        I = model.unit_obj()
        lhs = model.compose(model.tensor(model.runit(A), i(B)),
                            model.assoc(A, I, B))
        rhs = model.tensor(i(A), model.lunit(B))
        return [("triangle", {"objects": (A, B)}, lhs, rhs)]

    def sym_invol(A, B):
        lhs = model.compose(model.sym(B, A), model.sym(A, B))
        rhs = i(T(A, B))
        return [("symmetry_involution", {"objects": (A, B)}, lhs, rhs)]

    def hexagon(A, B, C):
        lhs = model.seq(model.tensor(model.sym(A, B), i(C)),
                        model.assoc_inv(B, A, C),
                        model.tensor(i(B), model.sym(A, C)))
        rhs = model.seq(model.assoc_inv(A, B, C),
                        model.sym(A, T(B, C)),
                        model.assoc_inv(B, C, A))
        return [("hexagon", {"objects": (A, B, C)}, lhs, rhs)]

    def structural_inverses(A, B, C):
        checks = [
            model.compose(model.assoc(A, B, C), model.assoc_inv(A, B, C)),
            model.compose(model.assoc_inv(A, B, C), model.assoc(A, B, C)),
            model.compose(model.lunit(A), model.lunit_inv(A)),
            model.compose(model.lunit_inv(A), model.lunit(A)),
            model.compose(model.runit(A), model.runit_inv(A)),
            model.compose(model.runit_inv(A), model.runit(A)),
        ]
        good = all(model.mor_eq(c, i(c.dom)) for c in checks)
        witness = i(A) if good else next(
            c for c in checks if not model.mor_eq(c, i(c.dom)))
        return [("structural_inverses",
                 {"objects": (A, B, C)}, witness, i(witness.dom))]

    def bifunctorial(A, B, C, Ap, Bp, Cp, h, f, k, g):
        lhs = model.compose(model.tensor(f, g), model.tensor(h, k))
        rhs = model.tensor(model.compose(f, h), model.compose(g, k))
        return [("tensor_bifunctorial",
                 {"f": f, "g": g, "h": h, "k": k}, lhs, rhs)]

    def sym_natural(A, B, C, D, f, g):
        lhs = model.compose(model.sym(B, D), model.tensor(f, g))
        rhs = model.compose(model.tensor(g, f), model.sym(A, C))
        return [("symmetry_natural", {"f": f, "g": g}, lhs, rhs)]

    def tensor_id(A, B):
        lhs = model.tensor(i(A), i(B))
        rhs = i(T(A, B))
        return [("tensor_identity", {"objects": (A, B)}, lhs, rhs)]

    specs = (
        LawSpec("pentagon", 4, pentagon),
        LawSpec("triangle", 2, triangle),
        LawSpec("symmetry_involution", 2, sym_invol),
        LawSpec("hexagon", 3, hexagon),
        LawSpec("structural_inverses", 3, structural_inverses),
        LawSpec("tensor_bifunctorial", 6, bifunctorial,
                lambda A, B, C, Ap, Bp, Cp: ((A, B), (B, C), (Ap, Bp),
                                             (Bp, Cp))),
        # two free morphisms over four objects: sampled only
        LawSpec("symmetry_natural", 4, sym_natural,
                lambda A, B, C, D: ((A, B), (C, D)), exhaustive=False),
        LawSpec("tensor_identity", 2, tensor_id),
    )
    return _run_specs(model, budget, "monoidal_laws", specs, exhaustive)


# --------------------------------------------------------------- trace suite


def check_trace_axioms(model: Model, budget: CaseBudget,
                       exhaustive=False) -> CheckReport:
    """Tightening, sliding, vanishing (binary form), superposing, yanking.

    Vanishing for the unit object is a consequence of the axiom basis and is
    asserted separately as a derived property.
    """
    if not model.traced:
        raise CapabilityError("check_trace_axioms needs a traced model")
    i = model.identity
    T = model._tensor_obj
    I = model.unit_obj()

    def tightening_left(A, Ap, B, X, f, g):
        lhs = model.trace(X, Ap, B, model.compose(f, model.tensor(g, i(X))))
        rhs = model.compose(model.trace(X, A, B, f), g)
        return [("tightening_left",
                 {"A": A, "A'": Ap, "B": B, "X": X, "f": f, "g": g}, lhs, rhs)]

    def tightening_right(A, B, Bp, X, f, h):
        lhs = model.trace(X, A, Bp, model.compose(model.tensor(h, i(X)), f))
        rhs = model.compose(h, model.trace(X, A, B, f))
        return [("tightening_right",
                 {"A": A, "B": B, "B'": Bp, "X": X, "f": f, "h": h}, lhs, rhs)]

    def sliding(A, B, X, Xp, f, k):
        # f : A (x) X -> B (x) X', k : X' -> X; sliding k around the loop
        lhs = model.trace(Xp, A, B, model.compose(f, model.tensor(i(A), k)))
        rhs = model.trace(X, A, B, model.compose(model.tensor(i(B), k), f))
        return [("sliding",
                 {"A": A, "B": B, "X": X, "X'": Xp, "f": f, "k": k}, lhs, rhs)]

    def vanishing(A, B, X, Y, f):
        XY = T(X, Y)
        lhs = model.trace(XY, A, B, f)
        inner = model.seq(model.assoc_inv(A, X, Y), f, model.assoc(B, X, Y))
        stage = model.trace(Y, T(A, X), T(B, X), inner)
        rhs = model.trace(X, A, B, stage)
        return [("vanishing_tensor",
                 {"A": A, "B": B, "X": X, "Y": Y, "f": f}, lhs, rhs)]

    def vanishing_homs(A, B, X, Y):
        XY = T(X, Y)
        return ((T(A, XY), T(B, XY)),)

    def superposing(A, B, C, X, f):
        conj = model.seq(model.assoc_inv(C, A, X),
                         model.tensor(i(C), f),
                         model.assoc(C, B, X))
        lhs = model.trace(X, T(C, A), T(C, B), conj)
        rhs = model.tensor(i(C), model.trace(X, A, B, f))
        return [("superposing",
                 {"A": A, "B": B, "C": C, "X": X, "f": f}, lhs, rhs)]

    def yanking(X):
        lhs = model.trace(X, X, X, model.sym(X, X))
        rhs = i(X)
        return [("yanking", {"X": X}, lhs, rhs)]

    def vanishing_unit(A, B, f):
        lhs = model.trace(I, A, B, f)
        rhs = model.seq(model.runit_inv(A), f, model.runit(B))
        return [("vanishing_unit_derived", {"A": A, "B": B, "f": f}, lhs, rhs)]

    specs = (
        LawSpec("tightening_left", 4, tightening_left,
                lambda A, Ap, B, X: ((T(A, X), T(B, X)), (Ap, A))),
        LawSpec("tightening_right", 4, tightening_right,
                lambda A, B, Bp, X: ((T(A, X), T(B, X)), (B, Bp))),
        LawSpec("sliding", 4, sliding,
                lambda A, B, X, Xp: ((T(A, X), T(B, Xp)), (Xp, X))),
        LawSpec("vanishing_tensor", 4, vanishing, vanishing_homs),
        LawSpec("superposing", 4, superposing,
                lambda A, B, C, X: ((T(A, X), T(B, X)),)),
        LawSpec("yanking", 1, yanking),
        LawSpec("vanishing_unit_derived", 2, vanishing_unit,
                lambda A, B: ((T(A, I), T(B, I)),)),
    )
    return _run_specs(model, budget, "trace_axioms", specs, exhaustive)


# ---------------------------------------------------------------- snake suite


def check_snake(model: Model, budget: CaseBudget) -> CheckReport:
    """Both triangle ("snake") composites collapse to identities."""
    if not model.compact:
        raise CapabilityError("check_snake needs a compact closed model")
    i = model.identity

    def snakes(X):
        xd = model.dual_obj(X)
        right = model.seq(
            model.lunit_inv(X),
            model.tensor(model.cap(X), i(X)),
            model.assoc_inv(X, xd, X),
            model.tensor(i(X), model.cup(X)),
            model.runit(X))
        left = model.seq(
            model.runit_inv(xd),
            model.tensor(i(xd), model.cap(X)),
            model.assoc(xd, X, xd),
            model.tensor(model.cup(X), i(xd)),
            model.lunit(xd))
        return [("snake_right", {"X": X}, right, i(X)),
                ("snake_left", {"X": X}, left, i(xd))]

    return _run_specs(model, budget, "snake_equations",
                      (LawSpec("snake", 1, snakes),), exhaustive=True)


# --------------------------------------------------------------- conway suite


def check_conway_axioms(model: Model, budget: CaseBudget) -> CheckReport:
    """Parametrized fixed point, both naturalities, and the Bekic law."""
    if not (model.cartesian and model.has_conway):
        raise CapabilityError("check_conway_axioms needs a cartesian model "
                              "with a fixed-point operator")
    i = model.identity
    T = model._tensor_obj

    def fixed_point(A, X, f):
        fx = model.fix(X, A, f)
        lhs = fx
        rhs = model.compose(f, model.pair(i(A), fx))
        return [("conway_fixed_point", {"A": A, "X": X, "f": f}, lhs, rhs)]

    def naturality(A, Ap, X, f, g):
        lhs = model.fix(X, Ap, model.compose(f, model.tensor(g, i(X))))
        rhs = model.compose(model.fix(X, A, f), g)
        return [("conway_naturality",
                 {"A": A, "A'": Ap, "X": X, "f": f, "g": g}, lhs, rhs)]

    def dinaturality(A, X, Xp, f, k):
        lhs = model.fix(X, A, model.compose(k, f))
        rhs = model.compose(
            k, model.fix(Xp, A, model.compose(f, model.tensor(i(A), k))))
        return [("conway_dinaturality",
                 {"A": A, "X": X, "X'": Xp, "f": f, "k": k}, lhs, rhs)]

    def bekic(A, X, Y, f, g):
        # the associator bookkeeping written out
        XY = T(X, Y)
        lhs = model.fix(XY, A, model.pair(f, g))
        ga = model.compose(g, model.assoc_inv(A, X, Y))
        fixg = model.fix(Y, T(A, X), ga)
        inner = model.compose(
            f, model.compose(model.assoc_inv(A, X, Y),
                             model.pair(i(T(A, X)), fixg)))
        fixf = model.fix(X, A, inner)
        rhs = model.compose(model.pair(model.proj1(A, X), fixg),
                            model.pair(i(A), fixf))
        return [("conway_bekic",
                 {"A": A, "X": X, "Y": Y, "f": f, "g": g}, lhs, rhs)]

    def bekic_homs(A, X, Y):
        AXY = T(A, T(X, Y))
        return ((AXY, X), (AXY, Y))

    specs = (
        LawSpec("conway_fixed_point", 2, fixed_point,
                lambda A, X: ((T(A, X), X),)),
        LawSpec("conway_naturality", 3, naturality,
                lambda A, Ap, X: ((T(A, X), X), (Ap, A))),
        LawSpec("conway_dinaturality", 3, dinaturality,
                lambda A, X, Xp: ((T(A, X), Xp), (Xp, X))),
        LawSpec("conway_bekic", 3, bekic, bekic_homs),
    )
    return _run_specs(model, budget, "conway_axioms", specs)


def check_conway_trace_roundtrip(model: Model, budget: CaseBudget) -> CheckReport:
    """Fixed points and traces determine each other, exactly, both ways."""
    if not (model.cartesian and model.has_conway and model.traced):
        raise CapabilityError("round-trip needs a traced cartesian model "
                              "with a fixed-point operator")
    i = model.identity
    T = model._tensor_obj

    def roundtrip(A, B, X, f, h):
        # trace -> fix: the fixed point derived from the trace is fix itself
        derived_fix = model.trace(X, A, X, model.pair(f, f))
        # fix -> trace: the trace derived from the fixed point is trace itself
        p1h = model.compose(model.proj1(B, X), h)
        derived_tr = model.seq(
            model.pair(i(A), model.fix(X, A, p1h)), h, model.proj0(B, X))
        return [("fix_from_trace", {"A": A, "X": X, "f": f},
                 derived_fix, model.fix(X, A, f)),
                ("trace_from_fix", {"A": A, "B": B, "X": X, "f": h},
                 derived_tr, model.trace(X, A, B, h))]

    spec = LawSpec("conway_roundtrip", 3, roundtrip,
                   lambda A, B, X: ((T(A, X), X), (T(A, X), T(B, X))))
    return _run_specs(model, budget, "conway_trace_roundtrip", (spec,))
