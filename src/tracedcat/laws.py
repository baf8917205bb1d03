"""Property-based checkers for the monoidal, trace, snake and Conway laws.

Each suite is generic over any :class:`~tracedcat.core.Model` and produces a
witness-carrying :class:`CheckReport`.  Runs are deterministic: the same
(model, budget) pair always yields the same report, and every reported
failure replays to ``lhs != rhs`` under ``mor_eq``.

Every law quantified over objects and hom-sets is one :class:`LawSpec` in a
suite's table: its name, how many objects it takes, the ``(dom, cod)`` of
each hom-set it quantifies over, and the evaluator of its two sides.  One
driver runs every table either *sampled* (``budget.cases`` seeded draws per
law) or *exhaustive* (every object tuple within ``budget.max_object_size``,
times every morphism tuple of its hom-sets).  ``symmetry_natural`` is marked
sampled-only, so exhaustive monoidal runs still sample it.

An exhaustive run claims no more than it evaluated.  A law whose objects or
hom-sets cannot be enumerated is sampled instead; an object tuple with a
hom-set that ``enumerate_hom`` declines is skipped and counted in
``findings["skipped_object_tuples"]``.  Either way the verdict is
``inconclusive`` unless a failure is found.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import CapabilityError, EmptyHomError, Model, Morphism


@dataclass(frozen=True)
class CaseBudget:
    """Seeded, bounded test budget; identical budgets replay identically."""
    seed: int
    cases: int = 100
    max_object_size: int = 4

    def __post_init__(self):
        if self.cases < 1:
            raise ValueError("cases must be >= 1")


@dataclass(frozen=True)
class Failure:
    law: str
    inputs: dict
    lhs: Morphism
    rhs: Morphism


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


def _finish(suite, model_name, cases, failures, exhaustive_ok=True, findings=None):
    if failures:
        verdict = "fail"
    elif exhaustive_ok:
        verdict = "pass"
    else:
        verdict = "inconclusive"
    return CheckReport(suite, model_name, cases, verdict, failures,
                       findings or {})


def _rng(budget: CaseBudget, tag: str, i: int) -> random.Random:
    return random.Random(f"{tag}:{budget.seed}:{i}")


def _sampled_objects(model: Model, budget: CaseBudget):
    rng = _rng(budget, "objpool", 0)
    return [model.sample_object(rng, budget.max_object_size)
            for _ in range(max(8, budget.max_object_size * 4))]


def _objects(model: Model, budget: CaseBudget):
    objs = model.enumerate_objects(budget.max_object_size)
    return objs if objs is not None else _sampled_objects(model, budget)


def _size_sorted_objects(model: Model, budget: CaseBudget) -> list:
    return sorted(_objects(model, budget),
                  key=lambda o: (model.obj_size(o), repr(o)))


def _homs_enumerable(model):
    I = model.unit_obj()
    return model.enumerate_hom(I, I) is not None


# ---------------------------------------------------------------- law driver


@dataclass(frozen=True)
class LawSpec:
    """One law quantified over ``arity`` objects and the hom-sets they bound.

    ``homs(*objects)`` gives the ``(dom, cod)`` of each quantified hom-set in
    draw order (``None``: the law quantifies over objects alone), and
    ``sides(*objects, *morphisms)`` returns ``(inputs, lhs, rhs)``.  A spec
    with ``exhaustive=False`` is sampled even in exhaustive runs.
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
    draws are seeded by the law name and case index.  An exhaustive spec
    takes the product over objects, then over hom-sets.  An exhaustive run
    that has to sample a spec, or skips an object tuple, is at best
    ``inconclusive``.
    """
    if objs is None:
        objs = model.enumerate_objects(budget.max_object_size)
        pool = objs if objs is not None else _sampled_objects(model, budget)
    else:
        pool = objs
    homs_ok = exhaustive and objs is not None and _homs_enumerable(model)
    failures, cases, skipped, covered = [], 0, 0, True
    for spec in specs:
        wanted = exhaustive and spec.exhaustive
        if wanted and (homs_ok or (objs is not None and spec.homs is None)):
            for objects in itertools.product(objs, repeat=spec.arity):
                homs = (list(itertools.starmap(model.enumerate_hom,
                                               spec.homs(*objects)))
                        if spec.homs else [])
                if None in homs:
                    skipped += 1  # hom-set beyond the enumeration cap
                    continue
                for morphisms in itertools.product(*homs):
                    inputs, lhs, rhs = spec.sides(*objects, *morphisms)
                    cases += 1
                    if not model.mor_eq(lhs, rhs):
                        failures.append(Failure(spec.name, inputs, lhs, rhs))
            continue
        if wanted:
            covered = False  # objects or hom-sets do not enumerate
        for i in range(budget.cases):
            rng = _rng(budget, spec.name, i)
            objects = [rng.choice(pool) for _ in range(spec.arity)]
            try:
                morphisms = ([model.sample_hom(rng, dom, cod)
                              for dom, cod in spec.homs(*objects)]
                             if spec.homs else [])
                inputs, lhs, rhs = spec.sides(*objects, *morphisms)
            except EmptyHomError:
                continue  # subsingleton models: the drawn hom-set was empty
            cases += 1
            if not model.mor_eq(lhs, rhs):
                failures.append(Failure(spec.name, inputs, lhs, rhs))
    return _finish(suite, model.name, cases, failures,
                   exhaustive_ok=covered and not skipped,
                   findings={"skipped_object_tuples": skipped} if skipped
                   else None)


# ------------------------------------------------------------ monoidal suite


def check_monoidal_laws(model: Model, budget: CaseBudget,
                        exhaustive=False) -> CheckReport:
    """Pentagon, triangle, symmetry involution, hexagon, bifunctoriality."""
    if not model.symmetric:
        raise CapabilityError("check_monoidal_laws needs a symmetric model")
    i = model.identity

    def pentagon(A, B, C, D):
        lhs = model.compose(model.assoc(model.tensor_obj(A, B), C, D),
                            model.assoc(A, B, model.tensor_obj(C, D)))
        rhs = model.seq(model.tensor(i(A), model.assoc(B, C, D)),
                        model.assoc(A, model.tensor_obj(B, C), D),
                        model.tensor(model.assoc(A, B, C), i(D)))
        return {"objects": (A, B, C, D)}, lhs, rhs

    def triangle(A, B):
        I = model.unit_obj()
        lhs = model.compose(model.tensor(model.runit(A), i(B)),
                            model.assoc(A, I, B))
        rhs = model.tensor(i(A), model.lunit(B))
        return {"objects": (A, B)}, lhs, rhs

    def sym_invol(A, B):
        lhs = model.compose(model.sym(B, A), model.sym(A, B))
        rhs = i(model.tensor_obj(A, B))
        return {"objects": (A, B)}, lhs, rhs

    def hexagon(A, B, C):
        lhs = model.seq(model.tensor(model.sym(A, B), i(C)),
                        model.assoc_inv(B, A, C),
                        model.tensor(i(B), model.sym(A, C)))
        rhs = model.seq(model.assoc_inv(A, B, C),
                        model.sym(A, model.tensor_obj(B, C)),
                        model.assoc_inv(B, C, A))
        return {"objects": (A, B, C)}, lhs, rhs

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
        return {"objects": (A, B, C)}, witness, i(witness.dom)

    def bifunctorial(A, B, C, Ap, Bp, Cp, h, f, k, g):
        lhs = model.compose(model.tensor(f, g), model.tensor(h, k))
        rhs = model.tensor(model.compose(f, h), model.compose(g, k))
        return {"f": f, "g": g, "h": h, "k": k}, lhs, rhs

    def sym_natural(A, B, C, D, f, g):
        lhs = model.compose(model.sym(B, D), model.tensor(f, g))
        rhs = model.compose(model.tensor(g, f), model.sym(A, C))
        return {"f": f, "g": g}, lhs, rhs

    def tensor_id(A, B):
        lhs = model.tensor(i(A), i(B))
        rhs = i(model.tensor_obj(A, B))
        return {"objects": (A, B)}, lhs, rhs

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
    T = model.tensor_obj
    I = model.unit_obj()

    def tightening_left(A, Ap, B, X, f, g):
        lhs = model.trace(X, Ap, B, model.compose(f, model.tensor(g, i(X))))
        rhs = model.compose(model.trace(X, A, B, f), g)
        return {"A": A, "A'": Ap, "B": B, "X": X, "f": f, "g": g}, lhs, rhs

    def tightening_right(A, B, Bp, X, f, h):
        lhs = model.trace(X, A, Bp, model.compose(model.tensor(h, i(X)), f))
        rhs = model.compose(h, model.trace(X, A, B, f))
        return {"A": A, "B": B, "B'": Bp, "X": X, "f": f, "h": h}, lhs, rhs

    def sliding(A, B, X, Xp, f, k):
        # f : A (x) X -> B (x) X', k : X' -> X; sliding k around the loop
        lhs = model.trace(Xp, A, B, model.compose(f, model.tensor(i(A), k)))
        rhs = model.trace(X, A, B, model.compose(model.tensor(i(B), k), f))
        return {"A": A, "B": B, "X": X, "X'": Xp, "f": f, "k": k}, lhs, rhs

    def vanishing(A, B, X, Y, f):
        XY = T(X, Y)
        lhs = model.trace(XY, A, B, f)
        inner = model.seq(model.assoc_inv(A, X, Y), f, model.assoc(B, X, Y))
        stage = model.trace(Y, T(A, X), T(B, X), inner)
        rhs = model.trace(X, A, B, stage)
        return {"A": A, "B": B, "X": X, "Y": Y, "f": f}, lhs, rhs

    def vanishing_homs(A, B, X, Y):
        XY = T(X, Y)
        return ((T(A, XY), T(B, XY)),)

    def superposing(A, B, C, X, f):
        conj = model.seq(model.assoc_inv(C, A, X),
                         model.tensor(i(C), f),
                         model.assoc(C, B, X))
        lhs = model.trace(X, T(C, A), T(C, B), conj)
        rhs = model.tensor(i(C), model.trace(X, A, B, f))
        return {"A": A, "B": B, "C": C, "X": X, "f": f}, lhs, rhs

    def yanking(X):
        lhs = model.trace(X, X, X, model.sym(X, X))
        rhs = i(X)
        return {"X": X}, lhs, rhs

    def vanishing_unit(A, B, f):
        lhs = model.trace(I, A, B, f)
        rhs = model.seq(model.runit_inv(A), f, model.runit(B))
        return {"A": A, "B": B, "f": f}, lhs, rhs

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
    failures, counter = [], [0]
    objs = _objects(model, budget)
    i = model.identity
    for X in objs:
        xd = model.dual_obj(X)
        counter[0] += 1
        lhs = model.seq(
            model.lunit_inv(X),
            model.tensor(model.cap(X), i(X)),
            model.assoc_inv(X, xd, X),
            model.tensor(i(X), model.cup(X)),
            model.runit(X))
        if not model.mor_eq(lhs, i(X)):
            failures.append(Failure("snake_right", {"X": X}, lhs, i(X)))
        counter[0] += 1
        rhs = model.seq(
            model.runit_inv(xd),
            model.tensor(i(xd), model.cap(X)),
            model.assoc(xd, X, xd),
            model.tensor(model.cup(X), i(xd)),
            model.lunit(xd))
        if not model.mor_eq(rhs, i(xd)):
            failures.append(Failure("snake_left", {"X": X}, rhs, i(xd)))
    return _finish("snake_equations", model.name, counter[0], failures)


# --------------------------------------------------------------- conway suite


def check_conway_axioms(model: Model, budget: CaseBudget) -> CheckReport:
    """Parametrized fixed point, both naturalities, and the Bekic law."""
    if not (model.cartesian and model.has_conway):
        raise CapabilityError("check_conway_axioms needs a cartesian model "
                              "with a fixed-point operator")
    i = model.identity
    T = model.tensor_obj

    def fixed_point(A, X, f):
        fx = model.fix(X, A, f)
        lhs = fx
        rhs = model.compose(f, model.pair(i(A), fx))
        return {"A": A, "X": X, "f": f}, lhs, rhs

    def naturality(A, Ap, X, f, g):
        lhs = model.fix(X, Ap, model.compose(f, model.tensor(g, i(X))))
        rhs = model.compose(model.fix(X, A, f), g)
        return {"A": A, "A'": Ap, "X": X, "f": f, "g": g}, lhs, rhs

    def dinaturality(A, X, Xp, f, k):
        lhs = model.fix(X, A, model.compose(k, f))
        rhs = model.compose(
            k, model.fix(Xp, A, model.compose(f, model.tensor(i(A), k))))
        return {"A": A, "X": X, "X'": Xp, "f": f, "k": k}, lhs, rhs

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
        return {"A": A, "X": X, "Y": Y, "f": f, "g": g}, lhs, rhs

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
    failures, counter = [], [0]
    objs = _objects(model, budget)
    i = model.identity
    for case in range(budget.cases):
        rng = _rng(budget, "conway_roundtrip", case)
        A, B, X = rng.choice(objs), rng.choice(objs), rng.choice(objs)
        # trace -> fix: the fixed point derived from the trace is fix itself
        f = model.sample_hom(rng, model.tensor_obj(A, X), X)
        derived_fix = model.trace(X, A, X, model.pair(f, f))
        counter[0] += 1
        if not model.mor_eq(derived_fix, model.fix(X, A, f)):
            failures.append(Failure("fix_from_trace", {"A": A, "X": X, "f": f},
                                    derived_fix, model.fix(X, A, f)))
        # fix -> trace: the trace derived from the fixed point is trace itself
        h = model.sample_hom(rng, model.tensor_obj(A, X),
                             model.tensor_obj(B, X))
        p1h = model.compose(model.proj1(B, X), h)
        derived_tr = model.seq(
            model.pair(i(A), model.fix(X, A, p1h)), h, model.proj0(B, X))
        counter[0] += 1
        if not model.mor_eq(derived_tr, model.trace(X, A, B, h)):
            failures.append(Failure("trace_from_fix",
                                    {"A": A, "B": B, "X": X, "f": h},
                                    derived_tr, model.trace(X, A, B, h)))
    return _finish("conway_trace_roundtrip", model.name, counter[0], failures)
