"""Monad, bimonad and Hopf-monad bundles with their law checkers.

Bundles are closures over finitely representable data; nothing is assumed,
everything (naturality included) is checked.  A monad lives on one
category, so a bundle carries its model as ``bundle.model``, and every
function here that takes a bundle reads the model from it.  As in the
paper, each notion is the one before it plus structure: a
:class:`BimonadBundle` is a :class:`MonadBundle` with a comonoidal structure
``m``/``m_unit``, and a :class:`HopfBundle` is a bimonad bundle with the
inverse ``hl_inv`` of its left fusion operator.  So any bundle goes wherever
a poorer one is expected.
A richer bundle is built from a poorer one as
``BimonadBundle(**vars(monad), m=..., m_unit=...)`` and one field is changed
with :func:`dataclasses.replace`.

A bundle memoises its structure maps ``mu``, ``eta``, ``m`` and ``hl_inv``
on their objects, as a model memoises its ``_structural`` maps: each is
computed once per object (tuple) for as long as the bundle lives.  A bundle
built from another keeps the memos of the maps it takes over.

The monad and Hopf suites are :class:`~tracedcat.laws.LawSpec` tables run by
the law driver: their object laws on every object, the fusion laws on every
object pair, and naturality on sampled composable pairs.  The other
checkers here count and record through :class:`~tracedcat.laws.Recorder`.
``check_bimonad_laws`` checks the first ``max(cases, 64)`` object triples and
pairs, and its findings say how many of how many when that prefix cuts.

A Hopf bundle must be handed its fusion inverse explicitly -- invertibility
is the mathematical content under test, so the library never synthesises it
silently.  The right fusion operator and its inverse are always derived from
the left one through the symmetry, which turns that derivation itself into a
checkable law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from .core import CapabilityError, Model, Morphism, UsageError
from .laws import (CaseBudget, CheckReport, LawSpec, Recorder, _objects,
                   _run_specs, _size_sorted_objects)


def _objectwise(fn):
    """``fn`` memoised on its objects, for as long as the returned function
    lives.  The key holds each object and its type, as ``core._structural``'s
    does: ``True == 1``, but it is no object of most models.  A call with an
    unhashable object is not kept, nor is one that raises, and a function
    that is wrapped already comes back as it is."""
    if hasattr(fn, "memo"):
        return fn
    memo = {}

    def memoised(*objs):
        key = (*objs, *map(type, objs))
        try:
            return memo[key]
        except KeyError:
            pass
        except TypeError:  # an unhashable object
            return fn(*objs)
        out = memo[key] = fn(*objs)
        return out

    memoised.memo = memo
    return memoised


@dataclass(frozen=True)
class MonadBundle:
    model: Model
    name: str
    on_obj: Callable
    on_mor: Callable
    mu: Callable    # A -> Morphism TT(A) -> T(A)
    eta: Callable   # A -> Morphism A -> T(A)
    # optional hooks of the Eilenberg-Moore machinery: algebra pools, and
    # algebra-morphism samplers and enumerators (the latter return a HomSet)
    algebra_source: Any = None
    algmor_sampler: Any = None
    algmor_enumerator: Any = None

    def __post_init__(self):
        # the structure maps, each memoised on its objects
        for name in ("mu", "eta", "m", "hl_inv"):
            if hasattr(self, name):
                object.__setattr__(self, name,
                                   _objectwise(getattr(self, name)))


@dataclass(frozen=True, kw_only=True)
class BimonadBundle(MonadBundle):
    m: Callable          # (A, B) -> Morphism T(A (x) B) -> T(A) (x) T(B)
    m_unit: Morphism     # T(I) -> I


@dataclass(frozen=True, kw_only=True)
class HopfBundle(BimonadBundle):
    hl_inv: Callable     # (A, B) -> inverse of the left fusion operator


def identity_hopf_bundle(model: Model) -> HopfBundle:
    """The identity monad, bimonad and Hopf monad on any symmetric model."""

    def algebra_source(A):
        # the unit law forces the action to be the identity
        from .eilenberg_moore import TAlgebra
        return [TAlgebra(A, model.identity(A))]

    return HopfBundle(
        model, "identity",
        on_obj=lambda A: A,
        on_mor=lambda f: f,
        mu=model.identity,
        eta=model.identity,
        algebra_source=algebra_source,
        algmor_sampler=lambda rng, src, tgt:
            model.sample_hom(rng, src.carrier, tgt.carrier),
        m=lambda A, B: model.identity(model.tensor_obj(A, B)),
        m_unit=model.identity(model.unit_obj()),
        hl_inv=lambda A, B: model.identity(model.tensor_obj(A, B)))


# ------------------------------------------------------------------ fusion


def fusion_left(b, A, B) -> Morphism:
    """T(A (x) T(B)) -> T(A) (x) T(B)."""
    model = b.model
    TB = b.on_obj(B)
    return model.compose(
        model.tensor(model.identity(b.on_obj(A)), b.mu(B)),
        b.m(A, TB))


def fusion_right(b, A, B) -> Morphism:
    """T(T(A) (x) B) -> T(A) (x) T(B)."""
    model = b.model
    TA = b.on_obj(A)
    return model.compose(
        model.tensor(b.mu(A), model.identity(b.on_obj(B))),
        b.m(TA, B))


def fusion_right_from_left(h: HopfBundle, B, A):
    """h_r at (B, A) and its inverse, transported through the symmetry."""
    model = h.model
    TA, TB = h.on_obj(A), h.on_obj(B)
    hr = model.seq(h.on_mor(model.sym(TB, A)),
                   fusion_left(h, A, B),
                   model.sym(TA, TB))
    hr_inv = model.seq(model.sym(TB, TA),
                       h.hl_inv(A, B),
                       h.on_mor(model.sym(A, TB)))
    return hr, hr_inv


def try_invert_fusion(b, A, B):
    """Model-level inverse of the left fusion operator, or None."""
    return b.model.invert(fusion_left(b, A, B))


def hopf_from_bimonad(b: BimonadBundle, budget: CaseBudget):
    """Search fusion inverses on the budgeted object pool.

    Returns ``(HopfBundle, None)`` when every checked pair inverts, else
    ``(None, witness)`` where the witness is the first (size-ordered) pair
    whose fusion operator has no inverse.  The bundle's ``hl_inv`` inverts
    or raises :class:`UsageError`, and its memo keeps what the search found.
    """
    model = b.model

    def hl_inv(A, B):
        inv = try_invert_fusion(b, A, B)
        if inv is None:
            raise UsageError(f"fusion operator not invertible at ({A!r}, {B!r})")
        return inv

    # b may be a Hopf bundle already, whose inverse is replaced
    hopf = HopfBundle(**dict(vars(b), hl_inv=hl_inv))
    objs = _size_sorted_objects(model, budget)
    for A, B in sorted(itertools.product(objs, repeat=2),
                       key=lambda p: (model.obj_size(p[0]) + model.obj_size(p[1]),
                                      repr(p))):
        try:
            hopf.hl_inv(A, B)
        except UsageError:
            hl = fusion_left(b, A, B)
            return None, {"A": A, "B": B, "fusion_dom": hl.dom,
                          "fusion_cod": hl.cod}
    return hopf, None


# ------------------------------------------------------------------ checkers


def check_monad_laws(monad: MonadBundle, budget: CaseBudget) -> CheckReport:
    """Unit laws, associativity, functoriality, naturality of mu and eta.

    The object laws are checked on every object of the pool, the laws over
    a composable pair ``f : A -> B``, ``g : B -> C`` on sampled pairs.
    """
    model = monad.model
    T, mu, eta = monad.on_obj, monad.mu, monad.eta

    def object_laws(A):
        TA = T(A)
        one = model.identity(TA)
        inputs = {"A": A}
        return [
            ("monad_unit_left", inputs,
             model.compose(mu(A), monad.on_mor(eta(A))), one),
            ("monad_unit_right", inputs, model.compose(mu(A), eta(TA)), one),
            ("monad_assoc", inputs,
             model.compose(mu(A), monad.on_mor(mu(A))),
             model.compose(mu(A), mu(TA))),
            ("functor_identity", inputs, monad.on_mor(model.identity(A)), one),
        ]

    def natural_laws(A, B, C, f, g):
        inputs = {"f": f, "g": g}
        return [
            ("functor_compose", inputs,
             monad.on_mor(model.compose(g, f)),
             model.compose(monad.on_mor(g), monad.on_mor(f))),
            ("mu_natural", inputs,
             model.compose(mu(B), monad.on_mor(monad.on_mor(f))),
             model.compose(monad.on_mor(f), mu(A))),
            ("eta_natural", inputs,
             model.compose(eta(B), f),
             model.compose(monad.on_mor(f), eta(A))),
        ]

    specs = (LawSpec("monad_objects", 1, object_laws),
             LawSpec("monad_nat", 3, natural_laws,
                     lambda A, B, C: ((A, B), (B, C)), exhaustive=False))
    return _run_specs(model, budget, f"monad_laws[{monad.name}]", specs,
                      exhaustive=True)


def check_bimonad_laws(b, budget: CaseBudget) -> CheckReport:
    """Comonoidal endofunctor laws, compatibility of mu/eta, symmetry law.

    The laws over object triples and over object pairs are checked on the
    first ``max(budget.cases, 64)`` tuples of each; when that prefix cuts,
    the findings count the tuples checked and in total.
    """
    model = b.model
    rec = Recorder(model)
    findings = {}
    objs = _objects(model, budget)
    T, mu, eta, m, mI = b.on_obj, b.mu, b.eta, b.m, b.m_unit
    I = model.unit_obj()
    ident = model.identity

    def prefix(arity, kind):
        total, checked = len(objs) ** arity, max(budget.cases, 64)
        if checked < total:
            findings[f"checked_object_{kind}"] = checked
            findings[f"total_object_{kind}"] = total
        return itertools.islice(itertools.product(objs, repeat=arity),
                                checked)

    for A, B, C in prefix(3, "triples"):
        TA, TB, TC = T(A), T(B), T(C)
        lhs = model.seq(b.m(A, model.tensor_obj(B, C)),
                        model.tensor(ident(TA), m(B, C)),
                        model.assoc(TA, TB, TC))
        rhs = model.seq(b.on_mor(model.assoc(A, B, C)),
                        m(model.tensor_obj(A, B), C),
                        model.tensor(m(A, B), ident(TC)))
        rec.check("comonoidal_coassoc", {"A": A, "B": B, "C": C}, lhs, rhs)

    for A in objs:
        TA = T(A)
        lhs = model.seq(b.on_mor(model.lunit_inv(A)),
                        m(I, A),
                        model.tensor(mI, ident(TA)),
                        model.lunit(TA))
        rec.check("comonoidal_counit_left", {"A": A}, lhs, ident(TA))
        rhs = model.seq(b.on_mor(model.runit_inv(A)),
                        m(A, I),
                        model.tensor(ident(TA), mI),
                        model.runit(TA))
        rec.check("comonoidal_counit_right", {"A": A}, rhs, ident(TA))

    for A, B in prefix(2, "pairs"):
        AB = model.tensor_obj(A, B)
        lhs = model.compose(m(A, B), mu(AB))
        rhs = model.seq(b.on_mor(m(A, B)), m(T(A), T(B)),
                        model.tensor(mu(A), mu(B)))
        rec.check("mu_comonoidal", {"A": A, "B": B}, lhs, rhs)
        lhs = model.compose(m(A, B), eta(AB))
        rhs = model.tensor(eta(A), eta(B))
        rec.check("eta_comonoidal", {"A": A, "B": B}, lhs, rhs)
        lhs = model.compose(model.sym(T(A), T(B)), m(A, B))
        rhs = model.compose(m(B, A), b.on_mor(model.sym(A, B)))
        rec.check("bimonad_symmetry", {"A": A, "B": B}, lhs, rhs)

    rec.check("mu_unit_comonoidal", {},
              model.compose(mI, mu(I)), model.compose(mI, b.on_mor(mI)))
    rec.check("eta_unit_comonoidal", {},
              model.compose(mI, eta(I)), ident(I))

    return rec.finish(f"bimonad_laws[{b.name}]", findings=findings)


def check_hopf(h: HopfBundle, budget: CaseBudget) -> CheckReport:
    """Invertibility of both fusion operators plus their standard identities.

    Checked on every object pair of the pool.  Also checks that the fusion
    operators and their inverses are algebra morphisms between the
    corresponding free algebras.
    """
    from .eilenberg_moore import (AlgebraLawError, algebra_morphism_sides,
                                  algebra_tensor, free_algebra)

    model = h.model
    T, mu, eta, m = h.on_obj, h.mu, h.eta, h.m
    I = model.unit_obj()
    ident = model.identity

    def pair_laws(A, B):
        TA, TB = T(A), T(B)
        hl = fusion_left(h, A, B)
        hli = h.hl_inv(A, B)
        hr, hri = fusion_right_from_left(h, B, A)
        inputs = {"A": A, "B": B}
        out = [
            ("fusion_left_invertible_right", inputs,
             model.compose(hl, hli), ident(model.tensor_obj(TA, TB))),
            ("fusion_left_invertible_left", inputs,
             model.compose(hli, hl), ident(hl.dom)),
            ("fusion_right_invertible_right", inputs,
             model.compose(hr, hri), ident(hr.cod)),
            ("fusion_right_invertible_left", inputs,
             model.compose(hri, hr), ident(hr.dom)),
            # derived right fusion agrees with its own defining composite
            ("fusion_symmetry_relation", inputs, hr, fusion_right(h, B, A)),
            # h1: restricting the fused T(B) leg to eta recovers m
            ("fusion_h1", inputs,
             model.compose(hl, h.on_mor(model.tensor(ident(A), eta(B)))),
             m(A, B)),
            # h2: fusion after eta is eta tensor identity
            ("fusion_h2", inputs,
             model.compose(hl, eta(model.tensor_obj(A, TB))),
             model.tensor(eta(A), ident(TB))),
            # h3: the inverse slides mu through the functor
            ("fusion_h3", inputs,
             model.compose(h.on_mor(model.tensor(ident(A), mu(B))),
                           h.hl_inv(A, TB)),
             model.compose(hli, model.tensor(ident(TA), mu(B)))),
            # h4: the inverse turns eta tensor identity into eta
            ("fusion_h4", inputs,
             eta(model.tensor_obj(A, TB)),
             model.compose(hli, model.tensor(eta(A), ident(TB)))),
        ]
        # algebra-morphism facts for fusion and its inverse; the tensor of
        # free algebras only exists when the comonoidal laws actually hold
        try:
            free_pair = algebra_tensor(h, free_algebra(h, A),
                                       free_algebra(h, B))
        except AlgebraLawError as err:
            out.append(("fusion_free_algebra_tensor_invalid", inputs,
                        err.lhs, err.rhs))
        else:
            free_src = free_algebra(h, model.tensor_obj(A, TB))
            out += [("fusion_left_algebra_morphism", inputs,
                     *algebra_morphism_sides(h, free_src, free_pair, hl)),
                    ("fusion_left_inverse_algebra_morphism", inputs,
                     *algebra_morphism_sides(h, free_pair, free_src, hli))]
        return out

    def unit_law(A):
        # mu is recovered from fusion at the unit
        TA = T(A)
        lhs = model.seq(h.on_mor(model.lunit_inv(TA)),
                        fusion_left(h, I, A),
                        model.tensor(h.m_unit, ident(TA)),
                        model.lunit(TA))
        return [("fusion_mu_identity", {"A": A}, lhs, mu(A))]

    specs = (LawSpec("fusion_pairs", 2, pair_laws),
             LawSpec("fusion_unit", 1, unit_law))
    return _run_specs(model, budget, f"hopf_laws[{h.name}]", specs,
                      exhaustive=True)


# --------------------------------------------------------------- idempotence


def idempotence_suite(bundle, budget: CaseBudget) -> CheckReport:
    """Decide idempotence and check the identities that come with it.

    Findings report: whether mu is invertible on the pool, whether its
    inverse is eta (both ways), whether eta_I and m_I are mutually inverse,
    and -- for Hopf bundles -- that the last two determinations agree.  When
    the bundle is idempotent, symmetric, and the model is traced, the
    traced-monad property is checked too and its report nested.
    """
    from .eilenberg_moore import check_traced_monad

    model = bundle.model
    rec = Recorder(model)
    findings = {}
    objs = _objects(model, budget)
    T, mu, eta = bundle.on_obj, bundle.mu, bundle.eta
    I = model.unit_obj()

    mu_witness = None
    inv_is_eta = True
    for A in objs:
        inv = model.invert(mu(A))
        if inv is None:
            rec.cases += 1  # the invertibility probe that failed
            mu_witness = A
            break
        # the inverse is eta at T(A) and T of eta at A; the witness is the
        # first of the two that differs from it
        rhs = eta(T(A))
        if model.mor_eq(inv, rhs):
            rhs = bundle.on_mor(eta(A))
        if not rec.check("mu_inverse_is_eta", {"A": A}, inv, rhs):
            inv_is_eta = False
    mu_invertible = mu_witness is None
    findings["mu_invertible"] = mu_invertible
    if mu_witness is not None:
        findings["mu_witness"] = repr(mu_witness)
    findings["mu_inverse_is_eta"] = mu_invertible and inv_is_eta

    unit_iso = model.mor_eq(model.compose(eta(I), bundle.m_unit),
                            model.identity(T(I)))
    rec.cases += 1  # a probe: a unit that is no iso is not a failure
    findings["unit_iso"] = unit_iso
    findings["idempotent"] = mu_invertible and inv_is_eta

    if isinstance(bundle, HopfBundle):
        findings["hopf_idempotence_criterion_agrees"] = rec.agree(
            "hopf_idempotence_criterion", mu_invertible, unit_iso,
            {"mu_invertible": mu_invertible, "unit_iso": unit_iso})

    if findings["idempotent"]:
        # eta at T(A) equals T of eta at A
        for A in objs:
            rec.check("idempotent_eta_shift", {"A": A},
                      eta(T(A)), bundle.on_mor(eta(A)))
        if model.traced:
            sub = check_traced_monad(bundle, budget)
            findings["traced_monad_verdict"] = sub.verdict
            rec.fold(sub)

    return rec.finish(f"idempotence[{bundle.name}]", findings)


def trace_meta_check(bundle) -> CheckReport:
    """Trace the comultiplication-at-unit loop and compare with eta.

    For trace-coherent Hopf bundles this single equation decides
    idempotence; for other bundles it is still a well-defined observable.
    """
    model = bundle.model
    if not model.traced:
        raise CapabilityError("trace_meta_check needs a traced model")
    I = model.unit_obj()
    TI = bundle.on_obj(I)
    loop = model.seq(model.lunit(TI),
                     bundle.on_mor(model.lunit_inv(I)),
                     bundle.m(I, I))
    rec = Recorder(model)
    holds = rec.check("trace_meta", {}, model.trace(TI, I, TI, loop),
                      bundle.eta(I))
    return rec.finish(f"trace_meta[{bundle.name}]", findings={"holds": holds})
