"""Monad, bimonad and Hopf-monad bundles with their law checkers.

Bundles are closures over finitely representable data; nothing is assumed,
everything (naturality included) is checked.  A :class:`HopfBundle` must be
handed its fusion inverse explicitly -- invertibility is the mathematical
content under test, so the library never synthesises it silently.  The right
fusion operator and its inverse are always derived from the left one through
the symmetry, which turns that derivation itself into a checkable law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from .core import CapabilityError, EmptyHomError, Model, Morphism, UsageError
from .laws import (CaseBudget, CheckReport, Failure, _finish, _objects, _rng,
                   _size_sorted_objects)


@dataclass(frozen=True)
class MonadBundle:
    model: Model
    name: str
    on_obj: Callable
    on_mor: Callable
    mu: Callable    # A -> Morphism TT(A) -> T(A)
    eta: Callable   # A -> Morphism A -> T(A)
    # optional hooks used by the Eilenberg-Moore machinery on models whose
    # hom-sets cannot be enumerated (algebra pools, equivariant samplers);
    # a source marked complete lists every algebra on a carrier
    algebra_source: Any = None
    algebra_source_complete: bool = False
    algmor_sampler: Any = None
    algmor_enumerator: Any = None


@dataclass(frozen=True)
class BimonadBundle:
    monad: MonadBundle
    m: Callable          # (A, B) -> Morphism T(A (x) B) -> T(A) (x) T(B)
    m_unit: Morphism     # T(I) -> I

    @property
    def model(self):
        return self.monad.model

    @property
    def name(self):
        return self.monad.name

    @property
    def on_obj(self):
        return self.monad.on_obj

    @property
    def on_mor(self):
        return self.monad.on_mor

    @property
    def mu(self):
        return self.monad.mu

    @property
    def eta(self):
        return self.monad.eta


@dataclass(frozen=True)
class HopfBundle:
    bimonad: BimonadBundle
    hl_inv: Callable     # (A, B) -> inverse of the left fusion operator

    @property
    def model(self):
        return self.bimonad.model

    @property
    def name(self):
        return self.bimonad.name

    @property
    def monad(self):
        return self.bimonad.monad

    @property
    def on_obj(self):
        return self.bimonad.on_obj

    @property
    def on_mor(self):
        return self.bimonad.on_mor

    @property
    def mu(self):
        return self.bimonad.mu

    @property
    def eta(self):
        return self.bimonad.eta

    @property
    def m(self):
        return self.bimonad.m

    @property
    def m_unit(self):
        return self.bimonad.m_unit


def as_bimonad(bundle) -> BimonadBundle:
    if isinstance(bundle, HopfBundle):
        return bundle.bimonad
    if isinstance(bundle, BimonadBundle):
        return bundle
    raise UsageError(f"expected a bimonad or Hopf bundle, got {bundle!r}")


def identity_hopf_bundle(model: Model, name="identity") -> HopfBundle:
    """The identity monad, bimonad and Hopf monad on any symmetric model."""

    def algebra_source(A):
        # the unit law forces the action to be the identity
        from .eilenberg_moore import TAlgebra
        return [TAlgebra(A, model.identity(A))]

    monad = MonadBundle(
        model, name,
        on_obj=lambda A: A,
        on_mor=lambda f: f,
        mu=model.identity,
        eta=model.identity,
        algebra_source=algebra_source,
        algebra_source_complete=True,
        algmor_sampler=lambda rng, src, tgt:
            model.sample_hom(rng, src.carrier, tgt.carrier))
    bimonad = BimonadBundle(
        monad,
        m=lambda A, B: model.identity(model.tensor_obj(A, B)),
        m_unit=model.identity(model.unit_obj()))
    return HopfBundle(bimonad,
                      hl_inv=lambda A, B: model.identity(model.tensor_obj(A, B)))


# ------------------------------------------------------------------ fusion


def fusion_left(model: Model, b, A, B) -> Morphism:
    """T(A (x) T(B)) -> T(A) (x) T(B)."""
    b = as_bimonad(b)
    TB = b.on_obj(B)
    return model.compose(
        model.tensor(model.identity(b.on_obj(A)), b.mu(B)),
        b.m(A, TB))


def fusion_right(model: Model, b, A, B) -> Morphism:
    """T(T(A) (x) B) -> T(A) (x) T(B)."""
    b = as_bimonad(b)
    TA = b.on_obj(A)
    return model.compose(
        model.tensor(b.mu(A), model.identity(b.on_obj(B))),
        b.m(TA, B))


def fusion_right_from_left(model: Model, h: HopfBundle, B, A):
    """h_r at (B, A) and its inverse, transported through the symmetry."""
    TA, TB = h.on_obj(A), h.on_obj(B)
    hr = model.seq(h.on_mor(model.sym(TB, A)),
                   fusion_left(model, h, A, B),
                   model.sym(TA, TB))
    hr_inv = model.seq(model.sym(TB, TA),
                       h.hl_inv(A, B),
                       h.on_mor(model.sym(A, TB)))
    return hr, hr_inv


def try_invert_fusion(model: Model, b, A, B):
    """Model-level inverse of the left fusion operator, or None."""
    return model.invert(fusion_left(model, b, A, B))


def hopf_from_bimonad(model: Model, b: BimonadBundle, budget: CaseBudget):
    """Search fusion inverses on the budgeted object pool.

    Returns ``(HopfBundle, None)`` when every checked pair inverts, else
    ``(None, witness)`` where the witness is the first (size-ordered) pair
    whose fusion operator has no inverse.
    """
    objs = _size_sorted_objects(model, budget)
    table = {}
    for A, B in sorted(itertools.product(objs, repeat=2),
                       key=lambda p: (model.obj_size(p[0]) + model.obj_size(p[1]),
                                      repr(p))):
        inv = try_invert_fusion(model, b, A, B)
        if inv is None:
            hl = fusion_left(model, b, A, B)
            return None, {"A": A, "B": B, "fusion_dom": hl.dom,
                          "fusion_cod": hl.cod}
        table[(A, B)] = inv

    def hl_inv(A, B):
        if (A, B) not in table:
            got = try_invert_fusion(model, b, A, B)
            if got is None:
                raise UsageError(f"fusion operator not invertible at ({A!r}, {B!r})")
            table[(A, B)] = got
        return table[(A, B)]

    return HopfBundle(b, hl_inv), None


# ------------------------------------------------------------------ checkers


def check_monad_laws(model: Model, monad: MonadBundle,
                     budget: CaseBudget) -> CheckReport:
    """Unit laws, associativity, functoriality, naturality of mu and eta."""
    failures, cases = [], 0
    objs = _objects(model, budget)
    T, mu, eta = monad.on_obj, monad.mu, monad.eta

    for A in objs:
        TA = T(A)
        one = model.identity(TA)
        checks = [
            ("monad_unit_left", model.compose(mu(A), monad.on_mor(eta(A))), one),
            ("monad_unit_right", model.compose(mu(A), eta(TA)), one),
            ("monad_assoc",
             model.compose(mu(A), monad.on_mor(mu(A))),
             model.compose(mu(A), mu(TA))),
            ("functor_identity", monad.on_mor(model.identity(A)), one),
        ]
        for law, lhs, rhs in checks:
            cases += 1
            if not model.mor_eq(lhs, rhs):
                failures.append(Failure(law, {"A": A}, lhs, rhs))

    for i in range(budget.cases):
        rng = _rng(budget, "monad_nat", i)
        A, B, C = rng.choice(objs), rng.choice(objs), rng.choice(objs)
        try:
            f = model.sample_hom(rng, A, B)
            g = model.sample_hom(rng, B, C)
        except EmptyHomError:
            continue
        checks = [
            ("functor_compose",
             monad.on_mor(model.compose(g, f)),
             model.compose(monad.on_mor(g), monad.on_mor(f))),
            ("mu_natural",
             model.compose(mu(B), monad.on_mor(monad.on_mor(f))),
             model.compose(monad.on_mor(f), mu(A))),
            ("eta_natural",
             model.compose(eta(B), f),
             model.compose(monad.on_mor(f), eta(A))),
        ]
        for law, lhs, rhs in checks:
            cases += 1
            if not model.mor_eq(lhs, rhs):
                failures.append(Failure(law, {"f": f, "g": g}, lhs, rhs))

    return _finish(f"monad_laws[{monad.name}]", model.name, cases, failures)


def check_bimonad_laws(model: Model, b, budget: CaseBudget) -> CheckReport:
    """Comonoidal endofunctor laws, compatibility of mu/eta, symmetry law."""
    if not model.symmetric:
        raise CapabilityError("check_bimonad_laws needs a symmetric model")
    b = as_bimonad(b)
    failures, cases = [], 0
    objs = _objects(model, budget)
    T, mu, eta, m, mI = b.on_obj, b.mu, b.eta, b.m, b.m_unit
    I = model.unit_obj()
    ident = model.identity

    def add(law, inputs, lhs, rhs):
        nonlocal cases
        cases += 1
        if not model.mor_eq(lhs, rhs):
            failures.append(Failure(law, inputs, lhs, rhs))

    for A, B, C in itertools.islice(
            itertools.product(objs, repeat=3), 0, max(budget.cases, 64)):
        TA, TB, TC = T(A), T(B), T(C)
        lhs = model.seq(b.m(A, model.tensor_obj(B, C)),
                        model.tensor(ident(TA), m(B, C)),
                        model.assoc(TA, TB, TC))
        rhs = model.seq(b.on_mor(model.assoc(A, B, C)),
                        m(model.tensor_obj(A, B), C),
                        model.tensor(m(A, B), ident(TC)))
        add("comonoidal_coassoc", {"A": A, "B": B, "C": C}, lhs, rhs)

    for A in objs:
        TA = T(A)
        lhs = model.seq(b.on_mor(model.lunit_inv(A)),
                        m(I, A),
                        model.tensor(mI, ident(TA)),
                        model.lunit(TA))
        add("comonoidal_counit_left", {"A": A}, lhs, ident(TA))
        rhs = model.seq(b.on_mor(model.runit_inv(A)),
                        m(A, I),
                        model.tensor(ident(TA), mI),
                        model.runit(TA))
        add("comonoidal_counit_right", {"A": A}, rhs, ident(TA))

    for A, B in itertools.islice(
            itertools.product(objs, repeat=2), 0, max(budget.cases, 64)):
        AB = model.tensor_obj(A, B)
        lhs = model.compose(m(A, B), mu(AB))
        rhs = model.seq(b.on_mor(m(A, B)), m(T(A), T(B)),
                        model.tensor(mu(A), mu(B)))
        add("mu_comonoidal", {"A": A, "B": B}, lhs, rhs)
        lhs = model.compose(m(A, B), eta(AB))
        rhs = model.tensor(eta(A), eta(B))
        add("eta_comonoidal", {"A": A, "B": B}, lhs, rhs)
        lhs = model.compose(model.sym(T(A), T(B)), m(A, B))
        rhs = model.compose(m(B, A), b.on_mor(model.sym(A, B)))
        add("bimonad_symmetry", {"A": A, "B": B}, lhs, rhs)

    add("mu_unit_comonoidal", {},
        model.compose(mI, mu(I)), model.compose(mI, b.on_mor(mI)))
    add("eta_unit_comonoidal", {},
        model.compose(mI, eta(I)), ident(I))

    return _finish(f"bimonad_laws[{b.name}]", model.name, cases, failures)


def check_hopf(model: Model, h: HopfBundle, budget: CaseBudget) -> CheckReport:
    """Invertibility of both fusion operators plus their standard identities.

    Also checks that the fusion operators and their inverses are algebra
    morphisms between the corresponding free algebras.
    """
    from .eilenberg_moore import algebra_tensor, free_algebra, is_algebra_morphism

    if not model.symmetric:
        raise CapabilityError("check_hopf needs a symmetric model")
    failures, cases = [], 0
    objs = _objects(model, budget)
    T, mu, eta, m = h.on_obj, h.mu, h.eta, h.m
    I = model.unit_obj()
    ident = model.identity

    def add(law, inputs, lhs, rhs):
        nonlocal cases
        cases += 1
        if not model.mor_eq(lhs, rhs):
            failures.append(Failure(law, inputs, lhs, rhs))

    pair_budget = max(16, budget.cases // 4)
    pairs = list(itertools.islice(itertools.product(objs, repeat=2),
                                  0, pair_budget))
    for A, B in pairs:
        TA, TB = T(A), T(B)
        hl = fusion_left(model, h, A, B)
        hli = h.hl_inv(A, B)
        add("fusion_left_invertible_right",
            {"A": A, "B": B}, model.compose(hl, hli),
            ident(model.tensor_obj(TA, TB)))
        add("fusion_left_invertible_left",
            {"A": A, "B": B}, model.compose(hli, hl), ident(hl.dom))
        hr, hri = fusion_right_from_left(model, h, B, A)
        add("fusion_right_invertible_right",
            {"A": A, "B": B}, model.compose(hr, hri), ident(hr.cod))
        add("fusion_right_invertible_left",
            {"A": A, "B": B}, model.compose(hri, hr), ident(hr.dom))
        # derived right fusion agrees with its own defining composite
        add("fusion_symmetry_relation", {"A": A, "B": B},
            hr, fusion_right(model, h, B, A))
        # h1: restricting the fused T(B) leg to eta recovers m
        add("fusion_h1", {"A": A, "B": B},
            model.compose(hl, h.on_mor(model.tensor(ident(A), eta(B)))),
            m(A, B))
        # h2: fusion after eta is eta tensor identity
        add("fusion_h2", {"A": A, "B": B},
            model.compose(hl, eta(model.tensor_obj(A, TB))),
            model.tensor(eta(A), ident(TB)))
        # h3: the inverse slides mu through the functor
        add("fusion_h3", {"A": A, "B": B},
            model.compose(h.on_mor(model.tensor(ident(A), mu(B))),
                          h.hl_inv(A, TB)),
            model.compose(h.hl_inv(A, B),
                          model.tensor(ident(TA), mu(B))))
        # h4: the inverse turns eta tensor identity into eta
        add("fusion_h4", {"A": A, "B": B},
            eta(model.tensor_obj(A, TB)),
            model.compose(h.hl_inv(A, B), model.tensor(eta(A), ident(TB))))
        # algebra-morphism facts for fusion and its inverse; the tensor of
        # free algebras only exists when the comonoidal laws actually hold
        from .eilenberg_moore import AlgebraLawError
        try:
            free_pair = algebra_tensor(model, h.bimonad,
                                       free_algebra(model, h.monad, A),
                                       free_algebra(model, h.monad, B))
        except AlgebraLawError as err:
            cases += 1
            failures.append(Failure("fusion_free_algebra_tensor_invalid",
                                    {"A": A, "B": B}, err.lhs, err.rhs))
        else:
            free_src = free_algebra(model, h.monad, model.tensor_obj(A, TB))
            cases += 2
            if not is_algebra_morphism(model, h.monad, free_src, free_pair, hl):
                failures.append(Failure("fusion_left_algebra_morphism",
                                        {"A": A, "B": B}, hl, hl))
            if not is_algebra_morphism(model, h.monad, free_pair, free_src, hli):
                failures.append(Failure("fusion_left_inverse_algebra_morphism",
                                        {"A": A, "B": B}, hli, hli))

    # mu is recovered from fusion at the unit
    for A in objs:
        TA = T(A)
        lhs = model.seq(h.on_mor(model.lunit_inv(TA)),
                        fusion_left(model, h, I, A),
                        model.tensor(h.m_unit, ident(TA)),
                        model.lunit(TA))
        add("fusion_mu_identity", {"A": A}, lhs, mu(A))

    return _finish(f"hopf_laws[{h.name}]", model.name, cases, failures)


# --------------------------------------------------------------- idempotence


def idempotence_suite(model: Model, bundle, budget: CaseBudget) -> CheckReport:
    """Decide idempotence and check the identities that come with it.

    Findings report: whether mu is invertible on the pool, whether its
    inverse is eta (both ways), whether eta_I and m_I are mutually inverse,
    and -- for Hopf bundles -- that the last two determinations agree.  When
    the bundle is idempotent, symmetric, and the model is traced, the
    traced-monad property is checked too and its report nested.
    """
    from .eilenberg_moore import check_traced_monad

    b = as_bimonad(bundle)
    failures, cases = [], 0
    findings = {}
    objs = _objects(model, budget)
    T, mu, eta = b.on_obj, b.mu, b.eta
    I = model.unit_obj()

    mu_invertible = True
    mu_witness = None
    inv_is_eta = True
    for A in objs:
        cases += 1
        inv = model.invert(mu(A))
        if inv is None:
            mu_invertible = False
            mu_witness = A
            break
        TA = T(A)
        if not (model.mor_eq(inv, eta(TA))
                and model.mor_eq(inv, b.on_mor(eta(A)))):
            inv_is_eta = False
            failures.append(Failure("mu_inverse_is_eta", {"A": A}, inv, eta(TA)))
    findings["mu_invertible"] = mu_invertible
    if mu_witness is not None:
        findings["mu_witness"] = repr(mu_witness)
    findings["mu_inverse_is_eta"] = mu_invertible and inv_is_eta

    unit_iso = model.mor_eq(model.compose(eta(I), b.m_unit),
                            model.identity(T(I)))
    cases += 1
    findings["unit_iso"] = unit_iso
    findings["idempotent"] = mu_invertible and inv_is_eta

    if isinstance(bundle, HopfBundle):
        agree = (mu_invertible == unit_iso)
        findings["hopf_idempotence_criterion_agrees"] = agree
        if not agree:
            failures.append(Failure(
                "hopf_idempotence_criterion",
                {"mu_invertible": mu_invertible, "unit_iso": unit_iso},
                model.compose(eta(I), b.m_unit), model.identity(T(I))))

    exhaustive_ok = True
    if findings["idempotent"]:
        # eta at T(A) equals T of eta at A
        for A in objs:
            cases += 1
            lhs, rhs = eta(T(A)), b.on_mor(eta(A))
            if not model.mor_eq(lhs, rhs):
                failures.append(Failure("idempotent_eta_shift", {"A": A}, lhs, rhs))
        if model.traced:
            sub = check_traced_monad(model, b, budget)
            findings["traced_monad_verdict"] = sub.verdict
            cases += sub.cases_run
            failures.extend(sub.failures)
            exhaustive_ok = sub.verdict != "inconclusive"

    return _finish(f"idempotence[{b.name}]", model.name, cases, failures,
                   exhaustive_ok=exhaustive_ok, findings=findings)


def trace_meta_check(model: Model, bundle) -> CheckReport:
    """Trace the comultiplication-at-unit loop and compare with eta.

    For trace-coherent Hopf bundles this single equation decides
    idempotence; for other bundles it is still a well-defined observable.
    """
    if not (model.traced and model.symmetric):
        raise CapabilityError("trace_meta_check needs a traced symmetric model")
    b = as_bimonad(bundle)
    I = model.unit_obj()
    TI = b.on_obj(I)
    loop = model.seq(model.lunit(TI),
                     b.on_mor(model.lunit_inv(I)),
                     b.m(I, I))
    lhs = model.trace(TI, I, TI, loop)
    rhs = b.eta(I)
    holds = model.mor_eq(lhs, rhs)
    failures = [] if holds else [Failure("trace_meta", {}, lhs, rhs)]
    return _finish(f"trace_meta[{b.name}]", model.name, 1, failures,
                   findings={"holds": holds})
