"""Algebras of a monad and the lifted traced structure over them.

The two central checkers live here: :func:`check_traced_monad` asks whether
the trace of every algebra morphism is again an algebra morphism, and
:func:`check_trace_coherence` evaluates the fusion-conjugated trace equation
that needs no algebras at all.  For symmetric Hopf bundles the two verdicts
must agree; :func:`crosscheck_main_theorem` runs both and treats any
disagreement as a library bug.

Quantifier handling: the traced-monad property ranges over all algebras and
algebra morphisms.  On models with finite hom-set enumerators the checkers
are exhaustive (within the budget's object-size bound) and verdicts are
definitive, unless a hom-set the enumerator declines was skipped, which
makes a verdict without failures ``inconclusive``; elsewhere they sample
through bundle-registered generators and are refutation-sound only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .core import CapabilityError, Model, Morphism
from .laws import (CaseBudget, CheckReport, Failure, LawSpec, _finish,
                   _homs_enumerable, _rng, _run_specs, _size_sorted_objects)
from .monads import HopfBundle, MonadBundle, as_bimonad, fusion_left


@dataclass(frozen=True)
class TAlgebra:
    carrier: object
    action: Morphism


class AlgebraLawError(Exception):
    """A would-be algebra failed one of its two laws."""

    def __init__(self, law, algebra, lhs, rhs):
        super().__init__(f"algebra law {law} fails on carrier "
                         f"{algebra.carrier!r}")
        self.law = law
        self.algebra = algebra
        self.lhs = lhs
        self.rhs = rhs


def algebra_law_failures(model: Model, monad: MonadBundle, alg: TAlgebra):
    A, a = alg.carrier, alg.action
    out = []
    lhs = model.compose(a, monad.eta(A))
    rhs = model.identity(A)
    if not model.mor_eq(lhs, rhs):
        out.append(("algebra_unit", lhs, rhs))
    lhs = model.compose(a, monad.mu(A))
    rhs = model.compose(a, monad.on_mor(a))
    if not model.mor_eq(lhs, rhs):
        out.append(("algebra_mult", lhs, rhs))
    return out


def is_algebra(model, monad, alg) -> bool:
    return not algebra_law_failures(model, monad, alg)


def validate_algebra(model, monad, alg) -> TAlgebra:
    bad = algebra_law_failures(model, monad, alg)
    if bad:
        law, lhs, rhs = bad[0]
        raise AlgebraLawError(law, alg, lhs, rhs)
    return alg


def is_algebra_morphism(model, monad, src: TAlgebra, tgt: TAlgebra,
                        f: Morphism) -> bool:
    lhs = model.compose(f, src.action)
    rhs = model.compose(tgt.action, monad.on_mor(f))
    return model.mor_eq(lhs, rhs)


def free_algebra(model: Model, monad: MonadBundle, A) -> TAlgebra:
    return TAlgebra(monad.on_obj(A), monad.mu(A))


def unit_algebra(model: Model, b) -> TAlgebra:
    b = as_bimonad(b)
    return validate_algebra(model, b.monad, TAlgebra(model.unit_obj(), b.m_unit))


def algebra_tensor(model: Model, b, left: TAlgebra, right: TAlgebra) -> TAlgebra:
    """(A, a) (x) (B, b) carried by A (x) B with action (a (x) b) o m."""
    b = as_bimonad(b)
    A, B = left.carrier, right.carrier
    action = model.compose(model.tensor(left.action, right.action), b.m(A, B))
    return validate_algebra(
        model, b.monad, TAlgebra(model.tensor_obj(A, B), action))


# --------------------------------------------------------------- enumeration


def enumerate_algebras(model: Model, monad: MonadBundle, A) -> list:
    """Every algebra structure on carrier A (complete on enumerable models)."""
    if monad.algebra_source is not None:
        return [alg for alg in monad.algebra_source(A) if alg.carrier == A]
    homs = model.enumerate_hom(monad.on_obj(A), A)
    if homs is None:
        raise CapabilityError(
            f"model {model.name!r} has no hom enumerator and bundle "
            f"{monad.name!r} registered no algebra generator")
    return [TAlgebra(A, a) for a in homs
            if is_algebra(model, monad, TAlgebra(A, a))]


def algebra_pool(model: Model, monad: MonadBundle, budget: CaseBudget) -> list:
    """Algebras over every object in the budgeted pool, size-ordered."""
    pool = []
    for A in _size_sorted_objects(model, budget):
        pool.extend(enumerate_algebras(model, monad, A))
    return pool


def enumerate_algebra_morphisms(model: Model, monad: MonadBundle,
                                src: TAlgebra, tgt: TAlgebra):
    """All algebra morphisms src -> tgt, or None when not enumerable."""
    if monad.algmor_enumerator is not None:
        out = monad.algmor_enumerator(src, tgt)
        if out is not None:
            return out
    homs = model.enumerate_hom(src.carrier, tgt.carrier)
    if homs is None:
        return None
    return [f for f in homs if is_algebra_morphism(model, monad, src, tgt, f)]


def sample_algebra_morphisms(model: Model, b, rng, src: TAlgebra,
                             tgt: TAlgebra, k=1) -> list:
    """k algebra morphisms src -> tgt drawn through the bundle's sampler."""
    b = as_bimonad(b)
    if b.monad.algmor_sampler is not None:
        return [b.monad.algmor_sampler(rng, src, tgt) for _ in range(k)]
    found = enumerate_algebra_morphisms(model, b.monad, src, tgt)
    if found is None:
        raise CapabilityError(
            f"bundle {b.name!r} has neither an algebra-morphism sampler nor "
            f"an enumerable hom-set")
    if not found:
        return []
    return [found[rng.randrange(len(found))] for _ in range(k)]


# ------------------------------------------------------- traced-monad checker


def _conclusion_failure(model, b, law, algs, algB, f, g):
    """The failure of ``g : A -> B`` to be an algebra morphism, or None.

    ``algs`` are the algebras the case ranges over, ``(X, A)`` or
    ``(X, A, B)``; they and ``f`` make up the witness.
    """
    lhs = model.compose(g, algs[1].action)
    rhs = model.compose(algB.action, b.on_mor(g))
    if model.mor_eq(lhs, rhs):
        return None
    inputs = {}
    for name, alg in zip("XAB", algs):
        inputs[name] = alg.carrier
        inputs[name.lower()] = alg.action
    inputs["f"] = f
    return Failure(law, inputs, lhs, rhs)


def _check_lifting(model: Model, b, budget: CaseBudget, suite, law, arity,
                   lift) -> CheckReport:
    """Exhaustive lifting loop of the traced and fixed-point checkers.

    For every size-ordered tuple ``(X, A, ...)`` of ``arity`` algebras,
    ``lift(X, A, ...)`` gives ``(B, tgt, op)``: every algebra morphism
    ``f : A (x) X -> tgt`` is sent to ``op(f) : A -> B``, which must be an
    algebra morphism again.  The conclusion only sees ``op(f)``, so each
    distinct image is decided once, and the run stops at the first failure,
    which the size order makes minimal.  A tuple whose hom-set cannot be
    enumerated is skipped and counted, and makes the verdict
    ``inconclusive`` unless a failure is found.
    """
    failures, cases, skipped = [], 0, 0
    pool = algebra_pool(model, b.monad, budget)
    for algs in itertools.product(pool, repeat=arity):
        algX, algA = algs[:2]
        src = algebra_tensor(model, b, algA, algX)
        algB, tgt, op = lift(*algs)
        fs = enumerate_algebra_morphisms(model, b.monad, src, tgt)
        if fs is None:
            skipped += 1  # hom-set beyond the enumeration cap
            continue
        decided = set()
        for f in fs:
            cases += 1
            g = op(f)
            if g.payload in decided:
                continue
            bad = _conclusion_failure(model, b, law, algs, algB, f, g)
            if bad:
                failures.append(bad)
                break
            decided.add(g.payload)
        if failures:
            break
    findings = ({"quantification": "exhaustive_with_skips",
                 "skipped_object_tuples": skipped} if skipped
                else {"quantification": "exhaustive"})
    return _finish(suite, model.name, cases, failures,
                   exhaustive_ok=not skipped, findings=findings)


def check_traced_monad(model: Model, b, budget: CaseBudget) -> CheckReport:
    """Traces of algebra morphisms must be algebra morphisms again.

    Exhaustive over algebra triples and algebra morphisms when the model
    enumerates hom-sets; otherwise sampled and refutation-sound only.
    """
    if not (model.traced and model.symmetric):
        raise CapabilityError("check_traced_monad needs a traced symmetric model")
    b = as_bimonad(b)
    suite = f"traced_monad[{b.name}]"
    if (_homs_enumerable(model)
            and (b.monad.algebra_source is None
                 or b.monad.algebra_source_complete)):

        def lift(algX, algA, algB):
            return (algB, algebra_tensor(model, b, algB, algX),
                    functools.partial(model.trace, algX.carrier,
                                      algA.carrier, algB.carrier))

        return _check_lifting(model, b, budget, suite,
                              "traced_monad_conclusion", 3, lift)

    if b.monad.algebra_source is None:
        raise CapabilityError(
            f"bundle {b.name!r} needs a registered algebra generator on "
            f"model {model.name!r}")
    failures, cases = [], 0
    pool = algebra_pool(model, b.monad, budget)
    for i in range(budget.cases):
        rng = _rng(budget, "traced_monad", i)
        algs = [pool[rng.randrange(len(pool))] for _ in range(3)]
        algX, algA, algB = algs
        src = algebra_tensor(model, b, algA, algX)
        tgt = algebra_tensor(model, b, algB, algX)
        for f in sample_algebra_morphisms(model, b, rng, src, tgt, k=1):
            cases += 1
            trf = model.trace(algX.carrier, algA.carrier, algB.carrier, f)
            bad = _conclusion_failure(model, b, "traced_monad_conclusion",
                                      algs, algB, f, trf)
            if bad:
                failures.append(bad)
    return _finish(suite, model.name, cases, failures,
                   findings={"quantification": "sampled_refutation_only"})


# ----------------------------------------------------------- trace coherence


def coherence_sides(model: Model, hopf: HopfBundle, A, B, X, f):
    """Inputs and both sides of the coherence equation.

    Here f : A (x) T(X) -> B (x) T(X).
    """
    TX = hopf.on_obj(X)
    lhs = hopf.on_mor(model.trace(TX, A, B, f))
    conj = model.seq(hopf.hl_inv(A, X), hopf.on_mor(f),
                     fusion_left(model, hopf, B, X))
    rhs = model.trace(TX, hopf.on_obj(A), hopf.on_obj(B), conj)
    return {"A": A, "B": B, "X": X, "f": f}, lhs, rhs


def check_trace_coherence(model: Model, hopf: HopfBundle,
                          budget: CaseBudget) -> CheckReport:
    """Trace and functor commute through the fusion-operator conjugation.

    Exhaustive over the size-sorted object pool when the model enumerates
    hom-sets; otherwise sampled and refutation-sound only.
    """
    if not (model.traced and model.symmetric):
        raise CapabilityError("check_trace_coherence needs a traced symmetric model")
    enumerable = _homs_enumerable(model)

    def homs(A, B, X):
        TX = hopf.on_obj(X)
        return ((model.tensor_obj(A, TX), model.tensor_obj(B, TX)),)

    spec = LawSpec("trace_coherence", 3,
                   functools.partial(coherence_sides, model, hopf), homs)
    report = _run_specs(model, budget, f"trace_coherence[{hopf.name}]",
                        (spec,), enumerable,
                        _size_sorted_objects(model, budget))
    if not enumerable:
        quantification = "sampled_refutation_only"
    elif report.findings:
        quantification = "exhaustive_with_skips"
    else:
        quantification = "exhaustive"
    report.findings = {"quantification": quantification, **report.findings}
    return report


def _agree(a, b):
    """Whether two verdicts agree; None when either is inconclusive."""
    if "inconclusive" in (a, b):
        return None
    return a == b


def crosscheck_main_theorem(model: Model, hopf: HopfBundle,
                            budget: CaseBudget) -> CheckReport:
    """Verdicts of the two characterisations must agree on Hopf bundles.

    Each side includes the Hopf-validity gate: being a traced symmetric Hopf
    monad on one hand, being a trace-coherent Hopf monad on the other.  A
    disagreement between the gated verdicts is reported as a library bug;
    an inconclusive side makes the report inconclusive.
    """
    from .monads import check_hopf

    gate = check_hopf(model, hopf, budget)
    traced = check_traced_monad(model, hopf.bimonad, budget)
    coherent = check_trace_coherence(model, hopf, budget)
    traced_side = traced.verdict if gate.passed else "fail"
    coherent_side = coherent.verdict if gate.passed else "fail"
    agree = _agree(traced_side, coherent_side)
    failures = []
    if agree is False:
        failures.append(Failure(
            "main_theorem_crosscheck_disagreement",
            {"traced_side": traced_side, "coherent_side": coherent_side,
             "traced_failures": traced.failures[:1],
             "coherence_failures": coherent.failures[:1]},
            model.identity(model.unit_obj()), model.identity(model.unit_obj())))
    cases = gate.cases_run + traced.cases_run + coherent.cases_run
    return _finish(f"mainthm_crosscheck[{hopf.name}]", model.name, cases,
                   failures, exhaustive_ok=agree is not None,
                   findings={"hopf_gate": gate.verdict,
                             "traced_monad": traced.verdict,
                             "trace_coherence": coherent.verdict,
                             "traced_side": traced_side,
                             "coherent_side": coherent_side,
                             "agree": agree})


# ------------------------------------------------- fixed-point reformulation


def fix_coherence_sides(model: Model, hopf: HopfBundle, A, X, f):
    """Inputs and both sides of the fixed-point form, f : A x T(X) -> T(X)."""
    TX = hopf.on_obj(X)
    lhs = model.compose(hopf.mu(X), hopf.on_mor(model.fix(TX, A, f)))
    inner = model.seq(hopf.hl_inv(A, X), hopf.on_mor(f), hopf.mu(X))
    rhs = model.fix(TX, hopf.on_obj(A), inner)
    return {"A": A, "X": X, "f": f}, lhs, rhs


def check_fix_coherence(model: Model, hopf: HopfBundle,
                        budget: CaseBudget) -> CheckReport:
    """Fixed-point form of coherence; verdict must match the trace form.

    When either form is inconclusive the two are not compared and a passing
    report becomes inconclusive.
    """
    if not (model.cartesian and model.has_conway and model.traced):
        raise CapabilityError("check_fix_coherence needs a traced cartesian "
                              "model with a fixed-point operator")

    def homs(A, X):
        TX = hopf.on_obj(X)
        return ((model.tensor_obj(A, TX), TX),)

    spec = LawSpec("fix_coherence", 2,
                   functools.partial(fix_coherence_sides, model, hopf), homs)
    report = _run_specs(model, budget, f"fix_coherence[{hopf.name}]",
                        (spec,), _homs_enumerable(model),
                        _size_sorted_objects(model, budget))
    other = check_trace_coherence(model, hopf, budget)
    matches = _agree(report.verdict, other.verdict)
    report.findings["matches_trace_coherence"] = matches
    if matches is False:
        report.failures.append(Failure(
            "fix_vs_trace_coherence_disagreement",
            {"fix": report.verdict, "trace": other.verdict},
            model.identity(model.unit_obj()), model.identity(model.unit_obj())))
        report.verdict = "fail"
    elif matches is None and report.verdict == "pass":
        report.verdict = "inconclusive"  # the trace form skipped hom-sets
    return report


def check_traced_via_fix(model: Model, b, budget: CaseBudget) -> CheckReport:
    """Fixed points of algebra morphisms must be algebra morphisms again."""
    if not (model.cartesian and model.has_conway and model.traced):
        raise CapabilityError("check_traced_via_fix needs a traced cartesian "
                              "model with a fixed-point operator")
    b = as_bimonad(b)

    def lift(algX, algA):
        return algX, algX, functools.partial(model.fix, algX.carrier,
                                             algA.carrier)

    return _check_lifting(model, b, budget, f"traced_via_fix[{b.name}]",
                          "fix_monad_conclusion", 2, lift)


# ------------------------------------------------------------ initial units


def cocartesian_corollary_check(model: Model, bundle,
                                budget: CaseBudget) -> CheckReport:
    """On models whose unit is initial: coherent iff idempotent.

    The biconditional presumes an actual symmetric Hopf monad, so the check
    first gates on the bimonad and Hopf law suites; when the gate fails the
    report records the computed sub-verdicts without forcing agreement.
    """
    from .monads import check_bimonad_laws, check_hopf, idempotence_suite

    if not model.cocartesian:
        raise CapabilityError("cocartesian_corollary_check needs a "
                              "cocartesian model")
    findings = {}
    failures = []
    cases = 0
    bi = check_bimonad_laws(model, bundle, budget)
    cases += bi.cases_run
    findings["bimonad_laws"] = bi.verdict
    idem = idempotence_suite(model, bundle, budget)
    cases += idem.cases_run
    findings["idempotent"] = idem.findings.get("idempotent")
    hopf_verdict = None
    coherent = None
    if isinstance(bundle, HopfBundle):
        hv = check_hopf(model, bundle, budget)
        cases += hv.cases_run
        hopf_verdict = hv.verdict
        co = check_trace_coherence(model, bundle, budget)
        cases += co.cases_run
        coherent = co.verdict
        findings["hopf_laws"] = hopf_verdict
        findings["trace_coherence"] = coherent
        applicable = bi.passed and hv.passed
        findings["corollary_applicable"] = applicable
        if applicable:
            agree = _agree(coherent,
                           "pass" if findings["idempotent"] else "fail")
            findings["corollary_agrees"] = agree
            if agree is False:
                failures.append(Failure(
                    "cocartesian_corollary",
                    {"coherent": coherent, "idempotent": findings["idempotent"]},
                    model.identity(model.unit_obj()),
                    model.identity(model.unit_obj())))
    else:
        findings["corollary_applicable"] = False
    return _finish(f"cocartesian_corollary[{as_bimonad(bundle).name}]",
                   model.name, cases, failures,
                   exhaustive_ok=coherent != "inconclusive",
                   findings=findings)


# ------------------------------------------------------------- free algebras


def free_extension_agrees(model: Model, monad: MonadBundle, A,
                          tgt: TAlgebra) -> bool:
    """Morphisms out of a free algebra agree iff they agree after eta.

    Checked by enumeration; only available on enumerable models.
    """
    free = free_algebra(model, monad, A)
    morphs = enumerate_algebra_morphisms(model, monad, free, tgt)
    if morphs is None:
        raise CapabilityError("free_extension_agrees needs enumerable homs")
    for f, g in itertools.combinations(morphs, 2):
        fe = model.compose(f, monad.eta(A))
        ge = model.compose(g, monad.eta(A))
        if model.mor_eq(fe, ge) and not model.mor_eq(f, g):
            return False
    return True
