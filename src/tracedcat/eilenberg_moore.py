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

from .core import (BoundaryError, CapabilityError, HomSet, ModelMismatchError,
                   Morphism)
from .laws import (CaseBudget, CheckReport, LawSpec, Recorder,
                   _homs_enumerable, _rng, _run_specs, _size_sorted_objects)
from .monads import (HopfBundle, MonadBundle, check_bimonad_laws, check_hopf,
                     fusion_left, idempotence_suite)


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


def algebra_law_failures(monad: MonadBundle, alg: TAlgebra):
    model = monad.model
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


def is_algebra(monad, alg) -> bool:
    return not algebra_law_failures(monad, alg)


def validate_algebra(monad, alg) -> TAlgebra:
    bad = algebra_law_failures(monad, alg)
    if bad:
        law, lhs, rhs = bad[0]
        raise AlgebraLawError(law, alg, lhs, rhs)
    return alg


def algebra_morphism_sides(monad, src: TAlgebra, tgt: TAlgebra,
                           f: Morphism):
    """Both sides ``f o a`` and ``b o T(f)`` of the equation that makes
    ``f`` an algebra morphism from ``src = (A, a)`` to ``tgt = (B, b)``."""
    model = monad.model
    return (model.compose(f, src.action),
            model.compose(tgt.action, monad.on_mor(f)))


def is_algebra_morphism(monad, src: TAlgebra, tgt: TAlgebra,
                        f: Morphism) -> bool:
    return monad.model.mor_eq(*algebra_morphism_sides(monad, src, tgt, f))


def free_algebra(monad: MonadBundle, A) -> TAlgebra:
    return TAlgebra(monad.on_obj(A), monad.mu(A))


def unit_algebra(b) -> TAlgebra:
    return validate_algebra(b, TAlgebra(b.model.unit_obj(), b.m_unit))


def algebra_tensor(b, left: TAlgebra, right: TAlgebra) -> TAlgebra:
    """(A, a) (x) (B, b) carried by A (x) B with action (a (x) b) o m."""
    model = b.model
    A, B = left.carrier, right.carrier
    action = model.compose(model.tensor(left.action, right.action), b.m(A, B))
    return validate_algebra(b, TAlgebra(model.tensor_obj(A, B), action))


# --------------------------------------------------------------- enumeration


def enumerate_algebras(monad: MonadBundle, A) -> list:
    """Every algebra structure on carrier A.

    Enumerated from ``Hom(T(A), A)`` where that hom-set enumerates; the
    bundle's ``algebra_source`` is consulted only where it is declined.
    """
    model = monad.model
    homs = model.enumerate_hom(monad.on_obj(A), A)
    if homs is not None:
        return [TAlgebra(A, a) for a in homs
                if is_algebra(monad, TAlgebra(A, a))]
    if monad.algebra_source is None:
        raise CapabilityError(
            f"model {model.name!r} has no hom enumerator and bundle "
            f"{monad.name!r} registered no algebra generator")
    return [alg for alg in monad.algebra_source(A) if alg.carrier == A]


def algebra_pool(monad: MonadBundle, budget: CaseBudget) -> list:
    """Algebras over every object in the budgeted pool, size-ordered."""
    pool = []
    for A in _size_sorted_objects(monad.model, budget):
        pool.extend(enumerate_algebras(monad, A))
    return pool


def enumerate_algebra_morphisms(monad: MonadBundle, src: TAlgebra,
                                tgt: TAlgebra):
    """All algebra morphisms src -> tgt as one HomSet ``src.carrier ->
    tgt.carrier``, or None; an ``algmor_enumerator`` hook returns the same."""
    if monad.algmor_enumerator is not None:
        out = monad.algmor_enumerator(src, tgt)
        if out is not None:
            if not isinstance(out, HomSet) or out.model != monad.model.name:
                raise ModelMismatchError(f"algmor_enumerator of {monad.name!r}"
                                         f" gave no {monad.model.name!r} HomSet")
            if out.dom != src.carrier or out.cod != tgt.carrier:
                raise BoundaryError(f"algmor_enumerator of {monad.name!r} gave"
                                    f" a HomSet {out.dom!r} -> {out.cod!r}")
            # the primitives trust a HomSet's payloads: check them once here
            check = monad.model.check_payload
            for payload in out.payloads:
                check(out.dom, out.cod, payload)
            return out
    homs = monad.model.enumerate_hom(src.carrier, tgt.carrier)
    if homs is None:
        return None
    return HomSet(monad.model.name, src.carrier, tgt.carrier,
                  [f.payload for f in homs
                   if is_algebra_morphism(monad, src, tgt, f)])


def sample_algebra_morphisms(b, rng, src: TAlgebra, tgt: TAlgebra) -> list:
    """[f] for one sampled algebra morphism f: src -> tgt, [] if none."""
    if b.algmor_sampler is not None:
        return [b.algmor_sampler(rng, src, tgt)]
    found = enumerate_algebra_morphisms(b, src, tgt)
    if found is None:
        raise CapabilityError(
            f"bundle {b.name!r} has neither an algebra-morphism sampler nor "
            f"an enumerable hom-set")
    if not found:
        return []
    return [found[rng.randrange(len(found))]]


# ------------------------------------------------------- traced-monad checker


def _witness(algs, f):
    """The inputs of a lifting case: the algebras ``(X, A)`` or
    ``(X, A, B)`` it ranges over and the premise morphism ``f``."""
    inputs = {}
    for name, alg in zip("XAB", algs):
        inputs[name] = alg.carrier
        inputs[name.lower()] = alg.action
    inputs["f"] = f
    return inputs


def _first_failure(b, algA, algB, images, decided):
    """The first distinct image, in first-seen order, that is no algebra
    morphism ``algA -> algB``, with both sides, or None.  ``decided``, the
    memo of ``(algA, algB)``, maps an image already decided to None or to
    ``(g, lhs, rhs)``; only the sides of an image it lacks are evaluated."""
    model = b.model
    for g in dict.fromkeys(images.payloads):
        if g not in decided:
            lhs, rhs = algebra_morphism_sides(b, algA, algB, Morphism(
                images.model, images.dom, images.cod, g))
            decided[g] = None if model.mor_eq(lhs, rhs) else (g, lhs, rhs)
        if decided[g] is not None:
            return decided[g]
    return None


def _check_lifting(b, budget: CaseBudget, suite, law, arity, lift,
                   components=None) -> CheckReport:
    """Exhaustive lifting loop of the traced and fixed-point checkers.

    For every size-ordered tuple ``(X, A, ...)`` of ``arity`` algebras,
    ``lift(tensor, X, A, ...)``, with ``tensor`` the run's cached
    :func:`algebra_tensor`, gives ``(B, tgt, op)``: the HomSet ``fs`` of every
    algebra morphism ``f : A (x) X -> tgt`` is sent at once to the HomSet
    ``op(fs)`` of the images ``A -> B``, in order, and each must be an
    algebra morphism again.  Each ``f`` is one case, but the conclusion
    only sees its image, so each distinct image is decided once per pair
    ``(A, B)``, in first-seen order, by a memo that both paths share and
    that lives until the call returns; it is keyed by the identity of the
    pool's algebras, which is cheaper than hashing them.  The run stops
    at the first failure, which the size
    order makes minimal: its hom-set counts the cases up to the first
    ``f`` with the failing image, and that ``f`` is the witness, as if
    each ``f`` had been checked alone; a witness that is not an algebra
    morphism is kept as an ``algebra_morphism_premise`` failure.  A tuple
    whose hom-set cannot be enumerated is skipped and counted, and makes
    the verdict ``inconclusive`` unless a failure is found.

    ``components(src, tgt, X, A, ...)``, where given, may decide a tuple
    without its joint hom-set: it returns None to leave the tuple to the
    joint path, or ``(n, images)``, the number of cases and the HomSet of
    every distinct image (None for a declined hom-set).  A tuple whose
    images all pass adds ``n`` cases; one with a failing image is replayed
    on its joint hom-set, so its count and witness are the joint path's.
    """
    model = b.model
    rec, skipped = Recorder(model), 0
    pool = algebra_pool(b, budget)
    tensor = functools.cache(functools.partial(algebra_tensor, b))
    memos = {}
    for algs in itertools.product(pool, repeat=arity):
        algX, algA = algs[:2]
        src = tensor(algA, algX)
        algB, tgt, op = lift(tensor, *algs)
        decided = memos.setdefault((id(algA), id(algB)), {})
        by_component = components and components(src, tgt, *algs)
        if by_component:
            n, images = by_component
            if images is None:
                skipped += 1  # a component hom-set beyond the cap
                continue
            if _first_failure(b, algA, algB, images, decided) is None:
                rec.cases += n
                continue
        fs = enumerate_algebra_morphisms(b, src, tgt)
        if fs is None:
            skipped += 1  # hom-set beyond the enumeration cap
            continue
        images = op(fs)
        failure = _first_failure(b, algA, algB, images, decided)
        if failure is None:
            rec.cases += len(fs)
            continue
        g, lhs, rhs = failure
        k = images.payloads.index(g)   # the first f with this image
        rec.cases += k + 1
        witness = _witness(algs, fs[k])
        # the conclusion fails only where its premise holds
        if rec.check("algebra_morphism_premise", witness,
                     *algebra_morphism_sides(b, src, tgt, fs[k]),
                     count=False):
            rec.fail(law, witness, lhs, rhs)
        break
    findings = ({"quantification": "exhaustive_with_skips",
                 "skipped_object_tuples": skipped} if skipped
                else {"quantification": "exhaustive"})
    return rec.finish(suite, exhaustive_ok=not skipped, findings=findings)


def _product_components(b):
    """The component path of the exhaustive traced-monad check on a
    cartesian model with fixed points, or None elsewhere.

    Its product gate asks whether ``B (x) X`` carries the product algebra,
    ``<a_B o T p_B, a_X o T p_X>``; a triple that fails it is left to the
    joint path.  Where it holds, the algebra morphisms ``f : A (x) X ->
    B (x) X`` are the pairs ``<f_B, f_X>`` of algebra morphisms into each
    factor (as ``T`` preserves composition), and the trace of one is ``f_B o <1, fix f_X>`` (the trace of a
    Conway operator), so it sees ``f_X`` only through its fixed point.
    Every ``f_B`` is paired with one ``f_X`` per distinct fixed point, and
    the model traces the pairs in one call: that gives every image of the
    joint hom-set, whose ``|Alg(A (x) X, B)| * |Alg(A (x) X, X)|`` maps
    are the cases.  A declined component hom-set skips the triple.  The
    gate depends on ``(B, X)`` alone and the ``f_X`` side on ``(X, A)``, so
    each is worked out once per pair.
    """
    model = b.model
    if not (model.cartesian and model.has_conway):
        return None

    @functools.cache
    def is_product(tgt, algB, algX):
        B, X = algB.carrier, algX.carrier
        return tgt.action == model.pair(
            model.compose(algB.action, b.on_mor(model.proj0(B, X))),
            model.compose(algX.action, b.on_mor(model.proj1(B, X))))

    @functools.cache
    def by_fixed_point(src, algX, algA):
        """``|Alg(A (x) X, X)|`` and one ``f_X`` per fixed point, or None."""
        fxs = enumerate_algebra_morphisms(b, src, algX)
        if fxs is None:
            return None
        fixes = model.fix(algX.carrier, algA.carrier, fxs)
        return len(fxs), list(dict(zip(fixes.payloads, fxs.payloads)).values())

    def components(src, tgt, algX, algA, algB):
        if not is_product(tgt, algB, algX):
            return None
        fixed = by_fixed_point(src, algX, algA)
        fbs = enumerate_algebra_morphisms(b, src, algB)
        if fixed is None or fbs is None:
            return 0, None
        n_x, reps = fixed
        pairs = model.pair(
            HomSet(model.name, src.carrier, algB.carrier,
                   [f for f in fbs.payloads for _ in reps]),
            HomSet(model.name, src.carrier, algX.carrier, reps * len(fbs)))
        return (len(fbs) * n_x,
                model.trace(algX.carrier, algA.carrier, algB.carrier, pairs))

    return components


def check_traced_monad(b, budget: CaseBudget) -> CheckReport:
    """Traces of algebra morphisms must be algebra morphisms again.

    Exhaustive over algebra triples and algebra morphisms when the model
    enumerates hom-sets; on a cartesian model with fixed points, a triple
    whose target passes the product gate of :func:`_product_components` is
    decided one product component at a time, and replayed on its joint
    hom-set only if an image fails.  Otherwise sampled over the bundle's
    registered algebras and refutation-sound only, each sampled ``f`` one
    case whose premise (``f`` is an algebra morphism) is checked before its
    trace.
    """
    model = b.model
    if not model.traced:
        raise CapabilityError("check_traced_monad needs a traced model")
    suite = f"traced_monad[{b.name}]"
    if _homs_enumerable(model):
        def lift(tensor, algX, algA, algB):
            return (algB, tensor(algB, algX),
                    functools.partial(model.trace, algX.carrier,
                                      algA.carrier, algB.carrier))

        return _check_lifting(b, budget, suite, "traced_monad_conclusion",
                              3, lift, _product_components(b))

    rec = Recorder(model)
    pool = algebra_pool(b, budget)
    tensor = functools.cache(functools.partial(algebra_tensor, b))
    for i in range(budget.cases):
        rng = _rng(budget, "traced_monad", i)
        algs = [pool[rng.randrange(len(pool))] for _ in range(3)]
        algX, algA, algB = algs
        src = tensor(algA, algX)
        tgt = tensor(algB, algX)
        for f in sample_algebra_morphisms(b, rng, src, tgt):
            # one case: the premise, then the conclusion it licenses
            witness = _witness(algs, f)
            if not rec.check("algebra_morphism_premise", witness,
                             *algebra_morphism_sides(b, src, tgt, f)):
                continue
            trf = model.trace(algX.carrier, algA.carrier, algB.carrier, f)
            rec.check("traced_monad_conclusion", witness,
                      *algebra_morphism_sides(b, algA, algB, trf),
                      count=False)
    return rec.finish(suite,
                      findings={"quantification": "sampled_refutation_only"})


# ----------------------------------------------------------- trace coherence


def coherence_sides(hopf: HopfBundle, A, B, X, f):
    """The coherence equation as a one-element ``(law, inputs, lhs, rhs)``
    list.

    Here f : A (x) T(X) -> B (x) T(X).
    """
    model = hopf.model
    TX = hopf.on_obj(X)
    lhs = hopf.on_mor(model.trace(TX, A, B, f))
    conj = model.seq(hopf.hl_inv(A, X), hopf.on_mor(f),
                     fusion_left(hopf, B, X))
    rhs = model.trace(TX, hopf.on_obj(A), hopf.on_obj(B), conj)
    return [("trace_coherence", {"A": A, "B": B, "X": X, "f": f}, lhs, rhs)]


def check_trace_coherence(hopf: HopfBundle, budget: CaseBudget) -> CheckReport:
    """Trace and functor commute through the fusion-operator conjugation.

    Exhaustive over the size-sorted object pool when the model enumerates
    hom-sets; otherwise sampled and refutation-sound only.
    """
    model = hopf.model
    if not model.traced:
        raise CapabilityError("check_trace_coherence needs a traced model")
    enumerable = _homs_enumerable(model)

    def homs(A, B, X):
        TX = hopf.on_obj(X)
        return ((model._tensor_obj(A, TX), model._tensor_obj(B, TX)),)

    spec = LawSpec("trace_coherence", 3,
                   functools.partial(coherence_sides, hopf), homs)
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


def crosscheck_main_theorem(hopf: HopfBundle,
                            budget: CaseBudget) -> CheckReport:
    """Verdicts of the two characterisations must agree on Hopf bundles.

    Each side includes the Hopf-validity gate: being a traced symmetric Hopf
    monad on one hand, being a trace-coherent Hopf monad on the other.  A
    disagreement between the gated verdicts is reported as a library bug;
    an inconclusive side makes the report inconclusive.
    """
    model = hopf.model
    gate = check_hopf(hopf, budget)
    traced = check_traced_monad(hopf, budget)
    coherent = check_trace_coherence(hopf, budget)
    traced_side = traced.verdict if gate.passed else "fail"
    coherent_side = coherent.verdict if gate.passed else "fail"
    agree = _agree(traced_side, coherent_side)
    rec = Recorder(model,
                   gate.cases_run + traced.cases_run + coherent.cases_run)
    if agree is False:
        rec.fail("main_theorem_crosscheck_disagreement",
                 {"traced_side": traced_side, "coherent_side": coherent_side,
                  "traced_failures": traced.failures[:1],
                  "coherence_failures": coherent.failures[:1]})
    return rec.finish(f"mainthm_crosscheck[{hopf.name}]",
                      exhaustive_ok=agree is not None,
                      findings={"hopf_gate": gate.verdict,
                                "traced_monad": traced.verdict,
                                "trace_coherence": coherent.verdict,
                                "traced_side": traced_side,
                                "coherent_side": coherent_side,
                                "agree": agree})


# ------------------------------------------------- fixed-point reformulation


def fix_coherence_sides(hopf: HopfBundle, A, X, f):
    """The fixed-point form as a one-element ``(law, inputs, lhs, rhs)``
    list; here f : A x T(X) -> T(X)."""
    model = hopf.model
    TX = hopf.on_obj(X)
    lhs = model.compose(hopf.mu(X), hopf.on_mor(model.fix(TX, A, f)))
    inner = model.seq(hopf.hl_inv(A, X), hopf.on_mor(f), hopf.mu(X))
    rhs = model.fix(TX, hopf.on_obj(A), inner)
    return [("fix_coherence", {"A": A, "X": X, "f": f}, lhs, rhs)]


def check_fix_coherence(hopf: HopfBundle, budget: CaseBudget) -> CheckReport:
    """Fixed-point form of coherence; verdict must match the trace form.

    When either form is inconclusive the two are not compared and a passing
    report becomes inconclusive.
    """
    model = hopf.model
    if not (model.cartesian and model.has_conway and model.traced):
        raise CapabilityError("check_fix_coherence needs a traced cartesian "
                              "model with a fixed-point operator")

    def homs(A, X):
        TX = hopf.on_obj(X)
        return ((model._tensor_obj(A, TX), TX),)

    spec = LawSpec("fix_coherence", 2,
                   functools.partial(fix_coherence_sides, hopf), homs)
    report = _run_specs(model, budget, f"fix_coherence[{hopf.name}]",
                        (spec,), _homs_enumerable(model),
                        _size_sorted_objects(model, budget))
    other = check_trace_coherence(hopf, budget)
    matches = _agree(report.verdict, other.verdict)
    rec = Recorder(model, report.cases_run, report.failures)
    if matches is False:
        rec.fail("fix_vs_trace_coherence_disagreement",
                 {"fix": report.verdict, "trace": other.verdict})
    # a pass is inconclusive when the trace form skipped hom-sets
    return rec.finish(report.suite,
                      exhaustive_ok=report.passed and matches is not None,
                      findings=dict(report.findings,
                                    matches_trace_coherence=matches))


def check_traced_via_fix(b, budget: CaseBudget) -> CheckReport:
    """Fixed points of algebra morphisms must be algebra morphisms again."""
    model = b.model
    if not (model.cartesian and model.has_conway and model.traced):
        raise CapabilityError("check_traced_via_fix needs a traced cartesian "
                              "model with a fixed-point operator")

    def lift(_tensor, algX, algA):
        X, A = algX.carrier, algA.carrier
        return algX, algX, lambda fs: model.fix(X, A, fs)

    return _check_lifting(b, budget, f"traced_via_fix[{b.name}]",
                          "fix_monad_conclusion", 2, lift)


# ------------------------------------------------------------ initial units


def cocartesian_corollary_check(bundle, budget: CaseBudget) -> CheckReport:
    """On models whose unit is initial: coherent iff idempotent.

    The biconditional presumes an actual symmetric Hopf monad, so the check
    first gates on the bimonad and Hopf law suites; when the gate fails the
    report records the computed sub-verdicts without forcing agreement.
    """
    model = bundle.model
    if not model.cocartesian:
        raise CapabilityError("cocartesian_corollary_check needs a "
                              "cocartesian model")
    findings = {}
    rec = Recorder(model)
    bi = check_bimonad_laws(bundle, budget)
    rec.cases += bi.cases_run
    findings["bimonad_laws"] = bi.verdict
    idem = idempotence_suite(bundle, budget)
    rec.cases += idem.cases_run
    findings["idempotent"] = idem.findings.get("idempotent")
    coherent = None
    if isinstance(bundle, HopfBundle):
        hv = check_hopf(bundle, budget)
        rec.cases += hv.cases_run
        co = check_trace_coherence(bundle, budget)
        rec.cases += co.cases_run
        coherent = co.verdict
        findings["hopf_laws"] = hv.verdict
        findings["trace_coherence"] = coherent
        applicable = bi.passed and hv.passed
        findings["corollary_applicable"] = applicable
        if applicable:
            agree = _agree(coherent,
                           "pass" if findings["idempotent"] else "fail")
            findings["corollary_agrees"] = agree
            if agree is False:
                rec.fail("cocartesian_corollary",
                         {"coherent": coherent,
                          "idempotent": findings["idempotent"]})
    else:
        findings["corollary_applicable"] = False
    return rec.finish(f"cocartesian_corollary[{bundle.name}]",
                      exhaustive_ok=coherent != "inconclusive",
                      findings=findings)


# ------------------------------------------------------------- free algebras


def free_extension_agrees(monad: MonadBundle, A, tgt: TAlgebra) -> bool:
    """Morphisms out of a free algebra agree iff they agree after eta.

    Checked by enumeration; only available on enumerable models.
    """
    model = monad.model
    free = free_algebra(monad, A)
    morphs = enumerate_algebra_morphisms(monad, free, tgt)
    if morphs is None:
        raise CapabilityError("free_extension_agrees needs enumerable homs")
    for f, g in itertools.combinations(morphs, 2):
        fe = model.compose(f, monad.eta(A))
        ge = model.compose(g, monad.eta(A))
        if model.mor_eq(fe, ge) and not model.mor_eq(f, g):
            return False
    return True
