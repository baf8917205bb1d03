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
from operator import itemgetter

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


def _sample_lifting(b, rec, rng, tensor, algX, algA, algB, law, witness):
    """One sampled draw of a lifting statement: each sampled algebra
    morphism ``f : A (x) X -> B (x) X`` is one case, its premise checked
    before the conclusion ``law`` (its trace is an algebra morphism ``A ->
    B``); a failure keeps ``witness(f)`` as its inputs."""
    src, tgt = tensor(algA, algX), tensor(algB, algX)
    for f in sample_algebra_morphisms(b, rng, src, tgt):
        inputs = witness(f)
        if rec.check("algebra_morphism_premise", inputs,
                     *algebra_morphism_sides(b, src, tgt, f)):
            trf = b.model.trace(algX.carrier, algA.carrier, algB.carrier, f)
            rec.check(law, inputs, *algebra_morphism_sides(b, algA, algB, trf),
                      count=False)


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


def _by_identity(fn):
    """``fn`` memoised on its arguments' identity; they must outlive it."""
    memo = {}
    def cached(*args):
        key = tuple(map(id, args))
        return memo[key] if key in memo else memo.setdefault(key, fn(*args))

    return cached


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
    ``(A, B)``, in first-seen order, by a memo that both paths share, that
    lives until the call returns and that is keyed, like ``tensor``, by the
    identity of the pool's algebras.  The run stops at the first failure,
    which the size order makes minimal: its hom-set counts the cases up to
    the first ``f`` with the failing image, and that ``f`` is the witness,
    as if each ``f`` had been checked alone; a witness that is not an
    algebra morphism is kept as an ``algebra_morphism_premise`` failure.  A
    tuple whose hom-set cannot be enumerated is skipped, and counted in the
    :class:`~tracedcat.laws.Recorder`.

    ``components(src, tgt, X, A, ...)``, where given, may decide a tuple
    without its joint hom-set: it returns None to leave the tuple to the
    joint path, or ``(n, images)``, the number of cases and a HomSet that
    holds every distinct image (None for a declined hom-set).  A tuple whose
    images all pass adds ``n`` cases; one with a failing image is replayed
    on its joint hom-set, so its count and witness are the joint path's.
    """
    model = b.model
    rec = Recorder(model)
    pool = algebra_pool(b, budget)
    tensor = _by_identity(functools.partial(algebra_tensor, b))
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
                rec.skipped += 1  # a component hom-set beyond the cap
                continue
            if _first_failure(b, algA, algB, images, decided) is None:
                rec.cases += n
                continue
        fs = enumerate_algebra_morphisms(b, src, tgt)
        if fs is None:
            rec.skipped += 1  # hom-set beyond the enumeration cap
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
    return rec.finish(suite, {"quantification": "exhaustive_with_skips"
                              if rec.skipped else "exhaustive"})


def _product_components(b):
    """The component path of the exhaustive traced-monad check on a
    cartesian model with fixed points, or None elsewhere.

    Its product gate asks whether ``B (x) X`` carries the product algebra,
    ``<a_B o T p_B, a_X o T p_X>``; a triple that fails it is left to the
    joint path.  Where it holds, the algebra morphisms ``f : A (x) X ->
    B (x) X`` are the pairs ``<f_B, f_X>`` of algebra morphisms into each
    factor (as ``T`` preserves composition), and the trace of one, ``f_B o
    <1, fix f_X>`` (a Conway operator's), reads ``f_B`` only on the graph
    ``a * |X| + fix f_X (a)`` of its table.  So one ``f_X`` per fixed point
    is traced with one ``f_B`` per restriction to its graph, in one call:
    that gives every image of the joint hom-set, whose ``|Alg(A (x) X, B)|
    * |Alg(A (x) X, X)|`` maps are the cases.  A declined component hom-set
    skips the triple.  The gate depends on ``(B, X)`` alone and the ``f_X``
    side on ``(X, A)``, so each is worked out once per pair.
    """
    model = b.model
    if not (model.cartesian and model.has_conway):
        return None

    @_by_identity
    def is_product(tgt, algB, algX):
        B, X = algB.carrier, algX.carrier
        return tgt.action == model.pair(
            model.compose(algB.action, b.on_mor(model.proj0(B, X))),
            model.compose(algX.action, b.on_mor(model.proj1(B, X))))

    @_by_identity
    def by_fixed_point(src, algX, algA):
        """``|Alg(A (x) X, X)|``, ``(graph, f_X)`` per fixed point, or None."""
        fxs = enumerate_algebra_morphisms(b, src, algX)
        if fxs is None:
            return None
        fixes = model.fix(algX.carrier, algA.carrier, fxs).payloads
        nx = algX.carrier.size
        return len(fxs), [
            (itemgetter(*[a * nx + x for a, x in enumerate(phi)]), f_x)
            for phi, f_x in dict(zip(fixes, fxs.payloads)).items()]

    def components(src, tgt, algX, algA, algB):
        if not is_product(tgt, algB, algX):
            return None
        fixed = by_fixed_point(src, algX, algA)
        fbs = enumerate_algebra_morphisms(b, src, algB)
        if fixed is None or fbs is None:
            return 0, None
        f_bs, f_xs = [], []
        for on_graph, f_x in fixed[1]:
            kept = dict(zip(map(on_graph, fbs.payloads), fbs.payloads))
            f_bs += kept.values()
            f_xs += [f_x] * len(kept)
        pairs = model.pair(HomSet(model.name, src.carrier, algB.carrier, f_bs),
                           HomSet(model.name, src.carrier, algX.carrier, f_xs))
        return (len(fbs) * fixed[0],
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
    tensor = _by_identity(functools.partial(algebra_tensor, b))
    for i in range(budget.cases):
        rng = _rng(budget, "traced_monad", i)
        algs = [pool[rng.randrange(len(pool))] for _ in range(3)]
        _sample_lifting(b, rec, rng, tensor, *algs, "traced_monad_conclusion",
                        functools.partial(_witness, algs))
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
    rec = Recorder(model,
                   gate.cases_run + traced.cases_run + coherent.cases_run)
    agree = rec.agree(
        "main_theorem_crosscheck_disagreement", traced_side, coherent_side,
        {"traced_side": traced_side, "coherent_side": coherent_side,
         "traced_failures": traced.failures[:1],
         "coherence_failures": coherent.failures[:1]})
    return rec.finish(f"mainthm_crosscheck[{hopf.name}]",
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
    """Fixed-point form of coherence; its verdict must match the trace
    form's, as :meth:`~tracedcat.laws.Recorder.agree` compares them."""
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
    rec = Recorder(model)
    rec.fold(report)
    matches = rec.agree("fix_vs_trace_coherence_disagreement",
                        report.verdict, other.verdict,
                        {"fix": report.verdict, "trace": other.verdict})
    return rec.finish(report.suite, dict(report.findings,
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
    if isinstance(bundle, HopfBundle):
        hv = check_hopf(bundle, budget)
        rec.cases += hv.cases_run
        co = check_trace_coherence(bundle, budget)
        rec.cases += co.cases_run
        coherent = co.verdict
        rec.covered = coherent != "inconclusive"  # applicable or not
        findings["hopf_laws"] = hv.verdict
        findings["trace_coherence"] = coherent
        applicable = bi.passed and hv.passed
        findings["corollary_applicable"] = applicable
        if applicable:
            findings["corollary_agrees"] = rec.agree(
                "cocartesian_corollary", coherent,
                "pass" if findings["idempotent"] else "fail",
                {"coherent": coherent, "idempotent": findings["idempotent"]})
    else:
        findings["corollary_applicable"] = False
    return rec.finish(f"cocartesian_corollary[{bundle.name}]", findings)


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
