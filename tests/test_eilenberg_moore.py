import dataclasses
import functools
import itertools

import pytest

from tracedcat.core import (CapabilityError, HomSet, Model,
                            ModelMismatchError, Morphism)
from tracedcat.hopf_monoid import (algebra_from_rep, group_representations,
                                   group_table_c2)
from tracedcat.laws import CaseBudget
from tracedcat.model_iter import PfnModel, pfn_model
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import (BoundedPosetModel, FinCppoModel,
                                   fincppo_model, poset_from_pairs,
                                   poset_product, sierpinski,
                                   sigma_join_bimonad, sigma_meet_bimonad)
from tracedcat import eilenberg_moore
from tracedcat.monads import identity_hopf_bundle
from tracedcat.eilenberg_moore import (AlgebraLawError, TAlgebra,
                                       algebra_morphism_sides, algebra_pool,
                                       algebra_tensor, check_fix_coherence,
                                       check_trace_coherence,
                                       check_traced_monad,
                                       check_traced_via_fix,
                                       cocartesian_corollary_check,
                                       crosscheck_main_theorem,
                                       enumerate_algebra_morphisms,
                                       enumerate_algebras, free_algebra,
                                       free_extension_agrees,
                                       is_algebra_morphism, unit_algebra,
                                       validate_algebra)

BUDGET = CaseBudget(seed=13, cases=30, max_object_size=3)
SMALL = CaseBudget(seed=13, cases=15, max_object_size=2)


def test_free_algebra_examples(mat, qc2, nbundle):
    ident = identity_hopf_bundle(mat)
    fa = free_algebra(ident, 3)
    assert fa.carrier == 3 and mat.mor_eq(fa.action, mat.identity(3))

    fq = free_algebra(qc2, 1)
    assert fq.carrier == 2
    assert dense_rows(fq.action) == ((1, 0, 0, 1), (0, 1, 1, 0))

    fn = free_algebra(nbundle, -3)
    assert fn.carrier == 0 and fn.action == nbundle.model.arrow(0, 0)


def test_algebra_validation(mat, qc2):
    good = free_algebra(qc2, 1)
    validate_algebra(qc2, good)
    # passes the unit law but not the multiplication law
    bad = TAlgebra(1, mat.morphism(2, 1, [[1, 2]]))
    with pytest.raises(AlgebraLawError) as err:
        validate_algebra(qc2, bad)
    assert err.value.law == "algebra_mult"


def test_sign_tensor_sign_is_trivial(mat, qc2):
    table = group_table_c2()
    reps = group_representations(table)
    sign = algebra_from_rep(mat, table, reps["sign"])
    trivial = algebra_from_rep(mat, table, reps["trivial"])
    tensor = algebra_tensor(qc2, sign, sign)
    assert tensor.carrier == 1
    assert dense_rows(tensor.action) == dense_rows(trivial.action)


def test_unit_algebra(mat, qc2):
    unit = unit_algebra(identity_hopf_bundle(mat))
    assert unit.carrier == 1 and mat.mor_eq(unit.action, mat.identity(1))
    unit_algebra(qc2)  # validates on construction


def test_enumerate_algebras_on_truncation(nbundle):
    assert len(enumerate_algebras(nbundle, 5)) == 1
    (alg,) = enumerate_algebras(nbundle, 5)
    assert alg.action == nbundle.model.arrow(5, 5)
    assert enumerate_algebras(nbundle, -5) == []


def test_idempotent_algebra_uniqueness(nbundle):
    # at most one structure per carrier; exactly one iff the unit inverts
    for n in range(-6, 7):
        algs = enumerate_algebras(nbundle, n)
        eta_invertible = nbundle.model.invert(nbundle.eta(n)) is not None
        assert len(algs) <= 1
        assert (len(algs) == 1) == eta_invertible


def test_enumerate_algebras_needs_source_on_mat(mat, qc2):
    from tracedcat.monads import MonadBundle

    bare = MonadBundle(mat, "bare", qc2.on_obj, qc2.on_mor, qc2.mu, qc2.eta)
    with pytest.raises(CapabilityError):
        enumerate_algebras(bare, 1)
    assert len(enumerate_algebras(qc2, 1)) == 2  # trivial + sign


def test_algebra_morphism_witness(mat, qc2):
    table = group_table_c2()
    reps = group_representations(table)
    sign = algebra_from_rep(mat, table, reps["sign"])
    assert is_algebra_morphism(qc2, sign, sign, mat.identity(1))
    regular = algebra_from_rep(mat, table, reps["regular"])
    skew = mat.morphism(2, 2, [[1, 2], [3, 4]])
    assert not is_algebra_morphism(qc2, regular, regular, skew)


def test_free_extension_property(fincppo, nbundle):
    for carrier in (2, 5):
        target = enumerate_algebras(nbundle, carrier)[0]
        assert free_extension_agrees(nbundle, -1, target)
    from tracedcat.model_order import sierpinski, sigma_meet_bimonad
    meet = sigma_meet_bimonad(fincppo)
    for tgt in enumerate_algebras(meet, sierpinski()):
        assert free_extension_agrees(meet, sierpinski(), tgt)


def test_averaged_samples_are_algebra_morphisms(qc2, qs3):
    import random

    from tracedcat.eilenberg_moore import sample_algebra_morphisms

    rng = random.Random(31)
    for bundle in (qc2, qs3):
        pool = [alg for dim in (1, 2)
                for alg in enumerate_algebras(bundle, dim)]
        for _ in range(10):
            a, b, x = (pool[rng.randrange(len(pool))] for _ in range(3))
            src = algebra_tensor(bundle, a, x)
            tgt = algebra_tensor(bundle, b, x)
            # two draws from the same rng
            for _ in range(2):
                for f in sample_algebra_morphisms(bundle, rng, src, tgt):
                    assert is_algebra_morphism(bundle, src, tgt, f)


def test_traced_monad_checks(nbundle, qc2):
    window = CaseBudget(seed=1, cases=20, max_object_size=6)
    assert check_traced_monad(nbundle, window).passed
    assert check_traced_monad(qc2, BUDGET).passed


def test_exhaustive_traced_monad_traces_through_the_model(fincppo,
                                                         monkeypatch):
    # one public Model.trace call per algebra triple, on one HomSet: the
    # span perfbench's traced run requires on the exhaustive workload.  On
    # fin_cppo every triple takes the component path, whose HomSet pairs
    # one f_X per fixed point with one f_B per distinct restriction to the
    # graph of that fixed point, while each f of the joint hom-set is still
    # one case
    calls = []
    trace = Model.trace

    def counted(self, X, A, B, f):
        calls.append(f)
        return trace(self, X, A, B, f)

    monkeypatch.setattr(Model, "trace", counted)
    bundle = sigma_meet_bimonad(fincppo)
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)
    rep = check_traced_monad(bundle, budget)
    monkeypatch.undo()
    pool = eilenberg_moore.algebra_pool(bundle, budget)
    assert rep.verdict == "pass" and rep.cases_run > 0
    assert len(calls) == len(pool) ** 3
    assert all(isinstance(f, HomSet) for f in calls)
    traced = 0
    for algX, algA, algB in itertools.product(pool, repeat=3):
        src = algebra_tensor(bundle, algA, algX)
        fxs = enumerate_algebra_morphisms(bundle, src, algX)
        fbs = enumerate_algebra_morphisms(bundle, src, algB)
        nx = algX.carrier.size
        for phi in set(fincppo.fix(algX.carrier, algA.carrier, fxs).payloads):
            graph = [a * nx + x for a, x in enumerate(phi)]
            traced += len({tuple(fb[i] for i in graph)
                           for fb in fbs.payloads})
    assert sum(len(f) for f in calls) == traced
    assert rep.cases_run == _lifting_by_element(bundle, budget, 3)[0]


def _lifting_by_element(b, budget, arity):
    """The lifting loop of ``check_traced_monad`` (arity 3) or
    ``check_traced_via_fix`` (arity 2), one algebra morphism at a time:
    each is traced (or its fixed point taken) alone, and each distinct
    image is decided once.  Gives the cases run, and the position of the
    first failing ``f`` in its hom-set with its witness, or None."""
    model, cases = b.model, 0
    for algs in itertools.product(algebra_pool(b, budget), repeat=arity):
        algX, algA = algs[:2]
        algB = algs[2] if arity == 3 else algX
        tgt = algebra_tensor(b, algB, algX) if arity == 3 else algX
        fs = enumerate_algebra_morphisms(b, algebra_tensor(b, algA, algX), tgt)
        decided = set()
        for k, f in enumerate(fs):
            cases += 1
            if arity == 3:
                g = model.trace(algX.carrier, algA.carrier, algB.carrier, f)
            else:
                g = model.fix(algX.carrier, algA.carrier, f)
            if g.payload in decided:
                continue
            lhs, rhs = algebra_morphism_sides(b, algA, algB, g)
            if not model.mor_eq(lhs, rhs):
                inputs = {"f": f}
                for name, alg in zip("XAB", algs):
                    inputs[name], inputs[name.lower()] = alg.carrier, alg.action
                return cases, k, (inputs, lhs, rhs)
            decided.add(g.payload)
    return cases, None, None


@pytest.mark.parametrize("size", [2, 3])
def test_lifting_loop_matches_a_morphism_by_morphism_run(fincppo, size):
    # sigma_join fails both lifting checks at the first f of a hom-set; its
    # reversed hom-sets put passing images before the failing one (in the
    # traced check, one image three times), so the run stops k > 0 cases
    # into the failing hom-set
    join = sigma_join_bimonad(fincppo)
    reverse = dataclasses.replace(
        join, algmor_enumerator=lambda src, tgt:
        join.algmor_enumerator(src, tgt)[::-1])
    budget = CaseBudget(seed=0, cases=20, max_object_size=size)
    positions = []
    for b in (join, reverse):
        for check, arity in ((check_traced_monad, 3),
                             (check_traced_via_fix, 2)):
            rep = check(b, budget)
            cases, k, (inputs, lhs, rhs) = _lifting_by_element(b, budget,
                                                               arity)
            assert (rep.verdict, rep.cases_run) == ("fail", cases)
            [failure] = rep.failures
            assert failure.inputs == inputs
            assert (failure.lhs, failure.rhs) == (lhs, rhs)
            positions.append(k)
    assert positions == [0, 0, 3, 1]


def test_each_lifting_conclusion_is_decided_once(fincppo, monkeypatch):
    # sigma_meet's 1,905,592 cases give only 419 distinct (A, B, image)
    # triples, and the conclusion of each is evaluated once
    calls = []
    sides = eilenberg_moore.algebra_morphism_sides

    def counted(*args):
        calls.append(args)
        return sides(*args)

    monkeypatch.setattr(eilenberg_moore, "algebra_morphism_sides", counted)
    rep = check_traced_monad(sigma_meet_bimonad(fincppo), CaseBudget(0, 60, 3))
    assert (rep.verdict, rep.cases_run, len(calls)) == ("pass", 1_905_592,
                                                        419)


def test_sierpinski_join_keeps_its_traced_monad_witness(fincppo):
    rep = check_traced_monad(sigma_join_bimonad(fincppo), CaseBudget(0, 60, 3))
    [failure] = rep.failures
    point = poset_from_pairs((0,), [])
    chain = poset_from_pairs((0, 1), [(0, 1)])
    assert (rep.verdict, rep.cases_run, failure.law) == (
        "fail", 4969, "traced_monad_conclusion")
    assert failure.inputs["f"] == Morphism(
        "fin_cppo", poset_product(point, chain), poset_product(chain, chain),
        (0, 3))
    lhs_and_rhs = [Morphism("fin_cppo", poset_product(sierpinski(), point),
                            chain, image) for image in ((0, 0), (0, 1))]
    assert [failure.lhs, failure.rhs] == lhs_and_rhs


def test_lifting_failures_check_their_premise(fincppo):
    # a hook handing out every monotone map, module map or not: the first
    # failing f is kept as the premise it breaks
    meet = sigma_meet_bimonad(fincppo)
    raw = dataclasses.replace(meet, algmor_enumerator=lambda src, tgt:
                              fincppo.enumerate_hom(src.carrier, tgt.carrier))
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)
    for check in (check_traced_monad, check_traced_via_fix):
        report = check(raw, budget)
        assert report.verdict == "fail"
        assert [fl.law for fl in report.failures] == [
            "algebra_morphism_premise"]
        assert not fincppo.mor_eq(report.failures[0].lhs,
                                  report.failures[0].rhs)


def _reversed_hook(b):
    """``b`` with every algebra-morphism hom-set of its hook reversed."""
    return dataclasses.replace(b, algmor_enumerator=lambda src, tgt:
                               b.algmor_enumerator(src, tgt)[::-1])


def _raw_hook(b):
    """``b`` with a hook handing out every map, algebra morphism or not."""
    return dataclasses.replace(b, algmor_enumerator=lambda src, tgt:
                               b.model.enumerate_hom(src.carrier, tgt.carrier))


def _unpaired_m(b):
    """``b``, a monoid bundle over the Sierpinski poset, with ``m(A, B)``
    sending ``(h, (a, b))`` to ``((h, a), (1, b))``: the tensor ``B (x) X``
    of two algebras is still an algebra, acted on in ``B`` alone, so it is
    the product algebra only where ``X``'s action is trivial."""
    model, H = b.model, sierpinski()

    def m(A, B):
        return model.pair(
            b.on_mor(model.proj0(A, B)),
            model.seq(model.proj1(H, model.tensor_obj(A, B)),
                      model.proj1(A, B), b.eta(B)))

    return dataclasses.replace(b, m=m)


def _traced_both_ways(b, budget, monkeypatch):
    """``check_traced_monad`` with and without its component path, and for
    each triple whether the product gate let the components decide it."""
    gated = []
    real = eilenberg_moore._product_components

    def spy(b):
        components = real(b)

        def gate(*args):
            out = components(*args)
            gated.append(out is not None)
            return out

        return gate

    monkeypatch.setattr(eilenberg_moore, "_product_components", spy)
    by_components = check_traced_monad(b, budget)
    monkeypatch.setattr(eilenberg_moore, "_product_components",
                        lambda b: None)
    joint = check_traced_monad(b, budget)
    monkeypatch.undo()
    return by_components, joint, gated


_CARTESIAN_BUNDLES = {
    "sigma_meet": lambda: sigma_meet_bimonad(fincppo_model()),
    "sigma_join": lambda: sigma_join_bimonad(fincppo_model()),
    "identity:fincppo": lambda: identity_hopf_bundle(fincppo_model()),
    "identity:bposet-lfp": lambda: identity_hopf_bundle(
        BoundedPosetModel("lfp")),
    "identity:bposet-gfp": lambda: identity_hopf_bundle(
        BoundedPosetModel("gfp")),
    "sigma_join-reversed": lambda: _reversed_hook(
        sigma_join_bimonad(fincppo_model())),
    "sigma_meet-raw": lambda: _raw_hook(sigma_meet_bimonad(fincppo_model())),
}


@pytest.mark.parametrize("name, size, verdict", [
    ("sigma_meet", 2, "pass"), ("sigma_meet", 3, "pass"),
    ("sigma_join", 2, "fail"), ("sigma_join", 3, "fail"),
    ("identity:fincppo", 2, "pass"), ("identity:bposet-lfp", 2, "pass"),
    ("identity:bposet-gfp", 2, "pass"),
    ("sigma_join-reversed", 2, "fail"), ("sigma_join-reversed", 3, "fail"),
    ("sigma_meet-raw", 2, "fail")])
def test_component_path_matches_the_joint_path(name, size, verdict,
                                               monkeypatch):
    # the same report, failures and witnesses included, whether each
    # triple is decided by product components or by its joint hom-set;
    # every registered cartesian triple passes the product gate
    b = _CARTESIAN_BUNDLES[name]()
    budget = CaseBudget(seed=0, cases=20, max_object_size=size)
    by_components, joint, gated = _traced_both_ways(b, budget, monkeypatch)
    assert by_components == joint
    assert by_components.verdict == verdict
    assert gated and all(gated)


@pytest.mark.parametrize("make", [sigma_meet_bimonad, sigma_join_bimonad])
def test_component_path_keeps_every_image(fincppo, make):
    # tracing one f_B per restriction to the graph of each fixed point
    # gives the images that tracing the joint hom-set one f at a time gives,
    # on every triple (each passes the product gate), and the run keeps the
    # count and first failure of a morphism-by-morphism run
    b = make(fincppo)
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)
    pool = algebra_pool(b, budget)
    components = eilenberg_moore._product_components(b)
    # the components' memos are keyed by identity: keep every tensor alive
    tensor = functools.cache(functools.partial(algebra_tensor, b))
    for algX, algA, algB in itertools.product(pool, repeat=3):
        src, tgt = tensor(algA, algX), tensor(algB, algX)
        n, images = components(src, tgt, algX, algA, algB)
        fs = enumerate_algebra_morphisms(b, src, tgt)
        assert n == len(fs)
        assert set(images.payloads) == {
            fincppo.trace(algX.carrier, algA.carrier, algB.carrier, f).payload
            for f in fs}
    rep = check_traced_monad(b, budget)
    cases, _, failure = _lifting_by_element(b, budget, 3)
    assert rep.cases_run == cases
    assert [(fl.inputs, fl.lhs, fl.rhs) for fl in rep.failures] == (
        [failure] if failure else [])
    assert rep.verdict == ("fail" if failure else "pass")


def test_product_gate_leaves_other_tensors_to_the_joint_path(fincppo,
                                                             monkeypatch):
    # an m whose tensor of algebras is no product algebra where X acts
    # nontrivially: those triples run on their joint hom-sets, the others
    # on components, and the report is the joint path's
    b = _unpaired_m(sigma_meet_bimonad(fincppo))
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)
    by_components, joint, gated = _traced_both_ways(b, budget, monkeypatch)
    assert by_components == joint
    assert by_components.cases_run == _lifting_by_element(b, budget, 3)[0]
    assert True in gated and False in gated


def test_trace_coherence_bundles(mat, fincppo, qc2, qs3):
    assert check_trace_coherence(identity_hopf_bundle(mat), BUDGET).passed
    assert check_trace_coherence(identity_hopf_bundle(fincppo),
                                 SMALL).passed
    assert check_trace_coherence(qc2, BUDGET).passed
    assert check_trace_coherence(qs3, SMALL).passed


def test_crosscheck_agreement_and_mutation(mat, qc2):
    ok = crosscheck_main_theorem(qc2, BUDGET)
    assert ok.passed and ok.findings["agree"]
    assert ok.findings["traced_side"] == "pass"

    def bad(A, B):
        good = qc2.hl_inv(A, B)
        rows = [list(r) for r in dense_rows(good)]
        if rows and rows[0]:
            rows[0][0] += 1
        return mat.morphism(good.dom, good.cod, rows)

    broken = crosscheck_main_theorem(dataclasses.replace(qc2, hl_inv=bad), BUDGET)
    assert broken.findings["traced_side"] == "fail"
    assert broken.findings["coherent_side"] == "fail"
    assert broken.findings["agree"]


def test_fix_coherence_matches_trace_form(fincppo):
    report = check_fix_coherence(identity_hopf_bundle(fincppo), SMALL)
    assert report.passed
    assert report.findings["matches_trace_coherence"]


def test_fix_coherence_does_not_compare_with_skipped_trace_form(fincppo):
    # every fix-form hom-set enumerates; trace-form A x X -> B x X at
    # size 9 has 9^9 maps and is declined, so the forms cannot be compared
    budget = CaseBudget(seed=0, cases=20, max_object_size=3)
    report = check_fix_coherence(identity_hopf_bundle(fincppo),
                                 budget)
    assert (report.verdict, report.cases_run) == ("inconclusive", 922)
    assert not report.failures
    assert report.findings == {"matches_trace_coherence": None}


def test_skipped_coherence_leaves_callers_inconclusive(capped_pfn):
    # algebra morphisms come from an uncapped model's enumerator, so only
    # the coherence side meets declined hom-sets
    hopf = identity_hopf_bundle(capped_pfn)
    uncapped = PfnModel()
    hopf = dataclasses.replace(
        hopf, algmor_enumerator=lambda src, tgt: HomSet(
            uncapped.name, src.carrier, tgt.carrier,
            [f.payload for f in uncapped.enumerate_hom(src.carrier,
                                                       tgt.carrier)]))
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)

    cross = crosscheck_main_theorem(hopf, budget)
    assert (cross.verdict, cross.failures) == ("inconclusive", [])
    assert cross.findings["traced_side"] == "pass"
    assert cross.findings["coherent_side"] == "inconclusive"
    assert cross.findings["agree"] is None

    corollary = cocartesian_corollary_check(hopf, budget)
    assert (corollary.verdict, corollary.failures) == ("inconclusive", [])
    assert corollary.findings["idempotent"] is True
    assert corollary.findings["corollary_agrees"] is None


def test_algebra_morphism_hook_payloads_are_checked(mat, qc2):
    # the primitives trust a HomSet's payloads, so a hook's are checked as
    # they come in: a 3x3 matrix on a 2-dimensional carrier is refused
    alg = free_algebra(qc2, 1)
    n = alg.carrier

    def hooked(payload):
        return dataclasses.replace(
            qc2, algmor_enumerator=lambda src, tgt: HomSet(
                mat.name, src.carrier, tgt.carrier, [payload]))

    fits = enumerate_algebra_morphisms(hooked(mat.identity(n).payload),
                                       alg, alg)
    assert list(fits) == [mat.identity(n)]
    with pytest.raises(ModelMismatchError):
        enumerate_algebra_morphisms(hooked(mat.identity(n + 1).payload),
                                    alg, alg)


def test_lifting_checkers_skip_declined_hom_sets(capped_pfn):
    # some algebra-morphism hom-sets exceed the 50-map cap: the exhaustive
    # traced-monad run skips and counts them instead of raising, and the
    # cross-check cannot compare an inconclusive side
    hopf = identity_hopf_bundle(capped_pfn)
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)

    traced = check_traced_monad(hopf, budget)
    assert (traced.verdict, traced.cases_run) == ("inconclusive", 173)
    assert traced.findings == {"quantification": "exhaustive_with_skips",
                               "skipped_object_tuples": 6}

    cross = crosscheck_main_theorem(hopf, budget)
    assert (cross.verdict, cross.cases_run) == ("inconclusive", 448)
    assert cross.findings["traced_monad"] == "inconclusive"
    assert cross.findings["agree"] is None


class _CappedFinCppo(FinCppoModel):
    """Pointed posets that decline every hom-set above 20 monotone maps."""

    hom_cap = 20


def test_fix_lifting_skips_declined_hom_sets():
    model = _CappedFinCppo()
    report = check_traced_via_fix(identity_hopf_bundle(model),
                                  CaseBudget(seed=0, cases=20,
                                             max_object_size=3))
    assert (report.verdict, report.cases_run) == ("inconclusive", 13)
    assert report.findings == {"quantification": "exhaustive_with_skips",
                               "skipped_object_tuples": 10}


def test_traced_monad_skips_triples_whose_component_declines():
    # above 20 maps a hom-set is declined: a joint A x X -> B x X often is
    # where both its components enumerate, so only a triple with a declined
    # component is skipped; at size 2 none is, and the run is the uncapped
    # model's
    model = _CappedFinCppo()
    bundle = identity_hopf_bundle(model)
    reports = {}
    for size in (2, 3):
        budget = CaseBudget(seed=0, cases=20, max_object_size=size)
        reports[size] = check_traced_monad(bundle, budget)
        pool = algebra_pool(bundle, budget)
        declined = sum(
            any(model.enumerate_hom(model.tensor_obj(A.carrier, X.carrier),
                                    C.carrier) is None for C in (B, X))
            for X, A, B in itertools.product(pool, repeat=3))
        assert reports[size].findings.get("skipped_object_tuples",
                                          0) == declined
    uncapped = check_traced_monad(identity_hopf_bundle(fincppo_model()),
                                  CaseBudget(seed=0, cases=20,
                                             max_object_size=2))
    assert (reports[2].verdict, reports[2].cases_run) == ("pass", 61)
    assert reports[2] == uncapped
    assert (reports[3].verdict, reports[3].cases_run) == ("inconclusive",
                                                          122)
    assert reports[3].findings["skipped_object_tuples"] == 46


def test_fix_coherence_capability(mat):
    with pytest.raises(CapabilityError):
        check_fix_coherence(identity_hopf_bundle(mat), SMALL)


def test_disagreement_failures_have_no_sides(monkeypatch):
    # a coherence checker that fails every bundle makes the two sides of
    # the cross-check disagree: a verdict-level failure with no morphisms
    real = eilenberg_moore.check_trace_coherence
    monkeypatch.setattr(
        eilenberg_moore, "check_trace_coherence",
        lambda hopf, budget: dataclasses.replace(real(hopf, budget),
                                                 verdict="fail"))
    cross = crosscheck_main_theorem(identity_hopf_bundle(pfn_model()), SMALL)
    assert cross.verdict == "fail"
    (failure,) = cross.failures
    assert failure.law == "main_theorem_crosscheck_disagreement"
    assert (failure.lhs, failure.rhs) == (None, None)
    assert failure.inputs["coherent_side"] == "fail"
