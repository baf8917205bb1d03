import dataclasses

import pytest

from tracedcat.core import CapabilityError
from tracedcat.hopf_monoid import (algebra_from_rep, group_representations,
                                   group_table_c2)
from tracedcat.laws import CaseBudget
from tracedcat.model_iter import PfnModel, pfn_model
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import FinCppoModel
from tracedcat import eilenberg_moore
from tracedcat.monads import identity_hopf_bundle
from tracedcat.eilenberg_moore import (AlgebraLawError, TAlgebra,
                                       algebra_tensor, check_fix_coherence,
                                       check_trace_coherence,
                                       check_traced_monad,
                                       check_traced_via_fix,
                                       cocartesian_corollary_check,
                                       crosscheck_main_theorem,
                                       enumerate_algebras, free_algebra,
                                       free_extension_agrees,
                                       is_algebra_morphism, unit_algebra,
                                       validate_algebra)

BUDGET = CaseBudget(seed=13, cases=30, max_object_size=3)
SMALL = CaseBudget(seed=13, cases=15, max_object_size=2)


def test_free_algebra_examples(mat, zle, qc2, nbundle):
    ident = identity_hopf_bundle(mat)
    fa = free_algebra(ident, 3)
    assert fa.carrier == 3 and mat.mor_eq(fa.action, mat.identity(3))

    fq = free_algebra(qc2, 1)
    assert fq.carrier == 2
    assert dense_rows(fq.action) == ((1, 0, 0, 1), (0, 1, 1, 0))

    fn = free_algebra(nbundle, -3)
    assert fn.carrier == 0 and fn.action == zle.arrow(0, 0)


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
    reps = group_representations(mat, table)
    sign = algebra_from_rep(mat, table, reps["sign"])
    trivial = algebra_from_rep(mat, table, reps["trivial"])
    tensor = algebra_tensor(qc2, sign, sign)
    assert tensor.carrier == 1
    assert dense_rows(tensor.action) == dense_rows(trivial.action)


def test_unit_algebra(mat, qc2):
    unit = unit_algebra(identity_hopf_bundle(mat))
    assert unit.carrier == 1 and mat.mor_eq(unit.action, mat.identity(1))
    unit_algebra(qc2)  # validates on construction


def test_enumerate_algebras_on_truncation(zle, nbundle):
    assert len(enumerate_algebras(nbundle, 5)) == 1
    (alg,) = enumerate_algebras(nbundle, 5)
    assert alg.action == zle.arrow(5, 5)
    assert enumerate_algebras(nbundle, -5) == []


def test_idempotent_algebra_uniqueness(zle, nbundle):
    # at most one structure per carrier; exactly one iff the unit inverts
    for n in range(-6, 7):
        algs = enumerate_algebras(nbundle, n)
        eta_invertible = zle.invert(nbundle.eta(n)) is not None
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
    reps = group_representations(mat, table)
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
            for f in sample_algebra_morphisms(bundle, rng, src, tgt, k=2):
                assert is_algebra_morphism(bundle, src, tgt, f)


def test_traced_monad_checks(nbundle, qc2):
    window = CaseBudget(seed=1, cases=20, max_object_size=6)
    assert check_traced_monad(nbundle, window).passed
    assert check_traced_monad(qc2, BUDGET).passed


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
        hopf, algmor_enumerator=lambda src, tgt: uncapped.enumerate_hom(
            src.carrier, tgt.carrier))
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
