import dataclasses
import itertools

import pytest

from tracedcat import cli
from tracedcat.core import ModelMismatchError
from tracedcat.eilenberg_moore import crosscheck_main_theorem, free_algebra
from tracedcat.laws import CaseBudget
from tracedcat.model_iter import exception_bimonad, label_set, pfn_model
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import (fincppo_model, int_poset_model,
                                   sigma_join_bimonad, sigma_meet_bimonad)
from tracedcat.monads import (BimonadBundle, HopfBundle, MonadBundle,
                              check_bimonad_laws, check_hopf,
                              check_monad_laws, fusion_left, fusion_right,
                              hopf_from_bimonad, identity_hopf_bundle,
                              idempotence_suite, trace_meta_check,
                              try_invert_fusion)

BUDGET = CaseBudget(seed=9, cases=30, max_object_size=3)
SMALL = CaseBudget(seed=9, cases=20, max_object_size=2)


def test_identity_bundle_everywhere(mat, zle, fincppo, pfn):
    for model in (mat, zle, fincppo, pfn):
        bundle = identity_hopf_bundle(model)
        budget = SMALL if model.name in ("fin_cppo", "pfn") else BUDGET
        assert check_monad_laws(bundle, budget).passed
        assert check_bimonad_laws(bundle, budget).passed
        assert check_hopf(bundle, budget).passed
        idem = idempotence_suite(bundle, budget)
        assert idem.passed and idem.findings["idempotent"]


def test_n_bundle_laws(nbundle):
    assert check_monad_laws(nbundle, BUDGET).passed
    assert check_bimonad_laws(nbundle, BUDGET).passed


def test_group_bundle_laws(qc2, qs3):
    assert check_monad_laws(qc2, BUDGET).passed
    assert check_bimonad_laws(qc2, BUDGET).passed
    assert check_hopf(qc2, BUDGET).passed
    assert check_monad_laws(qs3, SMALL).passed
    assert check_bimonad_laws(qs3, SMALL).passed
    assert check_hopf(qs3, SMALL).passed


def test_hopf_bundle_is_a_bimonad_and_a_monad_bundle(mat, qc2):
    # a Hopf bundle goes wherever a bimonad or a monad bundle is expected,
    # hooks included
    searched, witness = hopf_from_bimonad(qc2, SMALL)
    assert witness is None
    replaced = dataclasses.replace(qc2, hl_inv=searched.hl_inv)
    for bundle in (searched, replaced):
        assert isinstance(bundle, HopfBundle)
        assert isinstance(bundle, BimonadBundle)
        assert isinstance(bundle, MonadBundle)
        assert bundle.algebra_source is qc2.algebra_source
        assert bundle.algmor_sampler is qc2.algmor_sampler
    assert check_monad_laws(searched, SMALL).passed
    assert check_hopf(searched, SMALL).passed
    free = free_algebra(searched, 1)
    assert free.carrier == qc2.on_obj(1)
    assert mat.mor_eq(free.action, qc2.mu(1))


def test_fusion_inverse_search_fills_the_bundle_memo(mat, qc2):
    # the search goes through the bundle's hl_inv, so its memo keeps every
    # inverse it found
    searched, witness = hopf_from_bimonad(qc2, SMALL)
    assert witness is None
    pool = mat.enumerate_objects(SMALL.max_object_size)
    assert {key[:2] for key in searched.hl_inv.memo} == set(
        itertools.product(pool, repeat=2))


def test_fusion_identity_monad_collapses(mat):
    bundle = identity_hopf_bundle(mat)
    hl = fusion_left(bundle, 2, 3)
    assert mat.mor_eq(hl, mat.identity(6))


def test_fusion_c2_sweedler_form(qc2):
    # on basis vectors g (x) k the left fusion sends g (x) k to g (x) gk
    hl = fusion_left(qc2, 1, 1)
    assert dense_rows(hl) == ((1, 0, 0, 0),
                              (0, 1, 0, 0),
                              (0, 0, 0, 1),
                              (0, 0, 1, 0))
    inv = qc2.hl_inv(1, 1)
    assert dense_rows(inv) == dense_rows(hl)  # every element is an involution


def test_fusion_right_via_symmetry_matches_definition(mat, qc2):
    from tracedcat.monads import fusion_right_from_left

    hr, hr_inv = fusion_right_from_left(qc2, 2, 1)
    assert mat.mor_eq(hr, fusion_right(qc2, 2, 1))
    assert mat.mor_eq(mat.compose(hr, hr_inv), mat.identity(hr.cod))


def test_n_fusion_not_invertible(nbundle):
    fusion = fusion_left(nbundle, -2, 1)
    assert (fusion.dom, fusion.cod) == (0, 1)
    assert try_invert_fusion(nbundle, -2, 1) is None
    bundle, witness = hopf_from_bimonad(nbundle,
                                        CaseBudget(seed=1, cases=10,
                                                   max_object_size=6))
    assert bundle is None
    assert (witness["A"], witness["B"]) == (-1, 1)  # smallest by size order


def test_try_invert_examples(mat, zle):
    f = mat.morphism(2, 2, [[1, 1], [0, 1]])
    assert dense_rows(mat.invert(f)) == ((1, -1), (0, 1))
    assert zle.invert(zle.arrow(0, 1)) is None
    ident = zle.identity(4)
    assert zle.invert(ident) == ident


def test_idempotence_suite_verdicts(nbundle, qc2):
    n_report = idempotence_suite(nbundle, CaseBudget(seed=2, cases=20,
                                                          max_object_size=6))
    assert n_report.findings["idempotent"]
    assert n_report.findings["traced_monad_verdict"] == "pass"
    q_report = idempotence_suite(qc2, BUDGET)
    assert not q_report.findings["idempotent"]
    assert not q_report.findings["mu_invertible"]  # mu is 4n x 2n
    assert q_report.findings["hopf_idempotence_criterion_agrees"]


def test_idempotence_suite_passes_skips_through(capped_pfn):
    # the identity bundle is idempotent, so the suite runs the traced-monad
    # check, which skips the hom-sets above the 50-map cap
    report = idempotence_suite(identity_hopf_bundle(capped_pfn),
                               CaseBudget(seed=0, cases=20, max_object_size=2))
    assert (report.verdict, report.cases_run) == ("inconclusive", 180)
    assert not report.failures
    assert report.findings["idempotent"]
    assert report.findings["traced_monad_verdict"] == "inconclusive"


def test_trace_meta_examples(mat, nbundle, qc2, qs3, fincppo):
    assert trace_meta_check(identity_hopf_bundle(mat)).findings["holds"]
    assert trace_meta_check(identity_hopf_bundle(fincppo)).findings["holds"]
    assert trace_meta_check(nbundle).findings["holds"]
    assert not trace_meta_check(qc2).findings["holds"]
    assert not trace_meta_check(qs3).findings["holds"]


def test_trace_meta_c2_values(qc2):
    report = trace_meta_check(qc2)
    (failure,) = report.failures
    assert dense_rows(failure.lhs) == ((1,), (1,))   # traced loop
    assert dense_rows(failure.rhs) == ((1,), (0,))   # the unit map


def test_broken_inverse_fails_hopf_suite(mat, qc2):
    def bad(A, B):
        good = qc2.hl_inv(A, B)
        rows = [list(r) for r in dense_rows(good)]
        if rows and rows[0]:
            rows[0][0] += 1
        return mat.morphism(good.dom, good.cod, rows)

    broken = dataclasses.replace(qc2, hl_inv=bad)
    report = check_hopf(broken, SMALL)
    assert report.verdict == "fail"
    # every witness replays: its two sides differ
    assert all(not mat.mor_eq(fl.lhs, fl.rhs) for fl in report.failures)


def test_trace_meta_needs_traced_model(pfn):
    bundle = identity_hopf_bundle(pfn)
    assert trace_meta_check(bundle).findings["holds"]


def test_hopf_checks_every_object_pair():
    # 7 objects at size 3: 49 pairs of 11 equations plus 7 unit laws
    report = check_hopf(identity_hopf_bundle(int_poset_model()),
                        CaseBudget(seed=9, cases=30, max_object_size=3))
    assert (report.verdict, report.cases_run) == ("pass", 546)


def test_bimonad_prefix_is_reported(nbundle):
    # 13 objects at size 6: 64 of 2197 triples and of 169 pairs
    report = check_bimonad_laws(nbundle, CaseBudget(seed=0, cases=20,
                                                    max_object_size=6))
    assert report.passed
    assert report.findings == {"checked_object_triples": 64,
                               "total_object_triples": 2197,
                               "checked_object_pairs": 64,
                               "total_object_pairs": 169}
    # 7 objects at size 3: the 49 pairs are all checked
    report = check_bimonad_laws(nbundle, BUDGET)
    assert report.findings == {"checked_object_triples": 64,
                               "total_object_triples": 343}


def test_idempotence_witness_replays():
    # T sends every map to the constant-bottom map: mu = id inverts, its
    # inverse is eta at T(A) but not T of eta at A
    model = fincppo_model()

    def bottom(f):
        return model.table(f.dom, f.cod, (f.cod.bottom,) * f.dom.size)

    bundle = dataclasses.replace(identity_hopf_bundle(model), on_mor=bottom)
    report = idempotence_suite(bundle, CaseBudget(seed=0, cases=20,
                                                  max_object_size=2))
    assert (report.verdict, report.cases_run) == ("fail", 3)
    assert [fl.law for fl in report.failures] == ["mu_inverse_is_eta"]
    assert all(not model.mor_eq(fl.lhs, fl.rhs) for fl in report.failures)


def test_idempotence_criterion_disagreement_has_no_sides():
    # mu = constant bottom does not invert, while eta_I o m_I = id still
    # holds: the two determinations of idempotence disagree
    model = fincppo_model()

    def mu(A):
        return model.table(A, A, (A.bottom,) * A.size)

    bundle = dataclasses.replace(identity_hopf_bundle(model), mu=mu)
    report = idempotence_suite(bundle, CaseBudget(seed=0, cases=20,
                                                  max_object_size=2))
    assert report.verdict == "fail"
    assert not report.findings["hopf_idempotence_criterion_agrees"]
    (failure,) = report.failures
    assert failure.law == "hopf_idempotence_criterion"
    assert (failure.lhs, failure.rhs) == (None, None)


def _memo_bundles():
    yield from (make() for make in cli._BUNDLES.values())
    yield sigma_meet_bimonad(fincppo_model())
    yield sigma_join_bimonad(fincppo_model())
    yield exception_bimonad(pfn_model(), label_set("err"))


def test_bundle_memoises_its_structure_maps():
    for bundle in _memo_bundles():
        A, B = bundle.model.enumerate_objects(2)[-2:]
        maps = [("mu", (A,)), ("eta", (A,)), ("m", (A, B)), ("hl_inv", (A, B))]
        for name, objs in maps:
            if hasattr(bundle, name):
                fn = getattr(bundle, name)
                assert fn(*objs) is fn(*objs), (bundle.name, name)


def test_bundle_memo_keys_hold_types(qc2):
    qc2.mu(1)
    with pytest.raises(ModelMismatchError):
        qc2.mu(True)


def test_bundle_memo_keeps_no_raise():
    model = int_poset_model()
    calls = []

    def mu(A):
        calls.append(A)
        raise ModelMismatchError(f"no mu at {A!r}")

    bundle = MonadBundle(model, "raising", lambda A: A, lambda f: f, mu,
                         model.identity)
    for _ in range(2):
        with pytest.raises(ModelMismatchError):
            bundle.mu(0)
    assert calls == [0, 0]


def test_replaced_map_is_used_and_memoised_anew(mat, qc2):
    def bad(A, B):
        good = qc2.hl_inv(A, B)
        rows = [list(r) for r in dense_rows(good)]
        if rows and rows[0]:
            rows[0][0] += 1
        return mat.morphism(good.dom, good.cod, rows)

    good = qc2.hl_inv(1, 2)   # memoised in qc2 first
    broken = dataclasses.replace(qc2, hl_inv=bad)
    assert broken.mu is qc2.mu and broken.m is qc2.m
    assert not mat.mor_eq(broken.hl_inv(1, 2), good)
    assert qc2.hl_inv(1, 2) is good
    report = crosscheck_main_theorem(broken, SMALL)
    assert report.findings["traced_side"] == "fail"
    assert report.findings["coherent_side"] == "fail"


def test_fresh_bundles_share_no_memo():
    first, second = (identity_hopf_bundle(int_poset_model()) for _ in range(2))
    first.mu(1)
    first.hl_inv(1, 2)
    assert first.mu.memo and first.hl_inv.memo
    assert not second.mu.memo and not second.hl_inv.memo
