from tracedcat.laws import CaseBudget
from tracedcat.model_linear import dense_rows
from tracedcat.monads import (HopfBundle, check_bimonad_laws, check_hopf,
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
        assert check_monad_laws(model, bundle.monad, budget).passed
        assert check_bimonad_laws(model, bundle, budget).passed
        assert check_hopf(model, bundle, budget).passed
        idem = idempotence_suite(model, bundle, budget)
        assert idem.passed and idem.findings["idempotent"]


def test_n_bundle_laws(zle, nbundle):
    assert check_monad_laws(zle, nbundle.monad, BUDGET).passed
    assert check_bimonad_laws(zle, nbundle, BUDGET).passed


def test_group_bundle_laws(mat, qc2, qs3):
    assert check_monad_laws(mat, qc2.monad, BUDGET).passed
    assert check_bimonad_laws(mat, qc2, BUDGET).passed
    assert check_hopf(mat, qc2, BUDGET).passed
    assert check_monad_laws(mat, qs3.monad, SMALL).passed
    assert check_bimonad_laws(mat, qs3, SMALL).passed
    assert check_hopf(mat, qs3, SMALL).passed


def test_fusion_identity_monad_collapses(mat):
    bundle = identity_hopf_bundle(mat)
    hl = fusion_left(mat, bundle, 2, 3)
    assert mat.mor_eq(hl, mat.identity(6))


def test_fusion_c2_sweedler_form(mat, qc2):
    # on basis vectors g (x) k the left fusion sends g (x) k to g (x) gk
    hl = fusion_left(mat, qc2, 1, 1)
    assert dense_rows(hl) == ((1, 0, 0, 0),
                              (0, 1, 0, 0),
                              (0, 0, 0, 1),
                              (0, 0, 1, 0))
    inv = qc2.hl_inv(1, 1)
    assert dense_rows(inv) == dense_rows(hl)  # every element is an involution


def test_fusion_right_via_symmetry_matches_definition(mat, qc2):
    from tracedcat.monads import fusion_right_from_left

    hr, hr_inv = fusion_right_from_left(mat, qc2, 2, 1)
    assert mat.mor_eq(hr, fusion_right(mat, qc2, 2, 1))
    assert mat.mor_eq(mat.compose(hr, hr_inv), mat.identity(hr.cod))


def test_n_fusion_not_invertible(zle, nbundle):
    fusion = fusion_left(zle, nbundle, -2, 1)
    assert (fusion.dom, fusion.cod) == (0, 1)
    assert try_invert_fusion(zle, nbundle, -2, 1) is None
    bundle, witness = hopf_from_bimonad(zle, nbundle,
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


def test_idempotence_suite_verdicts(mat, zle, nbundle, qc2):
    n_report = idempotence_suite(zle, nbundle, CaseBudget(seed=2, cases=20,
                                                          max_object_size=6))
    assert n_report.findings["idempotent"]
    assert n_report.findings["traced_monad_verdict"] == "pass"
    q_report = idempotence_suite(mat, qc2, BUDGET)
    assert not q_report.findings["idempotent"]
    assert not q_report.findings["mu_invertible"]  # mu is 4n x 2n
    assert q_report.findings["hopf_idempotence_criterion_agrees"]


def test_idempotence_suite_passes_skips_through(capped_pfn):
    # the identity bundle is idempotent, so the suite runs the traced-monad
    # check, which skips the hom-sets above the 50-map cap
    report = idempotence_suite(capped_pfn, identity_hopf_bundle(capped_pfn),
                               CaseBudget(seed=0, cases=20, max_object_size=2))
    assert (report.verdict, report.cases_run) == ("inconclusive", 180)
    assert not report.failures
    assert report.findings["idempotent"]
    assert report.findings["traced_monad_verdict"] == "inconclusive"


def test_trace_meta_examples(mat, zle, nbundle, qc2, qs3, fincppo):
    assert trace_meta_check(mat, identity_hopf_bundle(mat)).findings["holds"]
    assert trace_meta_check(fincppo,
                            identity_hopf_bundle(fincppo)).findings["holds"]
    assert trace_meta_check(zle, nbundle).findings["holds"]
    assert not trace_meta_check(mat, qc2).findings["holds"]
    assert not trace_meta_check(mat, qs3).findings["holds"]


def test_trace_meta_c2_values(mat, qc2):
    report = trace_meta_check(mat, qc2)
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

    broken = HopfBundle(qc2.bimonad, bad)
    report = check_hopf(mat, broken, SMALL)
    assert report.verdict == "fail"


def test_trace_meta_needs_traced_model(pfn):
    bundle = identity_hopf_bundle(pfn)
    assert trace_meta_check(pfn, bundle).findings["holds"]
