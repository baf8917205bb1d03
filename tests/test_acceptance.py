"""Acceptance gate: one test per criterion, exact tolerances.

Every comparison in the library is exact (integers, rationals, finite
tables), so "tolerance" always means literal equality.  Run with ``-s`` to
see one pass/fail line per criterion.
"""

import dataclasses
import random

from tracedcat.laws import (CaseBudget, check_conway_trace_roundtrip,
                            check_snake, check_trace_axioms)
from tracedcat.model_linear import dense_rows, dual_algebra
from tracedcat.model_order import (diagonal_preservation_check, sierpinski,
                                   two_trace_distinctness_witness)
from tracedcat.monads import (check_bimonad_laws, check_hopf, check_monad_laws,
                              fusion_left, hopf_from_bimonad,
                              identity_hopf_bundle, idempotence_suite,
                              trace_meta_check, try_invert_fusion)
from tracedcat.eilenberg_moore import (check_traced_monad,
                                       crosscheck_main_theorem,
                                       enumerate_algebras)
from tracedcat.hopf_monoid import (algebra_from_rep, group_algebra,
                                   group_representations, group_table_c2,
                                   group_table_s3, validate_hopf_monoid,
                                   verify_representable_coherence)


def _line(num, ok, text):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def test_criterion_01_trace_axiom_suites(mat, zle, fincppo, pfn, two_traces):
    reports = {}
    reports["mat"] = check_trace_axioms(
        mat, CaseBudget(seed=101, cases=40, max_object_size=4))
    reports["int_poset"] = check_trace_axioms(
        zle, CaseBudget(seed=101, cases=10, max_object_size=6),
        exhaustive=True)
    reports["fin_cppo"] = check_trace_axioms(
        fincppo, CaseBudget(seed=101, cases=25, max_object_size=4))
    reports["bposet_gfp"] = check_trace_axioms(
        two_traces.gfp, CaseBudget(seed=101, cases=25, max_object_size=4))
    # full enumeration over three-label sets is astronomically large
    # (10^9 tables for the two-loop axiom alone), so the partial-function
    # model is exhausted over two-label sets and densely sampled at three
    reports["pfn_exhaustive"] = check_trace_axioms(
        pfn, CaseBudget(seed=101, cases=10, max_object_size=2),
        exhaustive=True)
    reports["pfn_sampled"] = check_trace_axioms(
        pfn, CaseBudget(seed=101, cases=40, max_object_size=3))

    ok = all(r.verdict == "pass" and not r.failures for r in reports.values())
    ok = ok and reports["mat"].cases_run >= 200
    ok = ok and reports["fin_cppo"].cases_run >= 150
    ok = ok and reports["bposet_gfp"].cases_run >= 150
    ok = ok and reports["pfn_sampled"].cases_run >= 200
    detail = ", ".join(f"{k}={r.cases_run}" for k, r in reports.items())
    _line(1, ok, f"all five trace axioms, zero failures ({detail})")


def test_criterion_02_z_not_hopf(nbundle):
    window = CaseBudget(seed=102, cases=10, max_object_size=6)
    traced = check_traced_monad(nbundle, window)
    idem = idempotence_suite(nbundle, window)
    fusion = fusion_left(nbundle, -2, 1)
    pinned = (fusion.dom, fusion.cod) == (0, 1) \
        and try_invert_fusion(nbundle, -2, 1) is None
    bundle, witness = hopf_from_bimonad(nbundle, window)
    # the quoted pair (-2, 1) reproduces the displayed values 0 vs 1; the
    # size-ordered search additionally turns up the smaller pair (-1, 1)
    ok = (traced.verdict == "pass" and pinned and bundle is None
          and (witness["A"], witness["B"]) == (-1, 1)
          and idem.findings["idempotent"] is True)
    _line(2, ok,
          "truncation monad traced (exhaustive window 6), fusion fails at "
          f"(-2, 1) with objects 0 vs 1, idempotent; search minimum "
          f"({witness['A']}, {witness['B']})")


def test_criterion_03_sierpinski_meet(sierpinski_results, fincppo):
    meet = sierpinski_results["meet"]
    endos = fincppo.enumerate_hom(sierpinski(), sierpinski())
    ok = (meet["traced_monad"].verdict == "pass"
          and meet["traced_via_fix"].verdict == "pass"
          and meet["antipodes"] == []
          and len(endos) == 3)
    _line(3, ok,
          "meet monoid: traced monad both ways (exhaustive, posets <= 3); "
          f"no antipode among all {len(endos)} monotone endomaps")


def test_criterion_04_sierpinski_join(sierpinski_results):
    join = sierpinski_results["join"]
    pinned = join["pinned_witness"]
    ok = (join["traced_via_fix"].verdict == "fail"
          and pinned["fix_is_constant_bottom"]
          and pinned["violated"]
          and pinned["lhs_at_top_top"] == "bot"
          and pinned["rhs_at_top_top"] == "top")
    _line(4, ok,
          "join monoid: fixed-point lifting fails; feedback projection "
          "witness gives bot vs top at input (top, top)")


def test_criterion_05_group_algebras(mat, qc2, qs3):
    results = []
    for name, bundle, table in (("c2", qc2, group_table_c2()),
                                ("s3", qs3, group_table_s3())):
        d = group_algebra(mat, table)
        size = 3 if name == "c2" else 2
        budget = CaseBudget(seed=105, cases=60, max_object_size=size)
        big = CaseBudget(seed=105, cases=100, max_object_size=size)
        suites = [
            validate_hopf_monoid(mat, d),
            check_monad_laws(bundle, budget),
            check_bimonad_laws(bundle, budget),
            check_hopf(bundle, budget),
            verify_representable_coherence(bundle, big),
        ]
        coherence_cases = suites[4].findings
        traced = check_traced_monad(bundle, budget)
        suites.append(traced)
        results.append((name,
                        all(s.verdict == "pass" for s in suites),
                        traced.cases_run))
    ok = all(flag for _, flag, _ in results) \
        and all(cases >= 50 for _, _, cases in results)
    _line(5, ok,
          "group algebras (2-element and permutation-on-3): monoid laws, "
          "monad/bimonad/hopf suites, coherence, traced-monad with averaged "
          "equivariant samples, and module traces all pass, >= 50 cases each")


def test_criterion_06_mainthm_crosscheck(mat, fincppo, pfn, qc2, qs3):
    budget = CaseBudget(seed=106, cases=40, max_object_size=3)
    small = CaseBudget(seed=106, cases=25, max_object_size=2)
    runs = {
        "identity:mat": crosscheck_main_theorem(identity_hopf_bundle(mat),
                                                budget),
        "identity:fincppo": crosscheck_main_theorem(identity_hopf_bundle(fincppo), small),
        "identity:pfn": crosscheck_main_theorem(identity_hopf_bundle(pfn), small),
        "qc2": crosscheck_main_theorem(qc2, budget),
        "qs3": crosscheck_main_theorem(qs3, small),
    }
    agree = all(r.findings["agree"] and r.findings["traced_side"] == "pass"
                for r in runs.values())

    def mutated(A, B):
        good = qc2.hl_inv(A, B)
        rows = [list(r) for r in dense_rows(good)]
        if rows and rows[0]:
            rows[0][0] += 1
        return mat.morphism(good.dom, good.cod, rows)

    flipped = crosscheck_main_theorem(dataclasses.replace(qc2, hl_inv=mutated), budget)
    both_fail = (flipped.findings["traced_side"] == "fail"
                 and flipped.findings["coherent_side"] == "fail"
                 and flipped.findings["agree"])
    ok = agree and both_fail
    _line(6, ok,
          "traced-monad and trace-coherence verdicts agree on every Hopf "
          "bundle (truncation/meet/join bundles are not Hopf and are out of "
          "scope); one perturbed fusion-inverse entry flips both to fail")


def test_criterion_07_mat_partial_trace(mat, qc2, qs3):
    rng = random.Random(107)
    agree = 0
    for _ in range(220):
        A, B, X = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 4)
        f = mat.sample_hom(rng, A * X, B * X)
        if mat.mor_eq(mat.trace(X, A, B, f), mat.trace_by_cups(X, A, B, f)):
            agree += 1
    snakes = check_snake(mat, CaseBudget(seed=107, cases=10, max_object_size=6))

    duals_ok = True
    shipped = [(identity_hopf_bundle(mat), ["identity"])]
    for bundle, table in ((qc2, group_table_c2()), (qs3, group_table_s3())):
        reps = group_representations(mat, table)
        for rep_name, rep in reps.items():
            alg = algebra_from_rep(mat, table, rep)
            dual = dual_algebra(bundle, alg)  # validates internally
            duals_ok = duals_ok and dual.carrier == alg.carrier
    for dim in (0, 1, 3):
        ident = identity_hopf_bundle(mat)
        alg = enumerate_algebras(ident, dim)[0]
        dual = dual_algebra(ident, alg)
        duals_ok = duals_ok and mat.mor_eq(dual.action, mat.identity(dim))

    ok = agree == 220 and snakes.verdict == "pass" and duals_ok
    _line(7, ok,
          f"index-sum trace equals the cup/cap composite on {agree}/220 "
          "random cases (dims <= 4), snakes hold to dim 6, dual algebras of "
          "every shipped matrix bundle validate")


def test_criterion_08_conway_trace_roundtrip(fincppo):
    report = check_conway_trace_roundtrip(
        fincppo, CaseBudget(seed=108, cases=60, max_object_size=4))
    ok = report.verdict == "pass" and report.cases_run >= 100
    _line(8, ok,
          f"fixed point <-> trace derivations round-trip exactly on "
          f"{report.cases_run} sampled cases")


def test_criterion_09_two_traces_and_diagonal(two_traces):
    budget = CaseBudget(seed=109, cases=25, max_object_size=3)
    lfp = check_trace_axioms(two_traces.lfp, budget)
    gfp = check_trace_axioms(two_traces.gfp, budget)
    pair = check_trace_axioms(two_traces.product, budget)
    wit = two_trace_distinctness_witness(two_traces)
    diag = diagonal_preservation_check(budget)
    canonical = diag.failures[0]
    same_witness = canonical.inputs["f"] == wit["f"]
    ok = (lfp.verdict == gfp.verdict == pair.verdict == "pass"
          and lfp.cases_run >= 150 and gfp.cases_run >= 150
          and wit["distinct"]
          and wit["lfp_trace"].payload == (0,)      # constant bottom
          and wit["gfp_trace"].payload == (1,)      # constant top
          and diag.verdict == "fail" and same_witness)
    _line(9, ok,
          "ascending and descending traces both satisfy all five axioms "
          f"({lfp.cases_run}/{gfp.cases_run}/{pair.cases_run} cases incl. "
          "the pointwise pair), the diagonal witness separates them and "
          "breaks preservation")


def test_criterion_10_trace_meta(mat, nbundle, qc2):
    ident = trace_meta_check(identity_hopf_bundle(mat))
    enn = trace_meta_check(nbundle)
    qtwo = trace_meta_check(qc2)
    budget = CaseBudget(seed=110, cases=25, max_object_size=3)
    idem_ident = idempotence_suite(identity_hopf_bundle(mat), budget)
    idem_n = idempotence_suite(nbundle, budget)
    idem_q = idempotence_suite(qc2, budget)
    consistent = (ident.findings["holds"] == idem_ident.findings["idempotent"]
                  and enn.findings["holds"] == idem_n.findings["idempotent"]
                  and qtwo.findings["holds"] == idem_q.findings["idempotent"])
    ok = (ident.findings["holds"] and enn.findings["holds"]
          and not qtwo.findings["holds"] and consistent)
    _line(10, ok,
          "unit-loop trace equation holds for the identity and truncation "
          "bundles, fails for the 2-element group algebra, matching the "
          "idempotence verdicts throughout")
