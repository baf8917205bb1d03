import pytest

from tracedcat import eilenberg_moore
from tracedcat.core import UsageError
from tracedcat.laws import CaseBudget
from tracedcat.model_iter import PfnModel
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import poset_product, sierpinski
from tracedcat.eilenberg_moore import (TAlgebra, algebra_tensor,
                                       free_algebra, is_algebra,
                                       is_algebra_morphism, unit_algebra)
from tracedcat.hopf_monoid import (GroupTable, HopfMonoidData,
                                   antipode_search, group_algebra,
                                   group_table_c2, group_table_s3,
                                   induced_bimonad, induced_hopf_monad,
                                   validate_hopf_monoid,
                                   verify_representable_coherence)
from tracedcat.monads import identity_hopf_bundle

BUDGET = CaseBudget(seed=17, cases=25, max_object_size=2)


def test_group_algebra_structure(mat):
    d = group_algebra(mat, group_table_c2())
    assert d.carrier == 2
    assert dense_rows(d.antipode) == ((1, 0), (0, 1))  # every element self-inverse
    s3 = group_algebra(mat, group_table_s3())
    anti = dense_rows(s3.antipode)
    table = group_table_s3()
    for j, g in enumerate(table.elements):
        i = table.elements.index(table.inverse(g))
        assert anti[i][j] == 1


def test_malformed_group_tables():
    with pytest.raises(UsageError, match="missing product"):
        GroupTable(("e", "s"), {("e", "e"): "e"})
    with pytest.raises(UsageError, match="no identity"):
        GroupTable(("a", "b"), {("a", "a"): "a", ("a", "b"): "a",
                                ("b", "a"): "b", ("b", "b"): "b"})
    # a loop with identity and two-sided inverses that is not associative
    els = tuple("eabcd")
    square = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
              [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    mul = {(els[i], els[j]): els[square[i][j]]
           for i in range(5) for j in range(5)}
    with pytest.raises(UsageError, match="associativity fails on triple"):
        GroupTable(els, mul)


def test_validate_group_hopf_monoids(mat):
    for table in (group_table_c2(), group_table_s3()):
        assert validate_hopf_monoid(mat, group_algebra(mat, table)).passed


def test_trivial_hopf_monoid_on_unit(mat, fincppo):
    for model in (mat, fincppo):
        I = model.unit_obj()
        d = HopfMonoidData(
            I, model.lunit(I), model.identity(I),
            model.lunit_inv(I), model.identity(I), model.identity(I))
        assert validate_hopf_monoid(model, d).passed
        hooks = {}
        if model is mat:
            # matrix hom-sets are not enumerable: supply the forced module
            # structure (the action collapses the unit factor) and note that
            # every map is equivariant for it
            hooks = {"algebra_source":
                         lambda A: [TAlgebra(A, mat.lunit(A))],
                     "algebra_source_complete": True,
                     "algmor_sampler":
                         lambda rng, src, tgt:
                             mat.sample_hom(rng, src.carrier, tgt.carrier)}
        bundle = induced_hopf_monad(model, d, name="trivial", **hooks)
        report = verify_representable_coherence(model, d, BUDGET, bundle=bundle)
        assert report.passed


def test_meet_monoid_has_no_antipode(fincppo):
    sig = sierpinski()
    mult = fincppo.table(poset_product(sig, sig), sig, (0, 0, 0, 1))
    unit = fincppo.table(fincppo.unit_obj(), sig, (1,))
    comult = fincppo.pair(fincppo.identity(sig), fincppo.identity(sig))
    counit = fincppo.terminal_map(sig)
    endos = fincppo.enumerate_hom(sig, sig)
    assert len(endos) == 3  # all monotone endomaps of the two-point lattice
    assert antipode_search(fincppo, sig, mult, unit, comult, counit) == []
    # and each candidate fails precisely on an antipode law
    for s in endos:
        report = validate_hopf_monoid(
            fincppo, HopfMonoidData(sig, mult, unit, comult, counit, s))
        assert {f.law for f in report.failures} <= {"antipode_left",
                                                    "antipode_right"}
        assert report.failures


def test_sweedler_inverse_on_basis(mat, qc2):
    # (g, a, k, b) |-> (g, a, inverse(g) k, b); at dims A = B = 1 and the
    # two-element group this swaps the (s, e) and (s, s) basis vectors
    inv = qc2.hl_inv(1, 1)
    assert dense_rows(inv) == ((1, 0, 0, 0),
                               (0, 1, 0, 0),
                               (0, 0, 0, 1),
                               (0, 0, 1, 0))


def test_wrong_antipode_fails_construction(mat):
    d = group_algebra(mat, group_table_s3())
    wrong = HopfMonoidData(d.carrier, d.mult, d.unit, d.comult, d.counit,
                           mat.identity(d.carrier))
    with pytest.raises(UsageError, match="round-trip"):
        induced_hopf_monad(mat, wrong)


def test_modules(mat, qc2):
    # C2-modules are the algebras of H (x) -: the regular module is the free
    # algebra on the unit, the trivial module is the unit algebra
    d = group_algebra(mat, group_table_c2())
    reg = free_algebra(mat, qc2.monad, 1)
    assert reg.carrier == 2 and mat.mor_eq(reg.action, d.mult)
    assert is_algebra(mat, qc2.monad, reg)
    triv = unit_algebra(mat, qc2)
    assert dense_rows(triv.action) == ((1, 1),)
    sign = TAlgebra(1, mat.morphism(2, 1, [[1, -1]]))
    assert is_algebra(mat, qc2.monad, sign)
    tensored = algebra_tensor(mat, qc2, sign, sign)
    assert dense_rows(tensored.action) == ((1, 1),)  # trivial again

    assert is_algebra_morphism(mat, qc2.monad, reg, reg, mat.identity(2))
    skew = mat.morphism(2, 2, [[1, 2], [3, 4]])
    assert not is_algebra_morphism(mat, qc2.monad, reg, reg, skew)


def test_noncocommutative_comultiplication_breaks_symmetry(mat):
    # replace the grouplike comultiplication with g |-> g (x) gs; the
    # symmetric-bimonad law must now fail
    d = group_algebra(mat, group_table_c2())
    shift = mat.morphism(2, 2, [[0, 1], [1, 0]])
    skew_comult = mat.compose(
        mat.tensor(mat.identity(2), shift), d.comult)
    assert not mat.mor_eq(mat.compose(mat.sym(2, 2), skew_comult),
                          skew_comult)
    b = induced_bimonad(mat, 2, d.mult, d.unit, skew_comult, d.counit, "skew")
    lhs = mat.compose(b.m(1, 1), b.on_mor(mat.sym(1, 1)))
    rhs = mat.compose(mat.sym(b.on_obj(1), b.on_obj(1)), b.m(1, 1))
    assert not mat.mor_eq(lhs, rhs)


def test_representable_coherence_for_groups(mat, qc2, qs3):
    d2 = group_algebra(mat, group_table_c2())
    assert verify_representable_coherence(mat, d2, BUDGET, bundle=qc2).passed
    d3 = group_algebra(mat, group_table_s3())
    assert verify_representable_coherence(mat, d3, BUDGET, bundle=qs3).passed


def test_representable_coherence_passes_traced_skips_through(capped_pfn,
                                                             monkeypatch):
    # coherence runs on an uncapped model and passes, so only the
    # traced-monad side skips hom-sets above the 50-map cap
    check_trace_coherence = eilenberg_moore.check_trace_coherence
    monkeypatch.setattr(eilenberg_moore, "check_trace_coherence",
                        lambda model, bundle, budget: check_trace_coherence(
                            PfnModel(), bundle, budget))
    I = capped_pfn.unit_obj()
    d = HopfMonoidData(I, capped_pfn.lunit(I), capped_pfn.identity(I),
                       capped_pfn.lunit_inv(I), capped_pfn.identity(I),
                       capped_pfn.identity(I))
    report = verify_representable_coherence(
        capped_pfn, d, CaseBudget(seed=0, cases=20, max_object_size=2),
        bundle=identity_hopf_bundle(capped_pfn))
    assert (report.verdict, report.cases_run) == ("inconclusive", 1571)
    assert not report.failures
    assert report.findings == {"trace_coherence": "pass",
                               "traced_monad": "inconclusive"}
