import collections
import dataclasses

import pytest

from tracedcat import cli, hopf_monoid
from tracedcat.core import UsageError
from tracedcat.laws import CaseBudget
from tracedcat.model_iter import PfnModel
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import poset_product, sierpinski
from tracedcat.eilenberg_moore import (TAlgebra, algebra_tensor,
                                       check_trace_coherence,
                                       check_traced_monad,
                                       free_algebra, is_algebra,
                                       is_algebra_morphism, unit_algebra)
from tracedcat.hopf_monoid import (GroupTable, HopfMonoidData,
                                   antipode_search, group_algebra,
                                   group_representations,
                                   group_table_c2, group_table_s3,
                                   induced_bimonad, induced_hopf_monad,
                                   validate_hopf_monoid,
                                   verify_representable_coherence)
from tracedcat.monads import identity_hopf_bundle

BUDGET = CaseBudget(seed=17, cases=25, max_object_size=2)


def representable_coherence(bundle, budget):
    return verify_representable_coherence(
        bundle, budget, check_trace_coherence(bundle, budget),
        check_traced_monad(bundle, budget))


def test_group_algebra_structure(mat):
    d = group_algebra(mat, group_table_c2())[0]
    assert d.carrier == 2
    assert dense_rows(d.antipode) == ((1, 0), (0, 1))  # every element self-inverse
    s3 = group_algebra(mat, group_table_s3())[0]
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


def test_representation_tables_of_the_builtin_groups():
    # the algebra pools, and so every seeded draw, follow this key order
    c2, s3 = group_table_c2(), group_table_s3()
    reps = group_representations(c2)
    assert list(reps) == ["trivial", "regular", "sign"]
    assert reps["sign"] == {"e": ((1,),), "s": ((-1,),)}
    reps = group_representations(s3)
    assert list(reps) == ["trivial", "regular", "sign", "standard"]
    assert {g: m[0][0] for g, m in reps["sign"].items()} == {
        "012": 1, "021": -1, "102": -1, "120": 1, "201": 1, "210": -1}
    assert reps["standard"] == s3.reps["standard"]
    assert reps["standard"]["120"] == ((0, -1), (1, -1))


def test_validate_group_hopf_monoids(mat):
    for table in (group_table_c2(), group_table_s3()):
        assert validate_hopf_monoid(mat, group_algebra(mat, table)[0]).passed


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
                     "algmor_sampler":
                         lambda rng, src, tgt:
                             mat.sample_hom(rng, src.carrier, tgt.carrier)}
        bundle = induced_hopf_monad(model, d, name="trivial", **hooks)
        report = representable_coherence(bundle, BUDGET)
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
    d = group_algebra(mat, group_table_s3())[0]
    wrong = HopfMonoidData(d.carrier, d.mult, d.unit, d.comult, d.counit,
                           mat.identity(d.carrier))
    with pytest.raises(UsageError, match="round-trip"):
        induced_hopf_monad(mat, wrong)


def test_modules(mat, qc2):
    # C2-modules are the algebras of H (x) -: the regular module is the free
    # algebra on the unit, the trivial module is the unit algebra
    d = group_algebra(mat, group_table_c2())[0]
    reg = free_algebra(qc2, 1)
    assert reg.carrier == 2 and mat.mor_eq(reg.action, d.mult)
    assert is_algebra(qc2, reg)
    triv = unit_algebra(qc2)
    assert dense_rows(triv.action) == ((1, 1),)
    sign = TAlgebra(1, mat.morphism(2, 1, [[1, -1]]))
    assert is_algebra(qc2, sign)
    tensored = algebra_tensor(qc2, sign, sign)
    assert dense_rows(tensored.action) == ((1, 1),)  # trivial again

    assert is_algebra_morphism(qc2, reg, reg, mat.identity(2))
    skew = mat.morphism(2, 2, [[1, 2], [3, 4]])
    assert not is_algebra_morphism(qc2, reg, reg, skew)


def test_noncocommutative_comultiplication_breaks_symmetry(mat):
    # replace the grouplike comultiplication with g |-> g (x) gs; the
    # symmetric-bimonad law must now fail
    d = group_algebra(mat, group_table_c2())[0]
    shift = mat.morphism(2, 2, [[0, 1], [1, 0]])
    skew_comult = mat.compose(
        mat.tensor(mat.identity(2), shift), d.comult)
    assert not mat.mor_eq(mat.compose(mat.sym(2, 2), skew_comult),
                          skew_comult)
    b = induced_bimonad(mat, 2, d.mult, d.unit, skew_comult, d.counit, "skew")
    lhs = mat.compose(b.m(1, 1), b.on_mor(mat.sym(1, 1)))
    rhs = mat.compose(mat.sym(b.on_obj(1), b.on_obj(1)), b.m(1, 1))
    assert not mat.mor_eq(lhs, rhs)


def test_representable_coherence_for_groups(qc2, qs3):
    assert representable_coherence(qc2, BUDGET).passed
    assert representable_coherence(qs3, BUDGET).passed


def test_module_premise_witness_replays(mat, qc2):
    # a sampler that skips the averaging draws maps that are not module maps
    raw = dataclasses.replace(
        qc2, algmor_sampler=lambda rng, src, tgt:
            mat.sample_hom(rng, src.carrier, tgt.carrier))
    report = representable_coherence(raw, BUDGET)
    premise = [fl for fl in report.failures
               if fl.law == "algebra_morphism_premise"]
    assert premise
    assert all(not mat.mor_eq(fl.lhs, fl.rhs) for fl in premise)


def test_sampled_traced_monad_checks_its_premise(mat, qc2):
    # maps drawn without averaging are mostly not module maps: such an f
    # fails its premise, is counted once, and its trace is not judged
    raw = dataclasses.replace(
        qc2, algmor_sampler=lambda rng, src, tgt:
            mat.sample_hom(rng, src.carrier, tgt.carrier))
    report = check_traced_monad(raw, CaseBudget(seed=0, cases=60,
                                                max_object_size=3))
    assert (report.verdict, report.cases_run) == ("fail", 60)
    assert {fl.law for fl in report.failures} == {"algebra_morphism_premise"}
    assert all(not mat.mor_eq(fl.lhs, fl.rhs) for fl in report.failures)


def test_representable_coherence_passes_traced_skips_through(capped_pfn):
    # coherence runs on an uncapped model and passes, so only the
    # traced-monad side skips hom-sets above the 50-map cap
    budget = CaseBudget(seed=0, cases=20, max_object_size=2)
    bundle = identity_hopf_bundle(capped_pfn)
    report = verify_representable_coherence(
        bundle, budget,
        check_trace_coherence(identity_hopf_bundle(PfnModel()), budget),
        check_traced_monad(bundle, budget))
    assert (report.verdict, report.cases_run) == ("inconclusive", 1571)
    assert not report.failures
    assert report.findings == {"trace_coherence": "pass",
                               "traced_monad": "inconclusive"}


def test_group_algebra_runs_each_lifting_check_once(monkeypatch):
    # module_traces takes its row's coherence and traced-monad reports
    # instead of running both checkers again
    calls = collections.Counter()
    for module in (cli, hopf_monoid):
        for name in ("check_trace_coherence", "check_traced_monad"):
            if hasattr(module, name):
                def counted(*args, _check=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _check(*args)
                monkeypatch.setattr(module, name, counted)
    cli.run_scenario("group-algebra:c2", cli.RunConfig(0, 20, 2))
    assert calls == {"check_trace_coherence": 1, "check_traced_monad": 1}
