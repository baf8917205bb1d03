import copy
import dataclasses
import functools
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tracedcat
from tracedcat.cli import RunConfig, run_scenario, serialize_value
from tracedcat.core import (BoundaryError, EmptyHomError, HomSet,
                            ModelMismatchError, Morphism, UsageError)
from tracedcat.hopf_monoid import induced_bimonad
from tracedcat.laws import CaseBudget, Recorder
from tracedcat.model_order import (FinCppoModel, FinPoset, PairOb,
                                   _equivariance_masks,
                                   _module_morphism_enumerator, _topo_covers,
                                   diagonal_preservation_check,
                                   enumerate_monotone_tables,
                                   poset_from_pairs, poset_product,
                                   sierpinski, sigma_join_bimonad,
                                   sigma_meet_bimonad, strictness_property,
                                   two_trace_distinctness_witness)
from tracedcat.monads import fusion_left
from tracedcat.eilenberg_moore import (algebra_pool, algebra_tensor,
                                       enumerate_algebra_morphisms,
                                       enumerate_algebras,
                                       is_algebra_morphism)


def test_int_poset_basics(zle):
    assert zle.tensor_obj(3, -7) == -4
    assert zle.dual_obj(5) == -5
    assert zle.trace(4, 1, 2, zle.arrow(5, 6)) == zle.arrow(1, 2)
    with pytest.raises(BoundaryError):
        zle.arrow(3, 1)
    with pytest.raises(EmptyHomError):
        zle.sample_hom(random.Random(0), 3, 1)
    assert list(zle.enumerate_hom(1, 1)) == [zle.arrow(1, 1)]
    assert list(zle.enumerate_hom(2, 1)) == []


def test_n_monad_values(nbundle):
    assert nbundle.on_obj(5) == 5
    assert nbundle.on_obj(-3) == 0
    fusion = fusion_left(nbundle, -2, 1)
    assert (fusion.dom, fusion.cod) == (0, 1)  # truncates to 0 vs 0 + 1
    assert nbundle.model.invert(fusion) is None


def test_poset_validation():
    with pytest.raises(UsageError, match="antisymmetry"):
        poset_from_pairs(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(UsageError):
        poset_from_pairs(("a", "a"), [])
    chain = poset_from_pairs(("x", "y", "z"), [("x", "y"), ("y", "z")])
    assert chain.leq(0, 2)  # transitive closure applied
    assert chain.bottom == 0 and chain.top == 2


def test_posets_are_interned(fincppo, two_traces):
    elements = ("bot", "left", "right", "top")
    pairs = [("bot", "left"), ("bot", "right"), ("left", "top"),
             ("right", "top")]
    diamond = poset_from_pairs(elements, pairs)
    assert diamond is poset_from_pairs(elements, pairs[::-1])
    assert diamond is FinPoset(diamond.elements, set(diamond.le))
    assert not diamond.leq(1, 2) and not diamond.leq(2, 1)
    sig = sierpinski()
    assert sig is poset_from_pairs(["bot", "top"], [("bot", "top")])
    square = poset_product(sig, sig)
    assert square is FinPoset(square.elements, square.le)
    chain = FinPoset((0, 1), {(0, 0), (0, 1), (1, 1)})
    assert chain is fincppo.enumerate_objects(2)[1]
    assert chain is two_traces.gfp.enumerate_objects(2)[1]
    assert fincppo.tensor_obj(chain, chain) is poset_product(chain, chain)
    for same in (copy.copy(diamond), copy.deepcopy(diamond),
                 pickle.loads(pickle.dumps(diamond))):
        assert same is diamond
    with pytest.raises(AttributeError):
        diamond.bottom = 3
    assert (diamond.bottom, diamond.top, diamond.size) == (0, 3, 4)


def test_unhashable_element_is_a_usage_error():
    with pytest.raises(UsageError, match=r"label \[1\] is not hashable"):
        poset_from_pairs([[1]], [])
    with pytest.raises(UsageError, match=r"label \[1\] is not hashable"):
        FinPoset(([1],), frozenset())


def test_order_pair_outside_the_elements_is_a_usage_error():
    for pair in ((0, 2), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(UsageError, match=r"outside range\(2\)"):
            FinPoset((0, 1), {(0, 0), (1, 1), pair})


def _reference_orders(required, max_size):
    """The orders a poset model enumerates on 0..n-1 for n <= max_size, as
    sets of index pairs closed by the pair loop, in enumeration order."""
    out = []
    for n in range(1, max_size + 1):
        middle = list(itertools.combinations(range(n), 2))
        for subset in itertools.product((False, True), repeat=len(middle)):
            rel = {(i, i) for i in range(n)} | required(n)
            rel.update(p for p, keep in zip(middle, subset) if keep)
            while True:
                new = {(i, l) for (i, j) in rel for (k, l) in rel
                       if j == k} - rel
                if not new:
                    break
                rel |= new
            if rel not in out:
                out.append(rel)
    return out


def _reference_structure(n, rel):
    """``(bottom, top, _topo_covers)`` of an order given as index pairs."""
    bottom = next((i for i in range(n)
                   if all((i, j) in rel for j in range(n))), None)
    top = next((i for i in range(n)
                if all((j, i) in rel for j in range(n))), None)
    below = [[j for j in range(n) if j != i and (j, i) in rel]
             for i in range(n)]
    order = tuple(sorted(range(n), key=lambda i: (len(below[i]), i)))
    covers = tuple(tuple(j for j in below[i]
                         if not any((j, k) in rel for k in below[i] if k != j))
                   for i in range(n))
    return bottom, top, (order, covers)


def test_order_masks_match_the_pair_reference(fincppo, two_traces):
    def pointed(n):
        return {(0, k) for k in range(1, n)}

    def bounded(n):
        return pointed(n) | {(k, n - 1) for k in range(n - 1)}

    orders = {}  # poset -> its order as a plain set of index pairs
    for model, required in ((fincppo, pointed), (two_traces.lfp, bounded),
                            (two_traces.gfp, bounded)):
        objs, rels = model.enumerate_objects(3), _reference_orders(required, 3)
        assert [P.le for P in objs] == rels
        orders.update(zip(objs, rels))
    for P, Q in list(itertools.product(orders, repeat=2)):
        nq = Q.size
        orders[poset_product(P, Q)] = {
            (i1 * nq + j1, i2 * nq + j2)
            for (i1, i2) in orders[P] for (j1, j2) in orders[Q]}
    assert len(orders) == 4 + 4 ** 2
    for P, rel in orders.items():
        n = P.size
        assert FinPoset(P.elements, P.le) is P
        assert FinPoset(P.elements, rel) is P and P.le == rel
        assert all(P.leq(i, j) == ((i, j) in rel)
                   for i in range(n) for j in range(n))
        assert (P.bottom, P.top, _topo_covers(P)) == _reference_structure(n,
                                                                          rel)
    assert serialize_value(poset_product(sierpinski(), sierpinski())) == {
        "elements": ["('bot', 'bot')", "('bot', 'top')", "('top', 'bot')",
                     "('top', 'top')"],
        "le": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]}


def test_laws_fincppo_traced_memory_peak():
    # in a fresh process: poset_product's cache is process-wide, and the
    # tests before this one have filled it
    script = ("import tracemalloc\n"
              "from tracedcat.cli import RunConfig, run_scenario\n"
              "tracemalloc.start()\n"
              "run_scenario('laws:fincppo', RunConfig(0, 60, 3))\n"
              "print(tracemalloc.get_traced_memory()[1])\n")
    src = str(Path(tracedcat.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert int(done.stdout) < 3 * 2 ** 20


def test_poset_product_row_major():
    sig = sierpinski()
    prod = poset_product(sig, sig)
    assert prod.elements == (("bot", "bot"), ("bot", "top"),
                             ("top", "bot"), ("top", "top"))
    assert prod.bottom == 0 and prod.top == 3


def test_monotone_enumeration_counts():
    sig = sierpinski()
    maps = list(enumerate_monotone_tables(sig, sig))
    assert sorted(maps) == [(0, 0), (0, 1), (1, 1)]


def test_monotone_tables_match_brute_force(fincppo, two_traces):
    # every table of range(|Q|)^|P| that is monotone, in lexicographic order
    # along the topological order the odometer walks; the bounded posets'
    # tops have predecessors that they do not cover
    objs = list(dict.fromkeys(fincppo.enumerate_objects(3)
                              + two_traces.lfp.enumerate_objects(3)))
    domains = objs + [poset_product(A, B) for A in objs for B in objs]
    for P in domains:
        order = _topo_covers(P)[0]
        for Q in objs:
            brute = sorted(
                (t for t in itertools.product(range(Q.size), repeat=P.size)
                 if all(Q.leq(t[i], t[j]) for (i, j) in P.le)),
                key=lambda t: [t[i] for i in order])
            assert list(enumerate_monotone_tables(P, Q)) == brute


def test_sample_hom_is_monotone(fincppo):
    rng = random.Random(2)
    objs = fincppo.enumerate_objects(4)
    for _ in range(100):
        P = objs[rng.randrange(len(objs))]
        Q = objs[rng.randrange(len(objs))]
        f = fincppo.sample_hom(rng, P, Q)
        for (i, j) in P.le:
            assert Q.leq(f.payload[i], f.payload[j])


def _reference_sample_hom(model, rng, A, B):
    """The poset sampler as a list comprehension over ``B.leq``: each point,
    in topological order, draws among the images above its lower covers'."""
    order, covers = _topo_covers(A)
    for _ in range(32):
        images = {}
        for i in order:
            opts = [v for v in range(B.size)
                    if all(B.leq(images[j], v) for j in covers[i])]
            if not opts:
                break
            images[i] = rng.choice(opts)
        else:
            return tuple(images[i] for i in range(A.size))
    return (model._start_index(B),) * A.size


def test_sample_hom_draws_as_the_reference(fincppo, two_traces):
    for model in (fincppo, two_traces.lfp, two_traces.gfp):
        objs = model.enumerate_objects(3)
        for A, B in itertools.product(objs, repeat=2):
            for seed in range(5):
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert (model.sample_hom(rng, A, B).payload
                            == _reference_sample_hom(model, ref, A, B))
                assert rng.getstate() == ref.getstate()


def test_canonical_bimonad_matches_diagonal_built_one(fincppo):
    # the comonoidal map through projections coincides with the one built
    # from the forced comultiplication, as the uniqueness statement demands
    sig = sierpinski()
    meet = sigma_meet_bimonad(fincppo)
    mult = fincppo.table(poset_product(sig, sig), sig, (0, 0, 0, 1))
    unit = fincppo.table(fincppo.unit_obj(), sig, (1,))
    comult = fincppo.pair(fincppo.identity(sig), fincppo.identity(sig))
    counit = fincppo.terminal_map(sig)
    diag = induced_bimonad(fincppo, sig, mult, unit, comult, counit, "diag")
    objs = fincppo.enumerate_objects(2)
    for A in objs:
        for B in objs:
            assert fincppo.mor_eq(meet.m(A, B), diag.m(A, B))
    assert fincppo.mor_eq(meet.m_unit, diag.m_unit)


def test_equivariant_enumerator_agrees_with_filtering(fincppo):
    meet = sigma_meet_bimonad(fincppo)
    sig = sierpinski()
    algs = enumerate_algebras(meet, sig)
    assert len(algs) >= 2  # the meet action and the constant action
    assert any(a.action.payload == (0, 0, 0, 1) for a in algs)  # meet itself
    for b in (meet, sigma_join_bimonad(fincppo)):
        pool = algebra_pool(b, CaseBudget(seed=0, cases=20, max_object_size=2))
        tensors = [algebra_tensor(b, L, R) for L in pool for R in pool]
        for src, tgt in itertools.product(tensors, repeat=2):
            fast = _module_morphism_enumerator(
                fincppo, functools.partial(_equivariance_masks, sig.size),
                src, tgt)
            slow = [f for f in fincppo.enumerate_hom(src.carrier, tgt.carrier)
                    if is_algebra_morphism(b, src, tgt, f)]
            assert list(fast) == slow
            assert list(enumerate_algebra_morphisms(b, src, tgt)) == slow


def test_hom_set_traces_equal_element_traces(fincppo, two_traces):
    # every A, B of size <= 2 and X of size <= 3 whose Hom(A x X, B x X)
    # enumerates; each trace is also the fixed-point formula the Conway
    # round trip checks.  Rows f(a, -) repeat across a hom-set, and each
    # distinct row is traced once per call.
    rows = repeated = 0
    for model in (fincppo, two_traces.lfp, two_traces.gfp):
        small = model.enumerate_objects(2)
        for A, B, X in itertools.product(small, small,
                                         model.enumerate_objects(3)):
            dom, cod = model.tensor_obj(A, X), model.tensor_obj(B, X)
            homs = model.enumerate_hom(dom, cod)
            if homs is None:
                continue
            hom = HomSet(model.name, dom, cod, [f.payload for f in homs])
            traced = model.trace(X, A, B, hom)
            assert (traced.dom, traced.cod) == (A, B)
            assert list(traced) == [model.trace(X, A, B, f) for f in homs]
            for f, tr in zip(homs, traced):
                feedback = model.compose(model.proj1(B, X), f)
                assert tr == model.seq(
                    model.pair(model.identity(A), model.fix(X, A, feedback)),
                    f, model.proj0(B, X))
            nx = X.size
            seen = {t[b:b + nx] for t in hom.payloads
                    for b in range(0, dom.size, nx)}
            rows += len(hom) * A.size
            repeated += len(hom) * A.size - len(seen)
    assert repeated > rows // 2


def test_algebra_morphism_hook_must_fit_its_boundary(fincppo):
    meet = sigma_meet_bimonad(fincppo)
    sig = sierpinski()
    alg = enumerate_algebras(meet, sig)[0]
    good = enumerate_algebra_morphisms(meet, alg, alg)
    assert isinstance(good, HomSet) and (good.dom, good.cod) == (sig, sig)
    point = fincppo.unit_obj()
    for wrong, error in ((HomSet(fincppo.name, point, sig, ()), BoundaryError),
                         (HomSet(fincppo.name, sig, point, ()), BoundaryError),
                         (HomSet("pfn", sig, sig, ()), ModelMismatchError),
                         (list(good), ModelMismatchError)):
        hooked = dataclasses.replace(
            meet, algmor_enumerator=lambda src, tgt, out=wrong: out)
        with pytest.raises(error):
            enumerate_algebra_morphisms(hooked, alg, alg)


def test_two_trace_witness(two_traces):
    wit = two_trace_distinctness_witness(two_traces)
    assert wit["distinct"]
    assert wit["lfp_trace"].payload == (0,)
    assert wit["gfp_trace"].payload == (1,)


def test_trace_flavours_agree_on_unique_fixed_points(two_traces):
    sig = sierpinski()
    point = two_traces.lfp.unit_obj()
    dom = poset_product(point, sig)
    cod = poset_product(sig, sig)
    const_top = two_traces.lfp.table(dom, cod, (3, 3))  # f(*, x) = (top, top)
    lo = two_traces.lfp.trace(sig, point, sig, const_top)
    hi = two_traces.gfp.trace(sig, point, sig, const_top)
    assert lo.payload == hi.payload == (1,)


def test_diagonal_preservation_fails(two_traces):
    report = diagonal_preservation_check(CaseBudget(seed=7, cases=25,
                                                    max_object_size=3))
    assert report.verdict == "fail"
    assert report.findings["canonical_witness_separates"]


def test_pair_model_is_componentwise(two_traces):
    prod = two_traces.product
    sig = sierpinski()
    A = PairOb(sig, sig)
    ident = prod.identity(A)
    assert ident.payload[0] == two_traces.lfp.identity(sig)
    assert ident.payload[1] == two_traces.gfp.identity(sig)
    chain = poset_from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    B, C = PairOb(chain, sig), PairOb(sig, chain)
    lfp, gfp = two_traces.lfp, two_traces.gfp
    assert prod.assoc(A, B, C).payload == (lfp.assoc(sig, chain, sig),
                                           gfp.assoc(sig, sig, chain))
    assert prod.lunit(B).payload == (lfp.lunit(chain), gfp.lunit(sig))
    assert prod.runit_inv(C).payload == (lfp.runit_inv(sig),
                                         gfp.runit_inv(chain))
    # the factors' tensors skip their own checks, so the pair model's
    # check_obj must still reject a foreign or unbounded component
    vee = poset_from_pairs(("z", "a", "b"), [("z", "a"), ("z", "b")])
    for bad in (PairOb(sig, 3), PairOb(sig, vee)):
        with pytest.raises(ModelMismatchError):
            prod.tensor_obj(A, bad)


def _sierpinski_row(name):
    """The suites of a Sierpinski row run at cases 50 and size 3, by name.

    Its expected_match covers the empty antipode list of the meet and every
    pinned fact of the join."""
    payload = run_scenario(name, RunConfig(0, 50, 3))
    assert payload["expected_match"]
    return dict(zip(payload["suite_names"], payload["suites"]))


def test_sierpinski_meet_results(fincppo):
    suites = _sierpinski_row("sierpinski-meet")
    assert {name: rep["verdict"] for name, rep in suites.items()} == {
        "traced_monad": "pass", "traced_via_fix": "pass",
        "strictness": "pass"}
    # the antipode search ranges over all three monotone endomaps
    assert len(fincppo.enumerate_hom(sierpinski(), sierpinski())) == 3
    # the 4000-case stop leaves most object triples unchecked, and says so
    assert suites["strictness"]["findings"] == {"checked_object_tuples": 28,
                                                "skipped_object_tuples": 0,
                                                "total_object_tuples": 64}


class _CappedFinCppo(FinCppoModel):
    """Pointed posets that decline every hom-set above 20 monotone maps."""

    hom_cap = 20


def test_strictness_counts_declined_hom_sets():
    report = strictness_property(_CappedFinCppo(),
                                 CaseBudget(seed=0, cases=20,
                                            max_object_size=3))
    assert (report.verdict, report.cases_run) == ("inconclusive", 51)
    assert not report.failures
    assert report.findings == {"checked_object_tuples": 10,
                               "skipped_object_tuples": 54,
                               "total_object_tuples": 64}


class _WrongFixFinCppo(FinCppoModel):
    """Pointed posets whose fixed points ``A -> X`` over the one-point A and
    the two-point chain X are always X's top: one wrong boundary, for a
    Morphism and a HomSet argument alike."""

    def fix(self, X, A, f):
        out = super().fix(X, A, f)
        if (A.size, X.size) != (1, 2):
            return out
        if isinstance(out, HomSet):
            return HomSet(self.name, A, X, [(1,)] * len(out))
        return Morphism(self.name, A, X, (1,))


def _strictness_case_by_case(model, budget):
    """``strictness_property`` with each (h, f, g) decided alone, on
    Morphisms: its cases, in order, and its stop after the object triple
    that passes 4000 cases."""
    rec = Recorder(model)
    checked = 0
    objs = model.enumerate_objects(min(3, budget.max_object_size))
    for A, X, Y in itertools.product(objs, repeat=3):
        hs = model.enumerate_hom(X, Y)
        fs = model.enumerate_hom(poset_product(A, X), X)
        gs = model.enumerate_hom(poset_product(A, Y), Y)
        if hs is None or fs is None or gs is None:
            rec.skipped += 1
            continue
        checked += 1
        for h in hs:
            if h.payload[X.bottom] != Y.bottom:
                continue
            one_h = model.tensor(model.identity(A), h)
            for f, g in itertools.product(fs, gs):
                if model.mor_eq(model.compose(g, one_h), model.compose(h, f)):
                    rec.check("strict_fixed_point_transfer",
                              {"A": A, "X": X, "Y": Y, "h": h, "f": f,
                               "g": g},
                              model.fix(Y, A, g),
                              model.compose(h, model.fix(X, A, f)))
        if rec.cases > 4000:
            break
    return rec.finish("strict_fixed_point_transfer",
                      {"checked_object_tuples": checked,
                       "skipped_object_tuples": rec.skipped,
                       "total_object_tuples": len(objs) ** 3})


def test_batched_strictness_matches_a_case_by_case_run():
    model, budget = _WrongFixFinCppo(), CaseBudget(0, 60, 3)
    batched = strictness_property(model, budget)
    alone = _strictness_case_by_case(model, budget)
    assert (batched.verdict, batched.cases_run, batched.findings) == (
        alone.verdict, alone.cases_run, alone.findings)
    assert [(fl.law, fl.inputs, fl.lhs, fl.rhs) for fl in batched.failures] \
        == [(fl.law, fl.inputs, fl.lhs, fl.rhs) for fl in alone.failures]
    # the failures span several triples, and several cases of one triple,
    # so a reordering or a dropped case shows
    triples = [(fl.inputs["A"], fl.inputs["X"], fl.inputs["Y"])
               for fl in alone.failures]
    assert alone.verdict == "fail" and len(set(triples)) > 1
    assert len(triples) > len(set(triples))


def test_sierpinski_join_results():
    suites = _sierpinski_row("sierpinski-join")
    assert {name: rep["verdict"] for name, rep in suites.items()} == {
        "traced_monad": "fail", "traced_via_fix": "fail"}


def test_join_module_actions_enumerandae(fincppo):
    join = sigma_join_bimonad(fincppo)
    sig = sierpinski()
    algs = enumerate_algebras(join, sig)
    # the join action on the lattice itself is among them
    assert any(a.action.payload == (0, 1, 1, 1) for a in algs)
