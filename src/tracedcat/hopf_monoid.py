"""Cocommutative Hopf monoids and the monads they represent.

A Hopf monoid in a symmetric model induces the monad ``H (x) -`` whose
algebras are precisely the H-modules.  Modules, their tensors and their
morphisms are therefore the algebras, algebra tensors and algebra morphisms
of :mod:`tracedcat.eilenberg_moore`, and the module statements here are
checked through that layer.  The comultiplication builds the comonoidal
structure, and the antipode builds the inverse of the left fusion operator;
that inverse is transcribed here in Sweedler style (``h |-> h1 (x) h2``)
from its string-diagram form, so the constructor verifies the round-trip
``h_l o h_l_inv = id`` by brute force before handing the bundle out.

Group algebras over Q are the stock example: ``group_algebra`` turns a
finite Cayley table into Hopf-monoid data on the matrix model, and
``group_hopf_bundle`` attaches representation-based algebra generators and
an averaging (Reynolds) sampler for equivariant maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import CapabilityError, Model, Morphism, UsageError
from .laws import (CaseBudget, CheckReport, Recorder, _rng,
                   _size_sorted_objects)
from .monads import BimonadBundle, HopfBundle, MonadBundle, fusion_left


@dataclass(frozen=True)
class HopfMonoidData:
    carrier: object
    mult: Morphism      # H (x) H -> H
    unit: Morphism      # I -> H
    comult: Morphism    # H -> H (x) H
    counit: Morphism    # H -> I
    antipode: Morphism  # H -> H


# ------------------------------------------------------------------- laws


def validate_hopf_monoid(model: Model, d: HopfMonoidData) -> CheckReport:
    """Monoid, cocommutative-comonoid, bimonoid and antipode laws, exactly."""
    H = d.carrier
    I = model.unit_obj()
    i = model.identity
    rec = Recorder(model)

    def law(name, lhs, rhs):
        rec.check(name, {}, lhs, rhs)

    law("monoid_assoc",
        model.compose(d.mult, model.tensor(d.mult, i(H))),
        model.seq(model.assoc_inv(H, H, H), model.tensor(i(H), d.mult), d.mult))
    law("monoid_unit_left",
        model.seq(model.lunit_inv(H), model.tensor(d.unit, i(H)), d.mult), i(H))
    law("monoid_unit_right",
        model.seq(model.runit_inv(H), model.tensor(i(H), d.unit), d.mult), i(H))

    law("comonoid_coassoc",
        model.compose(model.tensor(d.comult, i(H)), d.comult),
        model.seq(d.comult, model.tensor(i(H), d.comult), model.assoc(H, H, H)))
    law("comonoid_counit_left",
        model.seq(d.comult, model.tensor(d.counit, i(H)), model.lunit(H)), i(H))
    law("comonoid_counit_right",
        model.seq(d.comult, model.tensor(i(H), d.counit), model.runit(H)), i(H))
    law("cocommutativity",
        model.compose(model.sym(H, H), d.comult), d.comult)

    law("bimonoid_mult_comult",
        model.compose(d.comult, d.mult),
        model.seq(model.tensor(d.comult, d.comult),
                  model.mid4(H, H, H, H),
                  model.tensor(d.mult, d.mult)))
    law("bimonoid_counit_unit",
        model.compose(d.counit, d.unit), i(I))
    law("bimonoid_comult_unit",
        model.compose(d.comult, d.unit),
        model.compose(model.tensor(d.unit, d.unit), model.lunit_inv(I)))
    law("bimonoid_counit_mult",
        model.compose(d.counit, d.mult),
        model.compose(model.lunit(I), model.tensor(d.counit, d.counit)))

    convolution_unit = model.compose(d.unit, d.counit)
    law("antipode_left",
        model.seq(d.comult, model.tensor(d.antipode, i(H)), d.mult),
        convolution_unit)
    law("antipode_right",
        model.seq(d.comult, model.tensor(i(H), d.antipode), d.mult),
        convolution_unit)

    return rec.finish("hopf_monoid_laws")


def antipode_search(model: Model, carrier, mult, unit, comult, counit) -> list:
    """Exhaustively search the hom-set H -> H for valid antipodes."""
    candidates = model.enumerate_hom(carrier, carrier)
    if candidates is None:
        raise CapabilityError("antipode_search needs an enumerable hom-set")
    found = []
    for s in candidates:
        d = HopfMonoidData(carrier, mult, unit, comult, counit, s)
        report = validate_hopf_monoid(model, d)
        if report.passed:
            found.append(s)
    return found


# ----------------------------------------------------------- induced monad


def induced_monad(model: Model, carrier, mult, unit, name,
                  **hooks) -> MonadBundle:
    """The representable monad ``H (x) -`` of a monoid in the model."""
    H = carrier
    i = model.identity

    def on_obj(A):
        return model.tensor_obj(H, A)

    def on_mor(f):
        return model.tensor(i(H), f)

    def mu(A):
        return model.compose(model.tensor(mult, i(A)), model.assoc(H, H, A))

    def eta(A):
        return model.compose(model.tensor(unit, i(A)), model.lunit_inv(A))

    return MonadBundle(model, name, on_obj, on_mor, mu, eta, **hooks)


def induced_bimonad(model: Model, carrier, mult, unit, comult, counit, name,
                    **hooks) -> BimonadBundle:
    H = carrier
    monad = induced_monad(model, carrier, mult, unit, name, **hooks)

    def m(A, B):
        AB = model.tensor_obj(A, B)
        return model.compose(model.mid4(H, H, A, B),
                             model.tensor(comult, model.identity(AB)))

    m_unit = model.compose(counit, model.runit(H))
    return BimonadBundle(**vars(monad), m=m, m_unit=m_unit)


def sweedler_fusion_inverse(model: Model, d: HopfMonoidData, A, B) -> Morphism:
    """(h (x) a) (x) (k (x) b)  |->  h1 (x) (a (x) (S(h2)k (x) b))."""
    H = d.carrier
    i = model.identity
    TB = model.tensor_obj(H, B)
    split = model.seq(                      # H (x) A  ->  H (x) (H (x) A)
        model.tensor(d.comult, i(A)),
        model.tensor(model.tensor(i(H), d.antipode), i(A)),
        model.assoc_inv(H, H, A))
    merge = model.seq(                      # (H (x) A) (x) (H (x) B) -> A (x) (H (x) B)
        model.tensor(model.sym(H, A), i(TB)),
        model.assoc_inv(A, H, TB),
        model.tensor(i(A), model.assoc(H, H, B)),
        model.tensor(i(A), model.tensor(d.mult, i(B))))
    return model.seq(
        model.tensor(split, i(TB)),
        model.assoc_inv(H, model.tensor_obj(H, A), TB),
        model.tensor(i(H), merge))


def induced_hopf_monad(model: Model, d: HopfMonoidData, name=None,
                       verify_max_size=2, **hooks) -> HopfBundle:
    """Hopf bundle of a validated Hopf monoid, fusion inverse included.

    The Sweedler transcription of the inverse is not taken on faith: the
    constructor brute-forces ``h_l o inv = id`` and ``inv o h_l = id`` over
    all object pairs up to ``verify_max_size``.
    """
    name = name or f"H({d.carrier!r})"
    bimonad = induced_bimonad(model, d.carrier, d.mult, d.unit, d.comult,
                              d.counit, name, **hooks)

    def hl_inv(A, B):
        return sweedler_fusion_inverse(model, d, A, B)

    probe = model.enumerate_objects(verify_max_size)
    for A, B in itertools.product(probe, repeat=2):
        hl = fusion_left(bimonad, A, B)
        inv = hl_inv(A, B)
        if not (model.mor_eq(model.compose(hl, inv), model.identity(hl.cod))
                and model.mor_eq(model.compose(inv, hl),
                                 model.identity(hl.dom))):
            raise UsageError(
                f"fusion inverse transcription fails round-trip at "
                f"({A!r}, {B!r}) for {name}")
    return HopfBundle(**vars(bimonad), hl_inv=hl_inv)


# ------------------------------------------------- representable coherence


def verify_representable_coherence(bundle: HopfBundle,
                                   budget: CaseBudget) -> CheckReport:
    """The induced bundle lifts the trace: coherence, traced-monad property,
    and the direct module statement (traces of module morphisms between
    module tensors are module morphisms)."""
    from .eilenberg_moore import (algebra_morphism_sides, algebra_tensor,
                                  check_trace_coherence, check_traced_monad,
                                  free_algebra, sample_algebra_morphisms)

    model = bundle.model
    coh = check_trace_coherence(bundle, budget)
    traced = check_traced_monad(bundle, budget)
    rec = Recorder(model, coh.cases_run + traced.cases_run,
                   coh.failures + traced.failures)

    # direct module-trace spot check; modules are algebras of H (x) -
    objs = _size_sorted_objects(model, budget)
    for case in range(max(10, budget.cases // 2)):
        rng = _rng(budget, "module_trace", case)
        A, B, X = (objs[rng.randrange(len(objs))] for _ in range(3))
        mA, mB, mX = (free_algebra(bundle, o) for o in (A, B, X))
        src = algebra_tensor(bundle, mA, mX)
        tgt = algebra_tensor(bundle, mB, mX)
        for f in sample_algebra_morphisms(bundle, rng, src, tgt):
            # one case: the premise, then the conclusion it licenses
            inputs = {"A": A, "B": B, "X": X, "f": f}
            if not rec.check("module_morphism_premise", inputs,
                             *algebra_morphism_sides(bundle, src, tgt, f)):
                continue
            tr = model.trace(mX.carrier, mA.carrier, mB.carrier, f)
            rec.check("module_trace_morphism", inputs,
                      *algebra_morphism_sides(bundle, mA, mB, tr),
                      count=False)
    findings = {"trace_coherence": coh.verdict, "traced_monad": traced.verdict}
    return rec.finish("representable_coherence",
                      exhaustive_ok="inconclusive" not in findings.values(),
                      findings=findings)


# ---------------------------------------------------------- group algebras


@dataclass(frozen=True)
class GroupTable:
    """A finite group as labels plus a complete Cayley table."""
    elements: tuple
    mul: dict

    def __post_init__(self):
        errs = group_table_errors(self)
        if errs:
            raise UsageError("invalid group table: " + errs[0])

    @property
    def identity_label(self):
        for e in self.elements:
            if all(self.mul[(e, x)] == x and self.mul[(x, e)] == x
                   for x in self.elements):
                return e
        raise UsageError("group table has no identity")

    def inverse(self, g):
        e = self.identity_label
        for h in self.elements:
            if self.mul[(g, h)] == e and self.mul[(h, g)] == e:
                return h
        raise UsageError(f"group element {g!r} has no inverse")


def group_table_errors(table) -> list:
    els = table.elements
    errs = []
    if len(set(els)) != len(els):
        return ["duplicate element labels"]
    for x, y in itertools.product(els, repeat=2):
        if (x, y) not in table.mul:
            return [f"missing product {x!r}*{y!r}"]
        if table.mul[(x, y)] not in els:
            return [f"product {x!r}*{y!r} leaves the element set"]
    idents = [e for e in els
              if all(table.mul[(e, x)] == x and table.mul[(x, e)] == x
                     for x in els)]
    if not idents:
        errs.append("no identity element")
        return errs
    e = idents[0]
    for g in els:
        if not any(table.mul[(g, h)] == e and table.mul[(h, g)] == e
                   for h in els):
            errs.append(f"element {g!r} has no inverse")
            return errs
    for x, y, z in itertools.product(els, repeat=3):
        if table.mul[(table.mul[(x, y)], z)] != table.mul[(x, table.mul[(y, z)])]:
            errs.append(f"associativity fails on triple ({x!r}, {y!r}, {z!r})")
            return errs
    return errs


def group_algebra(model, table: GroupTable) -> HopfMonoidData:
    """The group algebra Q[G] as a cocommutative Hopf monoid in matrices.

    Multiplication is linearised group multiplication, the comultiplication
    is grouplike (g |-> g (x) g), the counit sends each g to 1, and the
    antipode permutes each basis vector to its group inverse.
    """
    return _validated_group_algebra(model, table)[0]


def _validated_group_algebra(model, table: GroupTable):
    """``group_algebra``'s data with the passing report of its validation;
    raises UsageError if the data fails a Hopf-monoid law."""
    els = table.elements
    n = len(els)
    idx = {g: k for k, g in enumerate(els)}

    mult_rows = [[0] * (n * n) for _ in range(n)]
    for g, h in itertools.product(els, repeat=2):
        mult_rows[idx[table.mul[(g, h)]]][idx[g] * n + idx[h]] = 1
    mult = model.morphism(n * n, n, mult_rows)

    unit = model.morphism(1, n, [[1 if g == table.identity_label else 0]
                                 for g in els])
    comult_rows = [[0] * n for _ in range(n * n)]
    for g in els:
        comult_rows[idx[g] * n + idx[g]][idx[g]] = 1
    comult = model.morphism(n, n * n, comult_rows)

    counit = model.morphism(n, 1, [[1] * n])

    anti_rows = [[0] * n for _ in range(n)]
    for g in els:
        anti_rows[idx[table.inverse(g)]][idx[g]] = 1
    antipode = model.morphism(n, n, anti_rows)

    d = HopfMonoidData(n, mult, unit, comult, counit, antipode)
    report = validate_hopf_monoid(model, d)
    if not report.passed:
        raise UsageError("group algebra failed Hopf-monoid validation: "
                         + ", ".join(f.law for f in report.failures))
    return d, report


# named groups -------------------------------------------------------------


def group_table_c2() -> GroupTable:
    mul = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return GroupTable(("e", "s"), mul)


def _perm_label(p):
    return "".join(str(i) for i in p)


def group_table_s3() -> GroupTable:
    perms = list(itertools.permutations(range(3)))
    labels = {p: _perm_label(p) for p in perms}
    mul = {}
    for p, q in itertools.product(perms, repeat=2):
        comp = tuple(p[q[i]] for i in range(3))  # p after q
        mul[(labels[p], labels[q])] = labels[comp]
    return GroupTable(tuple(labels[p] for p in perms), mul)


def _perm_sign(p):
    sign = 1
    for i, j in itertools.combinations(range(len(p)), 2):
        if p[i] > p[j]:
            sign = -sign
    return sign


def group_representations(model, table: GroupTable) -> dict:
    """Exact irreducible-ish representation table for the builtin groups.

    Always includes the trivial and regular representations; for the
    builtin permutation groups it adds sign (and, for S3, the 2-dimensional
    standard representation).
    """
    els = table.elements
    n = len(els)
    idx = {g: k for k, g in enumerate(els)}
    reps = {}
    reps["trivial"] = {g: ((1,),) for g in els}
    regular = {}
    for g in els:
        rows = [[0] * n for _ in range(n)]
        for h in els:
            rows[idx[table.mul[(g, h)]]][idx[h]] = 1
        regular[g] = tuple(tuple(r) for r in rows)
    reps["regular"] = regular

    if n == 2:
        e = table.identity_label
        reps["sign"] = {g: ((1 if g == e else -1,),) for g in els}

    perms = {}
    for g in els:
        try:
            perms[g] = tuple(int(c) for c in g)
        except ValueError:
            perms = None
            break
    if perms is not None and all(len(set(p)) == len(p) for p in perms.values()):
        reps["sign"] = {g: ((_perm_sign(p),),) for g, p in perms.items()}
        deg = len(next(iter(perms.values())))
        if deg == 3:
            # standard representation in the basis e0-e1, e1-e2
            std = {}
            for g, p in perms.items():
                cols = []
                for v in ((1, -1, 0), (0, 1, -1)):
                    img = [0, 0, 0]
                    for i, c in enumerate(v):
                        img[p[i]] += c
                    # express img = x*(e0-e1) + y*(e1-e2): x = img0, y = -img2
                    cols.append((img[0], -img[2]))
                std[g] = tuple(zip(*cols))
            reps["standard"] = std
    return reps


def algebra_from_rep(model, table: GroupTable, rep) -> "TAlgebra":
    """Action matrix H (x) A -> A with columns indexed by (g, basis_i)."""
    from .eilenberg_moore import TAlgebra

    els = table.elements
    dim = len(next(iter(rep.values())))
    n = len(els)
    rows = [[0] * (n * dim) for _ in range(dim)]
    for k, g in enumerate(els):
        mat_g = rep[g]
        for i in range(dim):
            for r in range(dim):
                rows[r][k * dim + i] = mat_g[r][i]
    return TAlgebra(dim, model.morphism(n * dim, dim, rows))


def rep_from_action(model, group_size, algebra) -> list:
    """Recover the per-element matrices from an action morphism."""
    from .model_linear import dense_rows

    dim = algebra.carrier
    pay = dense_rows(algebra.action)
    mats = []
    for k in range(group_size):
        mats.append(tuple(tuple(pay[r][k * dim + i] for i in range(dim))
                          for r in range(dim)))
    return mats


def group_hopf_bundle(model, table: GroupTable, name=None
                      ) -> tuple[HopfMonoidData, CheckReport, HopfBundle]:
    """The group algebra's Hopf-monoid data, the passing report of its
    validation, and its induced Hopf bundle, with representation generators
    attached."""
    from .eilenberg_moore import validate_algebra
    from .model_linear import dense_mul

    d, report = _validated_group_algebra(model, table)
    reps = group_representations(model, table)
    els = table.elements
    n = len(els)
    inv_index = [els.index(table.inverse(g)) for g in els]
    plain_monad = induced_monad(model, n, d.mult, d.unit, "probe")

    algebras = []
    for rep in reps.values():
        alg = algebra_from_rep(model, table, rep)
        validate_algebra(plain_monad, alg)
        algebras.append(alg)

    def algebra_source(A):
        return [alg for alg in algebras if alg.carrier == A]

    def algmor_sampler(rng, src, tgt):
        rho_s = rep_from_action(model, n, src)
        rho_t = rep_from_action(model, n, tgt)
        raw = tuple(tuple(rng.randint(-3, 3) for _ in range(src.carrier))
                    for _ in range(tgt.carrier))
        total = None
        for k in range(n):
            term = dense_mul(rho_t[k], dense_mul(raw, rho_s[inv_index[k]]))
            if total is None:
                total = [list(r) for r in term]
            else:
                for r, row in enumerate(term):
                    for c, v in enumerate(row):
                        total[r][c] += v
        scale = Fraction(1, n)
        avg = [[scale * v for v in row] for row in total]
        return model.morphism(src.carrier, tgt.carrier, avg)

    return d, report, induced_hopf_monad(
        model, d, name=name or f"group_algebra[{n}]",
        algebra_source=algebra_source, algmor_sampler=algmor_sampler)
