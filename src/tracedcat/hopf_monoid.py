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

Group algebras over Q are the stock example: ``GroupTable`` validates a
Cayley table once (labels are names only), ``group_algebra`` turns it into
Hopf-monoid data on the matrix model, and ``group_hopf_bundle`` attaches
algebra generators built from the table's representations and an
averaging (Reynolds) sampler for equivariant maps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .core import CapabilityError, Model, Morphism, UsageError
from .eilenberg_moore import (TAlgebra, _sample_lifting, algebra_tensor,
                              free_algebra, validate_algebra)
from .laws import (CaseBudget, CheckReport, Recorder, _rng,
                   _size_sorted_objects)
from .model_linear import dense_mul, dense_rows
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
                       **hooks) -> HopfBundle:
    """Hopf bundle of a validated Hopf monoid, fusion inverse included.

    The Sweedler transcription of the inverse is not taken on faith: the
    constructor brute-forces ``h_l o inv = id`` and ``inv o h_l = id`` over
    all object pairs of size at most 2.
    """
    name = name or f"H({d.carrier!r})"
    bimonad = induced_bimonad(model, d.carrier, d.mult, d.unit, d.comult,
                              d.counit, name, **hooks)

    def hl_inv(A, B):
        return sweedler_fusion_inverse(model, d, A, B)

    # probed through the bundle, whose memo keeps each inverse for its runs
    hopf = HopfBundle(**vars(bimonad), hl_inv=hl_inv)
    probe = model.enumerate_objects(2)
    for A, B in itertools.product(probe, repeat=2):
        hl = fusion_left(hopf, A, B)
        inv = hopf.hl_inv(A, B)
        if not (model.mor_eq(model.compose(hl, inv), model.identity(hl.cod))
                and model.mor_eq(model.compose(inv, hl),
                                 model.identity(hl.dom))):
            raise UsageError(
                f"fusion inverse transcription fails round-trip at "
                f"({A!r}, {B!r}) for {name}")
    return hopf


# ------------------------------------------------- representable coherence


def verify_representable_coherence(bundle: HopfBundle, budget: CaseBudget,
                                   coherence: CheckReport,
                                   traced: CheckReport) -> CheckReport:
    """The induced bundle lifts the trace: coherence, traced-monad property,
    and the direct module statement (traces of module morphisms between
    module tensors are module morphisms).  ``coherence`` and ``traced`` are
    the bundle's ``check_trace_coherence`` and ``check_traced_monad``
    reports at ``budget``, folded into this one (their cases and failures
    come first); their verdicts are the findings, and only the module
    statement runs here."""
    model = bundle.model
    rec = Recorder(model)
    rec.fold(coherence)
    rec.fold(traced)

    # direct module-trace spot check; modules are algebras of H (x) -
    objs = _size_sorted_objects(model, budget)
    tensor = functools.cache(functools.partial(algebra_tensor, bundle))
    for case in range(max(10, budget.cases // 2)):
        rng = _rng(budget, "module_trace", case)
        A, B, X = (objs[rng.randrange(len(objs))] for _ in range(3))
        mA, mB, mX = (free_algebra(bundle, o) for o in (A, B, X))
        _sample_lifting(bundle, rec, rng, tensor, mX, mA, mB,
                        "module_trace_morphism",
                        lambda f: {"A": A, "B": B, "X": X, "f": f})
    return rec.finish("representable_coherence",
                      {"trace_coherence": coherence.verdict,
                       "traced_monad": traced.verdict})


# ---------------------------------------------------------- group algebras


@dataclass(frozen=True)
class GroupTable:
    """A finite group as labels plus a complete Cayley table.

    The labels are names only: the table is validated once, here, and the
    identity and each element's inverse are kept from that pass.  ``reps``
    maps a name to a representation (label to square matrix) beyond those
    every table gives; see ``group_representations``.
    """
    elements: tuple
    mul: dict
    reps: dict = field(default_factory=dict)
    identity_label: object = field(init=False, repr=False, compare=False)
    _inverses: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        els, mul = self.elements, self.mul

        def invalid(reason):
            raise UsageError("invalid group table: " + reason)

        if len(set(els)) != len(els):
            invalid("duplicate element labels")
        for x, y in itertools.product(els, repeat=2):
            if (x, y) not in mul:
                invalid(f"missing product {x!r}*{y!r}")
            if mul[(x, y)] not in els:
                invalid(f"product {x!r}*{y!r} leaves the element set")
        for e in els:
            if all(mul[(e, x)] == x == mul[(x, e)] for x in els):
                break
        else:
            invalid("no identity element")
        inverses = {}
        for g in els:
            for h in els:
                if mul[(g, h)] == e == mul[(h, g)]:
                    inverses[g] = h
                    break
            else:
                invalid(f"element {g!r} has no inverse")
        for x, y, z in itertools.product(els, repeat=3):
            if mul[(mul[(x, y)], z)] != mul[(x, mul[(y, z)])]:
                invalid(f"associativity fails on triple ({x!r}, {y!r}, {z!r})")
        object.__setattr__(self, "identity_label", e)
        object.__setattr__(self, "_inverses", inverses)

    def inverse(self, g):
        return self._inverses[g]


def _basis_rows(dom, cod, images) -> list:
    """The 0/1 matrix rows of the linear map sending each basis vector
    ``x`` of ``dom`` to the basis vector ``images(x)`` of ``cod``."""
    row_of = {y: r for r, y in enumerate(cod)}
    rows = [[0] * len(dom) for _ in cod]
    for c, x in enumerate(dom):
        rows[row_of[images(x)]][c] = 1
    return rows


def group_algebra(model, table: GroupTable
                  ) -> tuple[HopfMonoidData, CheckReport]:
    """The group algebra Q[G] as a cocommutative Hopf monoid in matrices,
    with the passing report of its Hopf-monoid validation.

    Multiplication is linearised group multiplication, the comultiplication
    is grouplike (g |-> g (x) g), the counit sends each g to 1, and the
    antipode permutes each basis vector to its group inverse.  Raises
    UsageError if the data fails a Hopf-monoid law.
    """
    els = table.elements
    n = len(els)
    pairs = list(itertools.product(els, repeat=2))
    one = ((),)     # the basis of the unit object
    d = HopfMonoidData(n, *(
        model.morphism(len(dom), len(cod), _basis_rows(dom, cod, images))
        for dom, cod, images in (
            (pairs, els, table.mul.__getitem__),            # mult
            (one, els, lambda _: table.identity_label),     # unit
            (els, pairs, lambda g: (g, g)),                 # comult
            (els, one, lambda _: ()),                       # counit
            (els, els, table.inverse))))                    # antipode
    report = validate_hopf_monoid(model, d)
    if not report.passed:
        raise UsageError("group algebra failed Hopf-monoid validation: "
                         + ", ".join(f.law for f in report.failures))
    return d, report


# named groups -------------------------------------------------------------


def group_table_c2() -> GroupTable:
    mul = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return GroupTable(("e", "s"), mul)


def group_table_s3() -> GroupTable:
    """The permutations of three letters in one-line notation, composed
    right to left, with the 2-dimensional standard representation on the
    basis ``e0 - e1``, ``e1 - e2`` of the vectors with coordinate sum 0."""
    perms = list(itertools.permutations(range(3)))
    label = {p: "".join(map(str, p)) for p in perms}
    mul = {(label[p], label[q]): label[tuple(p[i] for i in q)]  # p after q
           for p, q in itertools.product(perms, repeat=2)}
    standard = {}
    for p in perms:
        # p sends e_i - e_(i+1) to v = e_p(i) - e_p(i+1), which is
        # v_0 (e0 - e1) - v_2 (e1 - e2)
        cols = []
        for i in (0, 1):
            v = [0, 0, 0]
            v[p[i]] += 1
            v[p[i + 1]] -= 1
            cols.append((v[0], -v[2]))
        standard[label[p]] = tuple(zip(*cols))
    return GroupTable(tuple(label[p] for p in perms), mul,
                      {"standard": standard})


def _perm_sign(p):
    sign = 1
    for i, j in itertools.combinations(range(len(p)), 2):
        if p[i] > p[j]:
            sign = -sign
    return sign


def group_representations(table: GroupTable) -> dict:
    """The representations of a group table, each a dict from label to
    square matrix: trivial, regular, ``sign`` (the determinant of the
    regular representation, the sign of ``h |-> gh``) when it is not
    trivial, then the table's own ``reps``.
    """
    els = table.elements
    index = {g: k for k, g in enumerate(els)}
    regular, sign = {}, {}
    for g in els:
        gh = {h: table.mul[(g, h)] for h in els}
        regular[g] = tuple(map(tuple, _basis_rows(els, els, gh.__getitem__)))
        sign[g] = ((_perm_sign([index[gh[h]] for h in els]),),)
    reps = {"trivial": {g: ((1,),) for g in els}, "regular": regular}
    if any(s != ((1,),) for s in sign.values()):
        reps["sign"] = sign
    return {**reps, **table.reps}


def algebra_from_rep(model, table: GroupTable, rep) -> TAlgebra:
    """Action matrix H (x) A -> A with columns indexed by (g, basis_i)."""
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


def rep_from_action(group_size, algebra) -> list:
    """Recover the per-element matrices from an action morphism."""
    dim = algebra.carrier
    pay = dense_rows(algebra.action)
    mats = []
    for k in range(group_size):
        mats.append(tuple(tuple(pay[r][k * dim + i] for i in range(dim))
                          for r in range(dim)))
    return mats


def group_hopf_bundle(model, table: GroupTable, name=None
                      ) -> tuple[CheckReport, HopfBundle]:
    """The passing report of the group algebra's Hopf-monoid validation and
    the algebra's induced Hopf bundle, with representation generators
    attached."""
    d, report = group_algebra(model, table)
    els = table.elements
    n = len(els)
    inv_index = [els.index(table.inverse(g)) for g in els]
    algebras = []  # filled once the bundle they are validated by is built

    def algebra_source(A):
        return [alg for alg in algebras if alg.carrier == A]

    def algmor_sampler(rng, src, tgt):
        rho_s = rep_from_action(n, src)
        rho_t = rep_from_action(n, tgt)
        raw = tuple(tuple(rng.randint(-3, 3) for _ in range(src.carrier))
                    for _ in range(tgt.carrier))
        total = [[0] * src.carrier for _ in range(tgt.carrier)]
        for k in range(n):
            term = dense_mul(rho_t[k], dense_mul(raw, rho_s[inv_index[k]]))
            for r, row in enumerate(term):
                for c, v in enumerate(row):
                    total[r][c] += v
        scale = Fraction(1, n)
        avg = [[scale * v for v in row] for row in total]
        return model.morphism(src.carrier, tgt.carrier, avg)

    bundle = induced_hopf_monad(
        model, d, name=name or f"group_algebra[{n}]",
        algebra_source=algebra_source, algmor_sampler=algmor_sampler)
    for rep in group_representations(table).values():
        algebras.append(validate_algebra(
            bundle, algebra_from_rep(model, table, rep)))
    return report, bundle
