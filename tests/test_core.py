import copy
import pickle

import pytest

from tracedcat.cli import _LAW_MODELS
from tracedcat.core import (BoundaryError, CapabilityError, HomSet,
                            ModelMismatchError, Morphism, UsageError)
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import (bounded_poset_two_traces, int_poset_model,
                                   sierpinski)
from tracedcat.model_iter import label_set


def test_identity_examples(mat, zle, pfn):
    assert dense_rows(mat.identity(3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    seven = zle.identity(7)
    assert (seven.dom, seven.cod) == (7, 7)
    ab = label_set("a", "b")
    assert pfn.identity(ab).payload == bytes([0, 1])


def test_compose_examples(mat, zle, fincppo):
    f = mat.morphism(1, 1, [[3]])
    g = mat.morphism(1, 1, [[2]])
    assert dense_rows(mat.compose(g, f)) == ((6,),)
    assert zle.compose(zle.arrow(3, 5), zle.arrow(1, 3)) == zle.arrow(1, 5)
    sig = sierpinski()
    const_bot = fincppo.table(sig, sig, (0, 0))
    meet_top = fincppo.table(sig, sig, (0, 1))  # identity = meet with top
    assert fincppo.compose(meet_top, const_bot).payload == (0, 0)


def test_compose_boundary_error_names_both(mat):
    f = mat.morphism(2, 3, [[1, 0], [0, 1], [0, 0]])
    with pytest.raises(BoundaryError) as err:
        mat.compose(f, f)
    assert "3" in str(err.value) and "2" in str(err.value)


def test_tensor_examples(mat, zle, pfn):
    assert mat.tensor_obj(2, 3) == 6
    assert zle.tensor_obj(2, -5) == -3
    ab = pfn.tensor_obj(label_set("a"), label_set("b"))
    assert ab.labels == ((0, "a"), (1, "b"))


def test_mat_sym_is_perfect_shuffle_involution(mat):
    s = mat.sym(2, 3)
    back = mat.compose(mat.sym(3, 2), s)
    assert mat.mor_eq(back, mat.identity(6))
    # basis check of the shuffle: e_{i*3+j} goes to e_{j*2+i}
    rows = dense_rows(s)
    for i in range(2):
        for j in range(3):
            assert rows[j * 2 + i][i * 3 + j] == 1


def test_foreign_object_rejected(mat, pfn):
    with pytest.raises(ModelMismatchError):
        mat.identity(sierpinski())
    with pytest.raises(ModelMismatchError):
        pfn.identity(3)


def test_yanking_via_trace_helper(mat, zle, pfn):
    for model, X in ((mat, 3), (zle, 2), (pfn, label_set("x"))):
        tr = model.trace(X, X, X, model.sym(X, X))
        assert model.mor_eq(tr, model.identity(X))


def test_mat_trace_of_identity_doubles(mat):
    tr = mat.trace(2, 2, 2, mat.identity(4))
    assert dense_rows(tr) == ((2, 0), (0, 2))


def test_fincppo_trace_of_diagonal_is_bottom(fincppo):
    sig = sierpinski()
    point = fincppo.unit_obj()
    dom = fincppo.tensor_obj(point, sig)
    cod = fincppo.tensor_obj(sig, sig)
    f = fincppo.table(dom, cod, (0, 3))  # (*, x) |-> (x, x)
    tr = fincppo.trace(sig, point, sig, f)
    assert tr.payload == (0,)  # lands on bottom


def test_trace_memo_keeps_every_check(pfn, monkeypatch):
    zle = int_poset_model()
    f = zle.arrow(1, 1)
    assert zle.trace(1, 0, 0, f) == zle.arrow(0, 0)
    # the boundary triple (1, 0, 0) is memoised: no further tensor_obj call
    monkeypatch.setattr(zle, "tensor_obj", None)
    assert zle.trace(1, 0, 0, f) == zle.arrow(0, 0)
    monkeypatch.undo()
    # True == 1 and hashes alike, but it is no int_poset object
    with pytest.raises(ModelMismatchError):
        zle.trace(True, 0, 0, f)
    with pytest.raises(ModelMismatchError):  # unhashable, so never memoised
        zle.trace([1], 0, 0, f)
    for wrong in (zle.arrow(0, 1), zle.arrow(1, 2)):
        with pytest.raises(BoundaryError):
            zle.trace(1, 0, 0, wrong)
    with pytest.raises(ModelMismatchError):
        zle.trace(1, 0, 0, pfn.identity(label_set("x")))


def test_structure_memo_keeps_every_check(pfn):
    zle = int_poset_model()
    assert zle.identity(1) is zle.identity(1)
    with pytest.raises(ModelMismatchError):  # True == 1, but no object
        zle.identity(True)
    with pytest.raises(ModelMismatchError):
        zle.sym(1, True)
    for op, args in (("identity", ([1],)), ("sym", ([1], 0)),
                     ("assoc", ([1], 0, 0))):
        with pytest.raises(ModelMismatchError):  # unhashable, never memoised
            getattr(zle, op)(*args)
    sig = sierpinski()
    for _ in range(2):
        with pytest.raises(ModelMismatchError):
            pfn.identity(sig)
    two = bounded_poset_two_traces()
    lfp, gfp = two.lfp, two.gfp
    assert lfp.trace(sig, sig, sig, lfp.sym(sig, sig)) == lfp.identity(sig)
    assert lfp._memo and not gfp._memo
    assert gfp.identity(sig) is not lfp.identity(sig)


def test_morphism_is_an_immutable_value(fincppo):
    sig = sierpinski()
    f = fincppo.table(sig, sig, (0, 1))
    fields = ("fin_cppo", sig, sig, (0, 1))
    assert f == Morphism(*fields) and hash(f) == hash(Morphism(*fields))
    assert f != fields and fields != f
    assert f != fincppo.table(sig, sig, (0, 0))
    assert repr(f) == ("Mor[fin_cppo](FinPoset(('bot', 'top'), le=[(0, 1)])"
                       " -> FinPoset(('bot', 'top'), le=[(0, 1)]); (0, 1))")
    with pytest.raises(AttributeError):
        f.payload = (1, 1)
    with pytest.raises(AttributeError):
        f.extra = 1
    for same in (copy.copy(f), copy.deepcopy(f),
                 pickle.loads(pickle.dumps(f))):
        assert same == f and same.dom is sig


def test_hom_set_is_a_read_only_sequence(fincppo):
    sig = sierpinski()
    tables = ((0, 0), (0, 1), (1, 1))
    hom = HomSet("fin_cppo", sig, sig, iter(tables))
    assert hom.payloads == tables and len(hom) == 3
    elements = [fincppo.table(sig, sig, t) for t in tables]
    assert list(hom) == elements
    assert [hom[k] for k in range(3)] == elements and hom[-1] == elements[2]
    assert list(hom[1:]) == elements[1:] and isinstance(hom[1:], HomSet)
    with pytest.raises(IndexError):
        hom[3]
    with pytest.raises(AttributeError):
        hom.payloads = ()
    with pytest.raises(TypeError):
        hom[0] = elements[0]
    for same in (copy.copy(hom), copy.deepcopy(hom),
                 pickle.loads(pickle.dumps(hom))):
        assert (same.model, same.dom, same.cod) == ("fin_cppo", sig, sig)
        assert list(same) == elements


def test_trace_of_a_hom_set_checks_its_boundary_once(pfn, fincppo,
                                                    monkeypatch):
    x, ab = label_set("x"), label_set("a", "b")
    dom, cod = pfn.tensor_obj(ab, x), pfn.tensor_obj(x, x)
    homs = pfn.enumerate_hom(dom, cod)
    hom = HomSet("pfn", dom, cod, [f.payload for f in homs])
    with monkeypatch.context() as patch:  # no element is checked on its own
        patch.setattr(pfn, "check_mor", None)
        traced = pfn.trace(x, ab, x, hom)
    assert isinstance(traced, HomSet) and (traced.dom, traced.cod) == (ab, x)
    assert list(traced) == [pfn.trace(x, ab, x, f) for f in homs]
    empty = pfn.trace(x, ab, x, HomSet("pfn", dom, cod, ()))
    assert (len(empty), empty.dom, empty.cod) == (0, ab, x)
    with pytest.raises(ModelMismatchError):
        fincppo.trace(x, ab, x, hom)
    for wrong in (HomSet("pfn", cod, cod, ()), HomSet("pfn", dom, dom, ())):
        with pytest.raises(BoundaryError):
            pfn.trace(x, ab, x, wrong)

    class Untraced(type(pfn)):
        traced = False

    with pytest.raises(CapabilityError):
        Untraced().trace(x, ab, x, hom)


@pytest.mark.parametrize("name", ["pfn", "fincppo"])
def test_primitives_on_a_hom_set_equal_their_elements(name, request):
    model = request.getfixturevalue(name)
    A = X = model.enumerate_objects(2)[-1]
    AX = model.tensor_obj(A, X)
    fs, gs = model.enumerate_hom(AX, AX), model.enumerate_hom(A, A)
    rev_fs = HomSet(model.name, AX, AX, fs.payloads[::-1])
    rev_gs = HomSet(model.name, A, A, gs.payloads[::-1])
    g = gs[len(gs) // 2]
    k = model.tensor(g, model.identity(X))
    AAX = model.tensor_obj(A, AX)
    cases = [  # (result, its boundary, the per-element results)
        (model.compose(fs, k), (AX, AX), [model.compose(f, k) for f in fs]),
        (model.compose(k, fs), (AX, AX), [model.compose(k, f) for f in fs]),
        (model.compose(rev_fs, fs), (AX, AX),
         [model.compose(r, f) for r, f in zip(rev_fs, fs)]),
        (model.tensor(gs, fs[1]), (AAX, AAX),
         [model.tensor(h, fs[1]) for h in gs]),
        (model.tensor(g, fs), (AAX, AAX), [model.tensor(g, f) for f in fs]),
        (model.tensor(rev_gs, gs), (AX, AX),
         [model.tensor(r, h) for r, h in zip(rev_gs, gs)]),
        (model.trace(X, A, A, fs), (A, A),
         [model.trace(X, A, A, f) for f in fs]),
    ]
    if model.has_conway:
        hs = model.enumerate_hom(AX, X)
        cases.append((model.fix(X, A, hs), (A, X),
                      [model.fix(X, A, h) for h in hs]))
    if model.cartesian:
        h = hs[len(hs) // 2]
        twice = HomSet(model.name, AX, X, [p for p in hs.payloads
                                           for _ in (0, 1)])
        rev_twice = HomSet(model.name, AX, X, twice.payloads[::-1])
        cases += [
            (model.pair(fs, h), (AX, model.tensor_obj(AX, X)),
             [model.pair(f, h) for f in fs]),
            (model.pair(h, fs), (AX, model.tensor_obj(X, AX)),
             [model.pair(h, f) for f in fs]),
            (model.pair(twice, rev_twice), (AX, model.tensor_obj(X, X)),
             [model.pair(p, r) for p, r in zip(twice, rev_twice)]),
        ]
    for out, boundary, elements in cases:
        assert isinstance(out, HomSet) and (out.dom, out.cod) == boundary
        assert len(elements) > 1 and list(out) == elements

    empty = HomSet(model.name, AX, AX, ())
    for out, boundary in ((model.compose(empty, k), (AX, AX)),
                          (model.compose(k, empty), (AX, AX)),
                          (model.compose(empty, fs[:0]), (AX, AX)),
                          (model.tensor(g, empty), (AAX, AAX)),
                          (model.trace(X, A, A, empty), (A, A))):
        assert (len(out), out.dom, out.cod) == (0, *boundary)

    foreign = HomSet("foreign", AX, AX, fs.payloads)
    stranger = Morphism("foreign", AX, AX, k.payload)  # beside a HomSet
    for call in (lambda: model.compose(foreign, k),
                 lambda: model.compose(k, foreign),
                 lambda: model.tensor(g, foreign),
                 lambda: model.trace(X, A, A, foreign),
                 lambda: model.compose(fs, stranger),
                 lambda: model.compose(stranger, fs),
                 lambda: model.tensor(stranger, fs)):
        with pytest.raises(ModelMismatchError):
            call()
    for call in (lambda: model.compose(gs, k), lambda: model.compose(k, gs),
                 lambda: model.trace(X, A, A, gs)):
        with pytest.raises(BoundaryError):
            call()
    for call in (lambda: model.compose(fs, fs[1:]),
                 lambda: model.tensor(fs, fs[1:])):
        with pytest.raises(UsageError):
            call()
    if model.has_conway:
        with pytest.raises(ModelMismatchError):
            model.fix(X, A, HomSet("foreign", AX, X, ()))
        with pytest.raises(BoundaryError):
            model.fix(X, A, fs)
    if model.cartesian:
        pairs = model.pair(fs, h)
        assert model.compose(model.proj0(AX, X),
                             pairs).payloads == fs.payloads
        assert list(model.compose(model.proj1(AX, X), pairs)) == [h] * len(fs)
        assert len(model.pair(fs[:0], h)) == 0
        for call in (lambda: model.pair(foreign, h),
                     lambda: model.pair(fs, Morphism("foreign", AX, X,
                                                     h.payload))):
            with pytest.raises(ModelMismatchError):
                call()
        with pytest.raises(BoundaryError):
            model.pair(gs, fs[:len(gs)])
        with pytest.raises(UsageError):
            model.pair(fs, fs[1:])


def test_an_empty_hom_set_builds_no_morphism(zle):
    # Hom(1, 0) of the integer poset is empty, and arrow(1, 0) raises
    none = zle.enumerate_hom(1, 0)
    assert len(none) == 0
    for out, boundary in ((zle.compose(none, zle.arrow(0, 1)), (0, 0)),
                          (zle.compose(zle.arrow(0, 0), none), (1, 0)),
                          (zle.tensor(none, zle.arrow(2, 2)), (3, 2)),
                          (zle.trace(0, 1, 0, none), (1, 0))):
        assert (len(out), out.dom, out.cod) == (0, *boundary)


# the operations a model must define when it sets each capability flag
_CAPABILITY_OPS = {
    "traced": ("_trace",),
    "compact": ("dual_obj", "cup", "cap"),
    "cartesian": ("proj0", "proj1", "pair", "terminal_map"),
    "has_conway": ("fix",),
    "cocartesian": ("inj0", "inj1", "copair", "initial_map"),
}


@pytest.mark.parametrize("name", sorted(_LAW_MODELS))
def test_model_contract(name):
    model = _LAW_MODELS[name]()
    objs = model.enumerate_objects(4)
    assert objs
    for A in objs:
        model.check_obj(A)
    for flag, ops in _CAPABILITY_OPS.items():
        if getattr(model, flag):
            missing = [op for op in ops
                       if not callable(getattr(model, op, None))]
            assert not missing, f"{name} sets {flag} but lacks {missing}"
