import pytest

from tracedcat.cli import _LAW_MODELS
from tracedcat.core import BoundaryError, ModelMismatchError
from tracedcat.model_linear import dense_rows
from tracedcat.model_order import (bounded_poset_two_traces, int_poset_model,
                                   sierpinski)
from tracedcat.model_iter import label_set


def test_identity_examples(mat, zle, pfn):
    assert dense_rows(mat.identity(3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    seven = zle.identity(7)
    assert (seven.dom, seven.cod) == (7, 7)
    ab = label_set("a", "b")
    assert pfn.identity(ab).payload == (0, 1)


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
