import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracedcat.eilenberg_moore import (TAlgebra, is_algebra_morphism,
                                       unit_algebra)
from tracedcat.hopf_monoid import (algebra_from_rep, group_representations,
                                   group_table_c2)
from tracedcat.model_linear import (dense_rows, dual_algebra, mat_model,
                                    smat, smat_inverse)


def _mat_of(model, rows):
    cod = len(rows)
    dom = len(rows[0]) if rows else 0
    return model.morphism(dom, cod, rows)


def test_cup_cap_shapes(mat):
    assert dense_rows(mat.cup(1)) == ((1,),)
    assert dense_rows(mat.cup(2)) == ((1, 0, 0, 1),)
    assert dense_rows(mat.cap(2)) == ((1,), (0,), (0,), (1,))
    zero_cup = mat.cup(0)
    assert (zero_cup.dom, zero_cup.cod) == (0, 1)


def test_partial_trace_examples(mat):
    two_i2 = mat.trace(2, 2, 2, mat.identity(4))
    assert dense_rows(two_i2) == ((2, 0), (0, 2))
    yank = mat.trace(2, 2, 2, mat.sym(2, 2))
    assert dense_rows(yank) == ((1, 0), (0, 1))


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def matrices(draw, rows, cols):
    return tuple(tuple(draw(small_entries) for _ in range(cols))
                 for _ in range(rows))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partial_trace_equals_cup_cap_composite(data):
    model = mat_model()
    A = data.draw(st.integers(0, 3))
    B = data.draw(st.integers(0, 3))
    X = data.draw(st.integers(1, 3))
    f = model.morphism(A * X, B * X, data.draw(matrices(B * X, A * X)))
    index_sum = model.trace(X, A, B, f)
    composite = model.trace_by_cups(X, A, B, f)
    assert model.mor_eq(index_sum, composite)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_row_major_convention(data):
    model = mat_model()
    f = _mat_of(model, data.draw(matrices(2, 2)))
    g = _mat_of(model, data.draw(matrices(3, 2)))
    fg, fd, gd = dense_rows(model.tensor(f, g)), dense_rows(f), dense_rows(g)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(2):
                    assert fg[i * 3 + k][j * 2 + l] == fd[i][j] * gd[k][l]


def test_crosscheck_flag_validates_every_trace():
    model = mat_model(crosscheck_trace=True)
    rng = random.Random(11)
    for _ in range(20):
        A, B, X = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3)
        f = model.sample_hom(rng, A * X, B * X)
        model.trace(X, A, B, f)  # raises on disagreement


def test_exact_inverse():
    model = mat_model()
    f = _mat_of(model, ((1, 1), (0, 1)))
    assert dense_rows(model.invert(f)) == ((1, -1), (0, 1))
    assert model.invert(_mat_of(model, ((1, 1), (1, 1)))) is None
    assert model.invert(_mat_of(model, ((1, 0),))) is None
    h = _mat_of(model, ((Fraction(1, 2),),))
    assert dense_rows(model.invert(h)) == ((2,),)


def test_fraction_entries_stay_exact():
    m = smat(1, 1, [[Fraction(2, 6)]])
    assert m.data == (((0, Fraction(1, 3)),),)
    assert smat_inverse(m).data == (((0, 3),),)


def test_dual_algebra_identity_monad_collapses(mat):
    from tracedcat.monads import identity_hopf_bundle

    ih = identity_hopf_bundle(mat)
    alg = TAlgebra(3, mat.identity(3))
    dual = dual_algebra(ih, alg)
    assert dual.carrier == 3
    assert mat.mor_eq(dual.action, mat.identity(3))


def test_dual_algebra_c2_examples(mat, qc2):
    table = group_table_c2()
    reps = group_representations(table)
    regular = algebra_from_rep(mat, table, reps["regular"])
    dual = dual_algebra(qc2, regular)
    # inverse transpose of a permutation representation is itself
    assert dense_rows(dual.action) == dense_rows(regular.action)
    sign = algebra_from_rep(mat, table, reps["sign"])
    dual_sign = dual_algebra(qc2, sign)
    assert dense_rows(dual_sign.action) == ((1, -1),)


def test_cup_cap_are_algebra_morphisms_for_lift(mat, qc2):
    from tracedcat.eilenberg_moore import algebra_tensor

    table = group_table_c2()
    reps = group_representations(table)
    for name in ("trivial", "sign", "regular"):
        alg = algebra_from_rep(mat, table, reps[name])
        dual = dual_algebra(qc2, alg)
        unit = unit_algebra(qc2)
        cupped = algebra_tensor(qc2, dual, alg)
        capped = algebra_tensor(qc2, alg, dual)
        assert is_algebra_morphism(qc2, cupped, unit,
                                   mat.cup(alg.carrier))
        assert is_algebra_morphism(qc2, unit, capped,
                                   mat.cap(alg.carrier))


def test_morphism_shape_validation(mat):
    with pytest.raises(Exception):
        mat.morphism(2, 2, [[1, 2, 3], [4, 5, 6]])
