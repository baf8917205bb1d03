"""Exact rational matrices: a compact closed category with partial trace.

Objects are dimensions (nonnegative ints), morphisms are cod x dom matrices
with entries in Q (python ints or Fractions, never floats).  Tensor is the
Kronecker product with the row-major index pairing (j, l) |-> j*dim2 + l,
which makes the associators and unitors literal identity matrices; the
symmetry is the commutation (perfect shuffle) permutation.

Matrices are stored in a canonical sparse row form (zero entries omitted,
columns sorted), so equality stays exact and structural while composites of
the permutation-like coherence maps scale with the number of nonzeros, not
with the ambient dimension.  ``dense_rows`` recovers the familiar row lists.
Two paths do no arithmetic: ``smat_kron`` with an identity factor (``I_n (x)
b`` or ``a (x) I_n``) only shifts the other factor's column indices, and
``smat_mul`` copies row ``t`` of ``b`` for each row of ``a`` that is
``((t, 1),)``, as every row of a permutation is.

Duals use the self-dual convention n* = n with the identity pairing: the
cup is the row vector picking out the indices (i, i) and the cap is its
transpose.  The trace operator is the index-sum partial trace
``Tr(f)[j,i] = sum_k f[jX+k, iX+k]``; ``trace_by_cups`` evaluates the
cup/cap composite instead, so the two can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import Model, ModelMismatchError, Morphism, UsageError
from .eilenberg_moore import TAlgebra, validate_algebra

# ------------------------------------------------------------ sparse matrices


def _norm(x):
    # a class test: Fraction's ABC metaclass makes isinstance a Python call
    if x.__class__ is Fraction and x.denominator == 1:
        return int(x)
    return x


@dataclass(frozen=True)
class SparseMat:
    """Canonical sparse matrix: per-row tuples of (col, nonzero value)."""
    rows: int
    cols: int
    data: tuple  # data[i] = ((j, v), ...) with j ascending, v != 0

    def __repr__(self):
        return f"SparseMat({self.rows}x{self.cols}, {self.data!r})"


def smat(rows, cols, dense_rows) -> SparseMat:
    data = []
    for row in dense_rows:
        row = tuple(row)
        if len(row) != cols:
            raise UsageError(f"row of length {len(row)}, expected {cols}")
        data.append(tuple((j, _norm(v)) for j, v in enumerate(row) if v != 0))
    if len(data) != rows:
        raise UsageError(f"{len(data)} rows, expected {rows}")
    return SparseMat(rows, cols, tuple(data))


def dense_rows(m) -> tuple:
    sm = m.payload if isinstance(m, Morphism) else m
    out = []
    for entries in sm.data:
        row = [0] * sm.cols
        for j, v in entries:
            row[j] = v
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def identity_smat(n) -> SparseMat:
    return SparseMat(n, n, tuple(((i, 1),) for i in range(n)))


def smat_mul(a: SparseMat, b: SparseMat) -> SparseMat:
    if a.cols != b.rows:
        raise UsageError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    if a is identity_smat(a.rows):
        return b
    if b is identity_smat(b.rows):
        return a
    data = []
    bdata = b.data
    for arow in a.data:
        if len(arow) == 1 and arow[0][1] == 1:  # a permutation-like row
            data.append(bdata[arow[0][0]])
            continue
        acc = {}
        for t, x in arow:
            for j, y in bdata[t]:
                acc[j] = acc.get(j, 0) + x * y
        data.append(tuple((j, _norm(v)) for j, v in sorted(acc.items())
                          if v != 0))
    return SparseMat(a.rows, b.cols, tuple(data))


def smat_kron(a: SparseMat, b: SparseMat) -> SparseMat:
    if a is identity_smat(1):
        return b
    if b is identity_smat(1):
        return a
    a_id, b_id = a is identity_smat(a.rows), b is identity_smat(b.rows)
    if a_id and b_id:
        return identity_smat(a.rows * b.rows)
    # an identity factor only moves the other factor's entries
    if a_id:
        m = b.cols
        data = [tuple((i * m + l, y) for l, y in brow)
                for i in range(a.rows) for brow in b.data]
        return SparseMat(a.rows * b.rows, a.rows * m, tuple(data))
    if b_id:
        n = b.rows
        data = [tuple((j * n + k, x) for j, x in arow)
                for arow in a.data for k in range(n)]
        return SparseMat(a.rows * n, a.cols * n, tuple(data))
    data = []
    for arow in a.data:
        for brow in b.data:
            data.append(tuple((j * b.cols + l, _norm(x * y))
                              for j, x in arow for l, y in brow))
    return SparseMat(a.rows * b.rows, a.cols * b.cols, tuple(data))


def smat_inverse(m: SparseMat):
    """Exact inverse by Gaussian elimination; None when singular/non-square."""
    n = m.rows
    if n != m.cols:
        return None
    if n == 0:
        return SparseMat(0, 0, ())
    dense = [list(row) for row in dense_rows(m)]
    aug = [[Fraction(x) for x in row]
           + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(dense)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return smat(n, n, [row[n:] for row in aug])


def commutation_smat(a, b) -> SparseMat:
    """The permutation taking index i*b + j of a(x)b to j*a + i of b(x)a."""
    n = a * b
    rows = [None] * n
    for i in range(a):
        for j in range(b):
            rows[j * a + i] = ((i * b + j, 1),)
    return SparseMat(n, n, tuple(rows))


# -------------------------------------------------------------------- model


class MatModel(Model):
    name = "mat"
    traced = True
    compact = True

    def __init__(self, crosscheck_trace=False):
        # when set, every partial trace is re-derived via the cup/cap
        # composite and compared entrywise
        self.crosscheck_trace = crosscheck_trace

    # objects
    def check_obj(self, A):
        if not isinstance(A, int) or isinstance(A, bool) or A < 0:
            raise ModelMismatchError(f"not a mat dimension: {A!r}")

    def obj_size(self, A):
        return A

    def unit_obj(self):
        return 1

    def _tensor_obj(self, A, B):
        return A * B

    # morphisms
    def check_mor(self, f):
        super().check_mor(f)
        self.check_payload(f.dom, f.cod, f.payload)

    def check_payload(self, dom, cod, payload):
        if not isinstance(payload, SparseMat) \
                or payload.rows != cod or payload.cols != dom:
            raise ModelMismatchError(
                f"matrix payload does not match boundaries {cod}x{dom}")

    def morphism(self, dom, cod, rows) -> Morphism:
        return Morphism(self.name, dom, cod, smat(cod, dom, rows))

    def _identity(self, A):
        return Morphism(self.name, A, A, identity_smat(A))

    def _compose(self, g, f):
        return Morphism(self.name, f.dom, g.cod,
                        smat_mul(g.payload, f.payload))

    def _tensor(self, f, g):
        return Morphism(self.name, f.dom * g.dom, f.cod * g.cod,
                        smat_kron(f.payload, g.payload))

    # structural isomorphisms: strict except for the symmetry
    def _sym(self, A, B):
        return Morphism(self.name, A * B, B * A, commutation_smat(A, B))

    # compact structure, self-dual convention
    def dual_obj(self, A):
        self.check_obj(A)
        return A

    def cup(self, A):
        self.check_obj(A)
        row = tuple((i * A + i, 1) for i in range(A))
        return Morphism(self.name, A * A, 1, SparseMat(1, A * A, (row,)))

    def cap(self, A):
        self.check_obj(A)
        diag = {i * A + i for i in range(A)}
        data = tuple(((0, 1),) if r in diag else () for r in range(A * A))
        return Morphism(self.name, 1, A * A, SparseMat(A * A, 1, data))

    # trace
    def _trace(self, X, A, B, f):
        acc = [dict() for _ in range(B)]
        for r, row in enumerate(f.payload.data):
            j, k = divmod(r, X)
            if j >= B:
                continue
            for c, v in row:
                i, k2 = divmod(c, X)
                if k2 == k and i < A:
                    acc[j][i] = acc[j].get(i, 0) + v
        data = tuple(tuple((i, _norm(v)) for i, v in sorted(row.items())
                           if v != 0) for row in acc)
        out = Morphism(self.name, A, B, SparseMat(B, A, data))
        if self.crosscheck_trace:
            alt = self.trace_by_cups(X, A, B, f)
            if alt.payload != out.payload:
                raise AssertionError(
                    f"partial trace disagrees with cup/cap composite at "
                    f"X={X}, A={A}, B={B}")
        return out

    def trace_by_cups(self, X, A, B, f) -> Morphism:
        """The canonical trace of a compact closed category, spelled out."""
        xd = self.dual_obj(X)
        return self.seq(
            self.runit_inv(A),
            self.tensor(self.identity(A), self.cap(X)),
            self.assoc(A, X, xd),
            self.tensor(f, self.identity(xd)),
            self.assoc_inv(B, X, xd),
            self.tensor(self.identity(B), self.sym(X, xd)),
            self.tensor(self.identity(B), self.cup(X)),
            self.runit(B),
        )

    # enumeration / sampling
    def enumerate_objects(self, max_size):
        return list(range(0, max_size + 1))

    def sample_hom(self, rng, A, B):
        rows = [[rng.randint(-3, 3) for _ in range(A)] for _ in range(B)]
        return self.morphism(A, B, rows)

    def invert(self, f):
        self.check_mor(f)
        inv = smat_inverse(f.payload)
        if inv is None:
            return None
        return Morphism(self.name, f.cod, f.dom, inv)


def mat_model(crosscheck_trace=False) -> MatModel:
    return MatModel(crosscheck_trace=crosscheck_trace)


# dense helpers for the handful of callers that do entrywise arithmetic

def dense_mul(a, b):
    n, k = len(a), len(b)
    p = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = [0] * p
        for t in range(k):
            x = a[i][t]
            if x == 0:
                continue
            brow = b[t]
            for j in range(p):
                if brow[j] != 0:
                    row[j] += x * brow[j]
        out.append(tuple(row))
    return tuple(out)


def dual_algebra(hopf, algebra):
    """Dual of an algebra over a Hopf bundle on the matrix model.

    The carrier is A* and the action threads the cap through the inverse
    fusion operator, applies the original action inside the functor, then
    collapses with the cup and the counit-on-unit map.  The result is
    validated before being returned; cup and cap are algebra morphisms for
    the lifted structure (see the tests).
    """
    model = hopf.model
    A = algebra.carrier
    a = algebra.action
    ad = model.dual_obj(A)
    T = hopf.on_obj
    i = model.identity
    Tad = T(ad)
    action = model.seq(
        model.runit_inv(Tad),
        model.tensor(i(Tad), model.cap(A)),
        model.assoc(Tad, A, ad),
        model.tensor(model.tensor(i(Tad), hopf.eta(A)), i(ad)),
        model.tensor(hopf.hl_inv(ad, A), i(ad)),
        model.tensor(hopf.on_mor(model.tensor(i(ad), a)), i(ad)),
        model.tensor(hopf.on_mor(model.cup(A)), i(ad)),
        model.tensor(hopf.m_unit, i(ad)),
        model.lunit(ad),
    )
    out = TAlgebra(ad, action)
    validate_algebra(hopf, out)
    return out
