"""Order-theoretic models.

Three families live here:

* the integer poset under <= with addition as tensor -- compact closed with
  subsingleton hom-sets, host of the truncation monad ``n |-> max(0, n)``;
* finite pointed posets with monotone maps -- cartesian, with the ascending
  Kleene fixed point as Conway operator and the trace derived from it;
* finite bounded posets, which carry TWO fixed-point operators (ascending
  from bottom, descending from top) and hence two distinct traces; the
  pointwise pair model over them shows a diagonal functor that preserves no
  trace.

The lattice monoids on the Sierpinski poset and the strictness check serve
the ``sierpinski-*`` rows of :mod:`tracedcat.cli`.  All posets are finite,
all maps are tables, all equalities are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from operator import add, itemgetter, mul

from .core import (BoundaryError, CapabilityError, EmptyHomError, HomSet,
                   Model, ModelMismatchError, Morphism, UsageError,
                   _mapped, _once_each, _payloads, _structural, check_labels)
from .hopf_monoid import induced_monad
from .laws import CaseBudget, CheckReport, Recorder, _rng
from .monads import BimonadBundle, MonadBundle

# ------------------------------------------------------------------ posets

_POSETS = {}


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FinPoset:
    """Finite poset: distinct element labels, ``up[i]`` the bitmask of the
    indices j with elements[i] <= elements[j], ``bottom`` and ``top`` the
    indices of the least and greatest element or None.  Built from the
    index pairs (i, j) of the order, which ``le`` lists again on request.
    Interned on ``(elements, up)``, as ``FinLabelSet``.
    """

    __slots__ = ("elements", "up", "size", "bottom", "top")

    def __new__(cls, elements, le):
        elements = tuple(elements)
        check_labels(elements)
        n = len(elements)
        up, indices = [0] * n, range(n)
        for i, j in le:
            if i not in indices or j not in indices:
                raise UsageError(f"order pair ({i!r}, {j!r}) names an index "
                                 f"outside range({n})")
            up[i] |= 1 << j
        return _poset(elements, tuple(up))

    def __setattr__(self, name, value):
        raise AttributeError("a FinPoset is immutable")

    def __reduce__(self):  # copies and unpickled posets are re-interned
        return FinPoset, (self.elements, self.le)

    @property
    def le(self) -> frozenset:
        """The order as the index pairs (i, j) with elements[i] <=
        elements[j], built on each read."""
        return frozenset((i, j) for i, mask in enumerate(self.up)
                         for j in _bits(mask))

    def leq(self, i, j) -> bool:
        return bool(self.up[i] >> j & 1)

    def __repr__(self):
        covers = sorted((i, j) for (i, j) in self.le if i != j)
        return f"FinPoset({self.elements!r}, le={covers})"


def _poset(elements: tuple, up: tuple) -> FinPoset:
    """The interned poset of checked labels and their up-set masks."""
    key = (elements, up)
    self = _POSETS.get(key)
    if self is None:
        self = _POSETS[key] = object.__new__(FinPoset)
        n, fill = len(elements), object.__setattr__
        everything = common = (1 << n) - 1
        for mask in up:
            common &= mask
        fill(self, "elements", elements)
        fill(self, "up", up)
        fill(self, "size", n)
        fill(self, "bottom", next((i for i in range(n)
                                   if up[i] == everything), None))
        fill(self, "top", next(_bits(common), None))
    return self


def _closure(up: list) -> tuple:
    """Transitive closure of a relation given as masks (Warshall's
    algorithm, one row of bits at a time)."""
    for k in range(len(up)):
        bit = 1 << k
        for i, mask in enumerate(up):
            if mask & bit:
                up[i] = mask | up[k]
    return tuple(up)


def poset_from_pairs(elements, pairs) -> FinPoset:
    """Reflexive-transitive closure of label pairs; antisymmetry validated."""
    elements = tuple(elements)
    check_labels(elements)
    index = {x: i for i, x in enumerate(elements)}
    up = [1 << i for i in range(len(elements))]
    for x, y in pairs:
        if x not in index or y not in index:
            raise UsageError(f"relation mentions unknown element {x!r} or {y!r}")
        up[index[x]] |= 1 << index[y]
    up = _closure(up)
    for i, mask in enumerate(up):
        for j in _bits(mask & ~(1 << i)):
            if up[j] >> i & 1:
                raise UsageError(
                    f"antisymmetry fails: {elements[i]!r} and {elements[j]!r} "
                    f"are mutually related")
    return _poset(elements, up)


@lru_cache(maxsize=None)
def poset_product(P: FinPoset, Q: FinPoset) -> FinPoset:
    # (p, q) <= (p', q') iff p <= p' and q <= q': the up-set of (i, j) is
    # Q's up-set of j shifted into the block of every p' above i, and
    # multiplying by the sum of those blocks' unit bits does the shifting
    elements = tuple((p, q) for p in P.elements for q in Q.elements)
    nq = Q.size
    spread = [sum(1 << p * nq for p in _bits(mask)) for mask in P.up]
    return _poset(elements, tuple(s * m for s in spread for m in Q.up))


def sierpinski() -> FinPoset:
    return poset_from_pairs(("bot", "top"), [("bot", "top")])


_UNIT_POSET = poset_from_pairs(("*",), [])


@lru_cache(maxsize=None)
def _topo_covers(P: FinPoset):
    """``(order, covers)``: the indices of P in topological order, each
    after all its predecessors, and for each index the elements it covers
    (its lower covers in the Hasse diagram).  A map that is monotone along
    every cover is monotone."""
    n, up = P.size, P.up
    below = [0] * n   # below[i]: the mask of j != i with j <= i
    for j, mask in enumerate(up):
        for i in _bits(mask & ~(1 << j)):
            below[i] |= 1 << j
    order = tuple(sorted(range(n), key=lambda i: (below[i].bit_count(), i)))
    covers = tuple(tuple(j for j in _bits(below[i])
                         if not up[j] & below[i] & ~(1 << j))
                   for i in range(n))
    return order, covers


def enumerate_monotone_tables(P: FinPoset, Q: FinPoset, fixed=None,
                              narrow=None) -> list:
    """Odometer enumeration of the monotone maps P -> Q, as a list of index
    tables.

    Positions follow the topological order of ``_topo_covers(P)``, so every
    predecessor of a position is placed before it.  Candidate images are
    bitmasks over Q: index i starts from ``fixed[i]`` (or all of Q), and
    each constraint ``(bits, j)`` of i keeps ``bits[f(j)]`` of them; one per
    lower cover j of i, with the up-sets ``Q.up`` as bits, makes f
    monotone, and ``narrow[i]`` adds more.  ``steps[pos]`` holds the index,
    start and constraints of a position, and ``masks[pos]`` the candidates
    it has still to try; the last position runs through the bits of its
    mask.  Tables come out in lexicographic order along the topological
    order.
    """
    n = P.size
    if n == 0:
        return [()]
    order, covers = _topo_covers(P)
    steps = [(i, (1 << Q.size) - 1 if fixed is None else fixed[i],
              [(Q.up, j) for j in covers[i]] + (narrow[i] if narrow else []))
             for i in order]
    out = []
    append = out.append
    vals = [0] * n
    masks = [0] * n
    last = n - 1
    pos = -1
    while True:
        # step forward: collect the candidates of the next position
        pos += 1
        i, mask, cons = steps[pos]
        for bits, j in cons:
            mask &= bits[vals[j]]
        if pos == last:
            for v in _bits(mask):
                vals[i] = v
                append(tuple(vals))
            pos -= 1
        else:
            masks[pos] = mask
        # step back to the latest position with a candidate left, and take it
        while pos >= 0 and not masks[pos]:
            pos -= 1
        if pos < 0:
            return out
        mask = masks[pos]
        low = mask & -mask
        masks[pos] = mask ^ low
        vals[order[pos]] = low.bit_length() - 1


# --------------------------------------------------------- the integer poset


class _Arrows(dict):
    """The one arrow ``n -> m`` of a thin model, per ``(n, m)``, built on
    first use and kept for the life of the model."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __missing__(self, key):
        arrow = self[key] = Morphism(self.name, *key, "le")
        return arrow


class IntPosetModel(Model):
    """Integers ordered by <=; tensor is addition, duals are negation."""

    name = "int_poset"
    traced = True
    compact = True

    def check_obj(self, A):
        if not isinstance(A, int) or isinstance(A, bool):
            raise ModelMismatchError(f"not an integer object: {A!r}")

    def obj_size(self, A):
        return abs(A)

    def unit_obj(self):
        return 0

    def _tensor_obj(self, A, B):
        return A + B

    def arrow(self, n, m) -> Morphism:
        self.check_obj(n)
        self.check_obj(m)
        if n > m:
            raise BoundaryError(f"no arrow {n} -> {m} in the integer poset")
        return self._arrows[n, m]

    # the primitives return the model's one arrow of their boundary: their
    # objects are checked already, and n <= m holds by construction
    @cached_property
    def _arrows(self) -> _Arrows:
        return _Arrows(self.name)

    def _identity(self, A):
        return self._arrows[A, A]

    def _compose(self, g, f):
        return self._arrows[f.dom, g.cod]

    def _tensor(self, f, g):
        return self._arrows[f.dom + g.dom, f.cod + g.cod]

    def _sym(self, A, B):
        return self._arrows[A + B, B + A]

    def dual_obj(self, A):
        self.check_obj(A)
        return -A

    def cup(self, A):
        return self.arrow(0, 0)

    def cap(self, A):
        return self.arrow(0, 0)

    def _trace(self, X, A, B, f):
        # a + x <= b + x already forces a <= b
        return self._arrows[A, B]

    def enumerate_objects(self, max_size):
        return list(range(-max_size, max_size + 1))

    @_structural
    def enumerate_hom(self, A, B):
        return HomSet(self.name, A, B, ("le",) if A <= B else ())

    def sample_hom(self, rng, A, B):
        if A > B:
            raise EmptyHomError(f"hom({A}, {B}) is empty")
        return self.arrow(A, B)

    def invert(self, f):
        self.check_mor(f)
        if f.dom == f.cod:
            return f
        return None


def int_poset_model() -> IntPosetModel:
    return IntPosetModel()


def n_monad() -> BimonadBundle:
    """Truncation to the nonnegative part, as a symmetric bimonad."""
    model = int_poset_model()

    def N(n):
        return max(0, n)

    return BimonadBundle(
        model, "N",
        on_obj=N,
        on_mor=lambda f: model.arrow(N(f.dom), N(f.cod)),
        mu=lambda n: model.arrow(N(N(n)), N(n)),
        eta=lambda n: model.arrow(n, N(n)),
        m=lambda a, b: model.arrow(N(a + b), N(a) + N(b)),
        m_unit=model.arrow(0, 0))


# --------------------------------------------------------------- poset models
# structural morphisms are memoised per model instance, in core.Model._memo


class _RowTraces(dict):
    """Memo of one trace call: row ``f(a, -)`` of ``f : A x X -> B x X``,
    as a tuple of indices into B x X, to the image of ``a`` under the
    trace, found by the Kleene iteration of the feedback coordinate from
    ``start``."""

    __slots__ = ("nx", "start")

    def __init__(self, nx, start):
        self.nx, self.start = nx, start

    def __missing__(self, row):
        nx, x = self.nx, self.start
        for _ in range(nx + 1):
            nxt = row[x] % nx
            if nxt == x:
                break
            x = nxt
        else:
            raise AssertionError("feedback iteration failed to settle")
        image = self[row] = row[x] // nx
        return image


class _PosetModel(Model):
    """Shared machinery for the finite-poset cartesian models."""

    traced = True
    cartesian = True
    has_conway = True
    hom_cap = 300_000

    def check_obj(self, A):
        if not isinstance(A, FinPoset):
            raise ModelMismatchError(f"not a finite poset: {A!r}")
        self._check_flags(A)

    def _check_flags(self, A):
        raise NotImplementedError

    def obj_size(self, A):
        return A.size

    def unit_obj(self):
        return _UNIT_POSET

    def _tensor_obj(self, A, B):
        return poset_product(A, B)

    # morphisms: tables of codomain indices
    def table(self, dom: FinPoset, cod: FinPoset, images) -> Morphism:
        images = tuple(images)
        if len(images) != dom.size or any(not (0 <= v < cod.size)
                                          for v in images):
            raise ModelMismatchError("map table does not fit its boundaries")
        for i, mask in enumerate(dom.up):
            above = cod.up[images[i]]
            for j in _bits(mask):
                if not above >> images[j] & 1:
                    raise ModelMismatchError(
                        f"table is not monotone at pair ({i}, {j})")
        return Morphism(self.name, dom, cod, images)

    def _identity(self, A):
        return Morphism(self.name, A, A, tuple(range(A.size)))

    def _compose(self, g, f):
        gt, ft = g.payload, f.payload
        return Morphism(self.name, f.dom, g.cod, tuple(gt[v] for v in ft))

    def _tensor(self, f, g):
        mb = g.cod.size
        return Morphism(self.name, poset_product(f.dom, g.dom),
                        poset_product(f.cod, g.cod),
                        tuple([fi * mb + gj for fi in f.payload
                               for gj in g.payload]))

    # the HomSet kernels map the formula of their primitive in C: a
    # composite reads f's table through g's, and the table of f (x) g at
    # (i, j) is f[i] * |cod g| + g[j], f's part spread once per distinct f
    def _compose_hom(self, g, f):
        return HomSet(self.name, f.dom, g.cod, map(
            tuple, map(map, _mapped(getattr, g, "__getitem__"), _payloads(f))))

    def _tensor_hom(self, f, g):
        mb, ng = g.cod.size, range(g.dom.size)
        spread = _once_each(
            lambda ft: tuple([v * mb for v in ft for _ in ng]), f)
        return HomSet(self.name, poset_product(f.dom, g.dom),
                      poset_product(f.cod, g.cod),
                      map(tuple, map(map, itertools.repeat(add), spread,
                                     _mapped(mul, g, f.dom.size))))

    def _sym(self, A, B):
        na, nb = A.size, B.size
        return Morphism(self.name, poset_product(A, B), poset_product(B, A),
                        tuple(j * na + i for i in range(na) for j in range(nb)))

    # cartesian structure
    @_structural
    def proj0(self, A, B):
        return Morphism(self.name, poset_product(A, B), A,
                        tuple(i for i in range(A.size) for _ in range(B.size)))

    @_structural
    def proj1(self, A, B):
        return Morphism(self.name, poset_product(A, B), B,
                        tuple(j for _ in range(A.size) for j in range(B.size)))

    def pair(self, f, g):
        """``<f, g>``; a HomSet argument gives a HomSet, as ``compose``."""
        hom = self._check_args(f, g)
        if f.dom != g.dom:
            raise BoundaryError("pairing needs a shared domain")
        cod = poset_product(f.cod, g.cod)
        scale = g.cod.size.__mul__
        if not hom:
            return Morphism(self.name, f.dom, cod, tuple(
                map(add, map(scale, f.payload), g.payload)))
        fps = _once_each(lambda fp: tuple(map(scale, fp)), f)
        return HomSet(self.name, f.dom, cod,
                      map(tuple, map(map, itertools.repeat(add), fps,
                                     _payloads(g))))

    @_structural
    def terminal_map(self, A):
        return Morphism(self.name, A, self.unit_obj(), (0,) * A.size)

    # fixed points and the trace derived from them
    def _start_index(self, X: FinPoset) -> int:
        raise NotImplementedError

    def fix(self, X, A, f):
        """The parametrized fixed point ``A -> X`` of ``f : A x X -> X``; a
        HomSet ``f`` is checked once and gives the HomSet of fixed points."""
        hom = self._check_args(f)
        if f.dom != poset_product(A, X) or f.cod != X:
            raise BoundaryError(f"fix needs f : A x X -> X, got "
                                f"{f.dom!r} -> {f.cod!r}")
        # its own Kleene loop, not _trace_hom's: check_conway_trace_roundtrip
        # compares the two
        nx, start = X.size, self._start_index(X)
        bases = range(0, A.size * nx, nx)
        out = []
        for table in (f.payloads if hom else (f.payload,)):
            images = []
            for base in bases:
                x = start
                for _ in range(nx + 1):
                    nxt = table[base + x]
                    if nxt == x:
                        break
                    x = nxt
                else:
                    raise AssertionError("fixed-point iteration failed to settle")
                images.append(x)
            out.append(tuple(images))
        if hom:
            return HomSet(self.name, A, X, out)
        return Morphism(self.name, A, X, out[0])

    def _trace(self, X, A, B, f):
        return self._trace_hom(X, A, B, HomSet(self.name, f.dom, f.cod,
                                               (f.payload,)))[0]

    def _trace_hom(self, X, A, B, hom):
        # the fixed point of the feedback coordinate, fed back in, projected
        # out: the pairing/fixed-point/projection formula that
        # check_conway_trace_roundtrip's trace_from_fix law checks, computed
        # on raw tables (the exhaustive checkers trace millions of them).
        # Image a of a table depends only on its row f(a, -), and the rows
        # of a hom-set repeat, so each distinct row is traced once.
        nx = X.size
        rows = _RowTraces(nx, self._start_index(X)).__getitem__
        payloads = hom.payloads
        columns = [map(rows, map(itemgetter(slice(base, base + nx)), payloads))
                   for base in range(0, A.size * nx, nx)]
        return HomSet(self.name, A, B, zip(*columns))

    # enumeration and sampling
    def enumerate_objects(self, max_size):
        out = {}  # interned, so the keys drop repeated closures in order
        for n in range(1, max_size + 1):
            middle = list(itertools.combinations(range(n), 2))
            required = self._required_up(n)
            for subset in itertools.product((False, True), repeat=len(middle)):
                up = list(required)
                for (i, j), keep in zip(middle, subset):
                    if keep:
                        up[i] |= 1 << j
                out[_poset(tuple(range(n)), _closure(up))] = None
        return list(out)

    def _required_up(self, n):
        """Up-set masks every enumerated poset on 0..n-1 contains: each
        index is above itself and the bottom (and top) that ``check_obj``
        demands are in place."""
        raise NotImplementedError

    def enumerate_hom(self, A, B):
        self.check_obj(A)
        self.check_obj(B)
        est = B.size ** A.size
        if est > self.hom_cap:
            return None
        return HomSet(self.name, A, B, enumerate_monotone_tables(A, B))

    def sample_hom(self, rng, A, B):
        self.check_obj(A)
        self.check_obj(B)
        order, covers = _topo_covers(A)
        upmask = B.up
        everything = (1 << B.size) - 1
        for _ in range(32):
            images = [0] * A.size
            for i in order:
                mask = everything
                for j in covers[i]:
                    mask &= upmask[images[j]]
                opts = list(_bits(mask))
                if not opts:
                    break
                images[i] = rng.choice(opts)
            else:
                return Morphism(self.name, A, B, tuple(images))
        # fallback: the constant map to the start element always works
        v = self._start_index(B)
        return Morphism(self.name, A, B, (v,) * A.size)

    def invert(self, f):
        self.check_mor(f)
        if f.dom.size != f.cod.size or len(set(f.payload)) != f.dom.size:
            return None
        inv = [0] * f.cod.size
        for i, v in enumerate(f.payload):
            inv[v] = i
        for i, mask in enumerate(f.cod.up):
            above = f.dom.up[inv[i]]
            if any(not above >> inv[j] & 1 for j in _bits(mask)):
                return None
        return Morphism(self.name, f.cod, f.dom, tuple(inv))


class FinCppoModel(_PosetModel):
    """Finite pointed posets; fixed points ascend from the bottom."""

    name = "fin_cppo"

    def _check_flags(self, A):
        if A.bottom is None:
            raise ModelMismatchError(f"poset has no bottom element: {A!r}")

    def _required_up(self, n):
        return [(1 << n) - 1] + [1 << k for k in range(1, n)]

    def _start_index(self, X):
        return X.bottom


class BoundedPosetModel(_PosetModel):
    """Finite bounded posets with a selectable trace flavour.

    ``flavor="lfp"`` iterates from the bottom, ``flavor="gfp"`` from the
    top; both yield Conway operators (hence traces), and they genuinely
    disagree (see ``bounded_poset_two_traces``).  Both flavours share the
    model name so their morphisms interchange freely.
    """

    name = "bounded_poset"

    def __init__(self, flavor="lfp"):
        if flavor not in ("lfp", "gfp"):
            raise UsageError(f"unknown trace flavor {flavor!r}")
        self.flavor = flavor

    def _check_flags(self, A):
        if A.bottom is None or A.top is None:
            raise ModelMismatchError(f"poset is not bounded: {A!r}")

    def _required_up(self, n):
        return [(1 << n) - 1] + [1 << k | 1 << n - 1 for k in range(1, n)]

    def _start_index(self, X):
        return X.bottom if self.flavor == "lfp" else X.top


def fincppo_model() -> FinCppoModel:
    return FinCppoModel()


# --------------------------------------------------- pointwise product model


@dataclass(frozen=True)
class PairOb:
    left: object
    right: object


class PairModel(Model):
    """Pointwise product of two models sharing their object/morphism types.

    Structure (tensor, symmetry, trace...) is computed coordinatewise, so a
    pair of traces on the factors yields a trace here even when the two
    factor traces differ.
    """

    traced = True

    def __init__(self, first: Model, second: Model):
        self.first = first
        self.second = second
        self.name = f"pair[{first.name}:{getattr(first, 'flavor', '')}"\
                    f"|{second.name}:{getattr(second, 'flavor', '')}]"

    def check_obj(self, A):
        if not isinstance(A, PairOb):
            raise ModelMismatchError(f"not a pair object: {A!r}")
        self.first.check_obj(A.left)
        self.second.check_obj(A.right)

    def obj_size(self, A):
        return self.first.obj_size(A.left) + self.second.obj_size(A.right)

    def unit_obj(self):
        return PairOb(self.first.unit_obj(), self.second.unit_obj())

    def _tensor_obj(self, A, B):
        # check_obj has validated both components already
        return PairOb(self.first._tensor_obj(A.left, B.left),
                      self.second._tensor_obj(A.right, B.right))

    def pair_mor(self, f: Morphism, g: Morphism) -> Morphism:
        self.first.check_mor(f)
        self.second.check_mor(g)
        return Morphism(self.name, PairOb(f.dom, g.dom), PairOb(f.cod, g.cod),
                        (f, g))

    def diagonal(self, f: Morphism) -> Morphism:
        """The image (f, f) of a single morphism of the shared base."""
        return self.pair_mor(f, f)

    def _identity(self, A):
        return self.pair_mor(self.first.identity(A.left),
                             self.second.identity(A.right))

    def _compose(self, g, f):
        return self.pair_mor(self.first.compose(g.payload[0], f.payload[0]),
                             self.second.compose(g.payload[1], f.payload[1]))

    def _tensor(self, f, g):
        return self.pair_mor(self.first.tensor(f.payload[0], g.payload[0]),
                             self.second.tensor(f.payload[1], g.payload[1]))

    def _sym(self, A, B):
        return self.pair_mor(self.first.sym(A.left, B.left),
                             self.second.sym(A.right, B.right))

    def _strict(self, dom, cod):
        # the payload holds component morphisms, not the identity's table
        return self.pair_mor(self.first._strict(dom.left, cod.left),
                             self.second._strict(dom.right, cod.right))

    def _trace(self, X, A, B, f):
        return self.pair_mor(
            self.first.trace(X.left, A.left, B.left, f.payload[0]),
            self.second.trace(X.right, A.right, B.right, f.payload[1]))

    def enumerate_objects(self, max_size):
        lefts = self.first.enumerate_objects(max_size)
        rights = self.second.enumerate_objects(max_size)
        return [PairOb(l, r) for l, r in itertools.product(lefts, rights)]

    def sample_hom(self, rng, A, B):
        return self.pair_mor(self.first.sample_hom(rng, A.left, B.left),
                             self.second.sample_hom(rng, A.right, B.right))


@dataclass(frozen=True)
class TwoTraceBundle:
    lfp: BoundedPosetModel
    gfp: BoundedPosetModel
    product: PairModel


def bounded_poset_two_traces() -> TwoTraceBundle:
    lfp = BoundedPosetModel("lfp")
    gfp = BoundedPosetModel("gfp")
    return TwoTraceBundle(lfp, gfp, PairModel(lfp, gfp))


def two_trace_distinctness_witness(bundle: TwoTraceBundle):
    """f(*, x) = (x, x) over the two-point lattice separates the traces."""
    lfp, gfp = bundle.lfp, bundle.gfp
    sig = sierpinski()
    point = lfp.unit_obj()
    dom = poset_product(point, sig)
    cod = poset_product(sig, sig)
    f = lfp.table(dom, cod, (0, 3))  # (*, bot) -> (bot, bot); (*, top) -> (top, top)
    tr_l = lfp.trace(sig, point, sig, f)
    tr_g = gfp.trace(sig, point, sig, f)
    return {"f": f, "lfp_trace": tr_l, "gfp_trace": tr_g,
            "distinct": tr_l.payload != tr_g.payload}


def diagonal_preservation_check(budget: CaseBudget) -> CheckReport:
    """The diagonal into the two-trace pair model cannot preserve the trace.

    Checks the canonical witness first, then samples for more; the report
    fails (by design, this is the expected outcome) listing each morphism f
    whose pointwise pair trace differs from the diagonal of its own trace.
    """
    bundle = bounded_poset_two_traces()
    prod, lfp = bundle.product, bundle.lfp
    rec = Recorder(prod)

    def check_one(A, B, X, f):
        lhs = prod.trace(PairOb(X, X), PairOb(A, A), PairOb(B, B),
                         prod.diagonal(f))
        rhs = prod.diagonal(lfp.trace(X, A, B, f))
        rec.check("diagonal_preserves_trace",
                  {"A": A, "B": B, "X": X, "f": f}, lhs, rhs)

    wit = two_trace_distinctness_witness(bundle)
    f = wit["f"]
    check_one(lfp.unit_obj(), sierpinski(), sierpinski(), f)

    objs = lfp.enumerate_objects(budget.max_object_size)
    for i in range(budget.cases):
        rng = _rng(budget, "diagonal", i)
        A, B, X = (objs[rng.randrange(len(objs))] for _ in range(3))
        g = lfp.sample_hom(rng, poset_product(A, X), poset_product(B, X))
        check_one(A, B, X, g)

    return rec.finish("diagonal_nonpreservation",
                      findings={"witness_found": bool(rec.failures),
                                "canonical_witness_separates":
                                    wit["distinct"]})


# ------------------------------------------------- monoid bundles on posets


def canonical_cartesian_bimonad(monad: MonadBundle) -> BimonadBundle:
    """The unique symmetric bimonad structure over a cartesian model."""
    model = monad.model
    if not model.cartesian:
        raise CapabilityError("canonical bimonad needs a cartesian model")

    def m(A, B):
        return model.pair(monad.on_mor(model.proj0(A, B)),
                          monad.on_mor(model.proj1(A, B)))

    top = model.unit_obj()
    return BimonadBundle(**vars(monad), m=m,
                         m_unit=model.terminal_map(monad.on_obj(top)))


def _equivariance_masks(h_size, tgt):
    """The bitmask tables of the action of ``tgt``, over its carrier's
    indices t: ``image_bit[h][t]`` is {h.t}, ``preimage[h][t]`` is
    {v : h.v = t} and ``fixed_by[h]`` is {v : h.v = v}."""
    act_t, nq = tgt.action.payload, tgt.carrier.size  # over h * |Q| + t
    image_bit = [[1 << act_t[h * nq + t] for t in range(nq)]
                 for h in range(h_size)]
    preimage = [[sum(1 << v for v in range(nq) if act_t[h * nq + v] == t)
                 for t in range(nq)] for h in range(h_size)]
    fixed_by = [sum(1 << v for v in range(nq) if act_t[h * nq + v] == v)
                for h in range(h_size)]
    return image_bit, preimage, fixed_by


def _module_morphism_enumerator(model, masks, src, tgt):
    """Equivariant monotone tables src.carrier -> tgt.carrier, as a HomSet.

    Equivariance against the algebra actions is propagated inside the
    monotone enumeration: each equation f(h.u) = h.f(u) narrows the
    candidates of its later endpoint once the earlier one has its image,
    which prunes hard.  ``masks(tgt)`` gives the target's
    :func:`_equivariance_masks`, which :func:`monoid_bimonad` builds once
    per target algebra and keeps as long as its bundle.
    """
    P, Q = src.carrier, tgt.carrier
    act_s = src.action.payload   # table over h * |P| + u
    np_ = P.size
    image_bit, preimage, fixed_by = masks(tgt)

    pos_of = {i: pos for pos, i in enumerate(_topo_covers(P)[0])}
    fixed = [(1 << Q.size) - 1] * np_   # where h.u = u, f(u) is fixed by h
    narrow = [[] for _ in range(np_)]   # (bit table, earlier endpoint)
    for h in range(len(fixed_by)):
        for u in range(np_):
            w = act_s[h * np_ + u]
            if u == w:
                fixed[u] &= fixed_by[h]
            elif pos_of[u] > pos_of[w]:
                narrow[u].append((preimage[h], w))    # h.f(u) = f(w)
            else:
                narrow[w].append((image_bit[h], u))   # f(w) = h.f(u)

    return HomSet(model.name, P, Q,
                  enumerate_monotone_tables(P, Q, fixed, narrow))


def monoid_bimonad(model: _PosetModel, H: FinPoset, mult_table, unit_index,
                   name) -> BimonadBundle:
    """Canonical bimonad of the representable monad of a poset monoid."""
    mult = model.table(poset_product(H, H), H, mult_table)
    unit = model.table(model.unit_obj(), H, (unit_index,))
    masks = cache(partial(_equivariance_masks, H.size))
    enumerator = partial(_module_morphism_enumerator, model, masks)
    monad = induced_monad(model, H, mult, unit, name,
                          algmor_enumerator=enumerator)
    return canonical_cartesian_bimonad(monad)


SIGMA_MEET = ((0, 0, 0, 1), 1)   # (meet table, index of its unit: top)
SIGMA_JOIN = ((0, 1, 1, 1), 0)   # (join table, index of its unit: bottom)


def sigma_meet_bimonad(model: FinCppoModel) -> BimonadBundle:
    """Two-point lattice acting by meet."""
    return monoid_bimonad(model, sierpinski(), *SIGMA_MEET, "sigma_meet")


def sigma_join_bimonad(model: FinCppoModel) -> BimonadBundle:
    """Two-point lattice acting by join."""
    return monoid_bimonad(model, sierpinski(), *SIGMA_JOIN, "sigma_join")


def strictness_property(model: FinCppoModel, budget: CaseBudget) -> CheckReport:
    """If h is strict and g o (1 x h) = h o f then fix(g(a,-)) = h(fix(f(a,-))).

    Per object triple the fixed points of all f and all g are taken once,
    and per strict h the composites ``g o (1 x h)``, ``h o f`` and ``h o
    fix f``; the pairs (f, g) the premise matches, f first, are one batch.
    Stops after the object triple that passes 4000 cases; findings count
    the triples checked, skipped for a declined hom-set (the
    :class:`~tracedcat.laws.Recorder`'s count, written even when it is 0),
    and in total.
    """
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
        fix_fs, fix_gs = model.fix(X, A, fs), model.fix(Y, A, gs)
        for h in hs:
            if h.payload[X.bottom] != Y.bottom:
                continue
            # index the g's by their composite with 1 x h, then pair with
            # every f whose image under h matches
            by_pre = {}
            pre = model.compose(gs, model.tensor(model.identity(A), h))
            for j, g in enumerate(pre.payloads):
                by_pre.setdefault(g, []).append(j)
            hfs = model.compose(h, fs).payloads
            fi = [i for i, hf in enumerate(hfs) for _ in by_pre.get(hf, ())]
            gj = [j for hf in hfs for j in by_pre.get(hf, ())]
            rec.check_hom([(
                "strict_fixed_point_transfer",
                {"A": A, "X": X, "Y": Y, "h": h, "f": _picked(fs, fi),
                 "g": _picked(gs, gj)},
                _picked(fix_gs, gj),
                _picked(model.compose(h, fix_fs), fi))], len(fi))
        if rec.cases > 4000:
            break
    return rec.finish("strict_fixed_point_transfer",
                      {"checked_object_tuples": checked,
                       "skipped_object_tuples": rec.skipped,
                       "total_object_tuples": len(objs) ** 3})


def _picked(hom, at):
    """The elements of ``hom`` at the indices ``at``, in order, as a HomSet."""
    return HomSet(hom.model, hom.dom, hom.cod, [hom.payloads[k] for k in at])
