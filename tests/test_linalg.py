"""Property tests for the exact linear algebra kernel."""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homhopf import linalg as la
from homhopf.linalg import (AffineSolution, Infeasible, LinearMap, Space,
                            kernel_basis, product_after, quotient_by, rank,
                            solve_affine, span, swap_map, tensor_after,
                            tensor_space, space, unrank)
from homhopf.report import Report
from homhopf.verify import check_maps

from leg_reference import permute_legs

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


def _space(n: int) -> Space:
    return space(*[f"e{i}" for i in range(n)])


@st.composite
def matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    rows = draw(st.lists(
        st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n))
    return LinearMap.from_rows(_space(m), _space(n), rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_are_killed(f):
    for v in kernel_basis(f):
        _assert_column(v)
        assert not _apply(f, v)
    assert len(kernel_basis(f)) == f.domain.dim - rank(f)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(rationals, min_size=1, max_size=4))
def test_solve_affine_resubstitutes(f, raw):
    rhs = tuple(Fraction(x) for x in raw[:f.codomain.dim])
    rhs = rhs + (Fraction(0),) * (f.codomain.dim - len(rhs))
    sol = solve_affine(f, rhs)
    if isinstance(sol, AffineSolution):
        for v in (sol.particular, *sol.kernel):
            _assert_column(v)
        assert _apply(f, sol.particular) == _col(rhs)
        for h in sol.kernel:
            assert not _apply(f, h)
    else:
        assert isinstance(sol, Infeasible)
        assert sol.augmented_rank == sol.system_rank + 1


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3), matrices(max_dim=3))
def test_tensor_of_maps_acts_on_tensors(f, g):
    x = [int(i == 0) for i in range(f.domain.dim)]
    y = [int(i == g.domain.dim - 1) for i in range(g.domain.dim)]
    assert _apply(f.tensor(g), _col(_ref_kron_vec(x, y))) == _col(
        _ref_kron_vec(_ref_apply(_dense(f), x), _ref_apply(_dense(g), y)))


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("n", range(1, 4))
def test_swap_map_is_the_two_leg_reorder(m, n):
    a = space(*[f"a{i}" for i in range(m)])
    b = space(*[f"b{i}" for i in range(n)])
    want = permute_legs(LinearMap.identity(tensor_space(a, b)), (a, b), (1, 0))
    got = swap_map(a, b)
    assert (got.domain, got.codomain) == (want.domain, want.codomain)
    assert got.scaled == want.scaled and got.cols == want.cols


def test_swap_is_an_involutive_permutation():
    a, b = _space(2), _space(3)
    s = swap_map(a, b)
    t = swap_map(b, a)
    assert (t @ s).is_identity()
    x = (Fraction(1), Fraction(2))
    y = (Fraction(0), Fraction(3), Fraction(5))
    assert _apply(s, _col(_ref_kron_vec(x, y))) == _col(_ref_kron_vec(y, x))


def test_quotient_projection_splits():
    sp = _space(4)
    rels = [((0, 1), (1, -1))]
    q = quotient_by(LinearMap(_space(1), sp, tuple(rels)))
    assert q.dim == 3
    assert (q.projection @ q.section).is_identity()
    assert q.projection.cols[0] == q.projection.cols[1]


def test_quotient_by_nothing_is_the_identity():
    sp = _space(3)
    q = quotient_by(LinearMap.zero(_space(1), sp))
    assert q.dim == 3
    assert (q.projection @ q.section).is_identity()
    assert (q.section @ q.projection).is_identity()


def _shape(f):
    return f.domain.dim, f.codomain.dim


def test_the_zero_space_goes_through_every_kernel():
    """Dimension 0 is a dimension: each kernel takes the zero space Z on
    either side of a map and returns the zero-dimensional answer, because it
    loops over nonzero entries and a map into or out of Z has none."""
    Z, X = Space(()), _space(2)
    assert (Z.dim, Z.labels) == (0, ()) and Z == space()
    f = LinearMap.from_rows(X, X, [[1, 2], [3, 4]])
    into, out = LinearMap.zero(Z, X), LinearMap.zero(X, Z)
    idz, XX = LinearMap.identity(Z), tensor_space(X, X)
    assert into.matrix == ((), ()) and out.matrix == () and idz.matrix == ()

    # composition, tensor products and leg reorders
    assert _shape(out @ into) == (0, 0) and (out @ into).is_identity()
    assert (into @ out).same_matrix(LinearMap.zero(X, X))
    assert (f @ into).cols == () and (out @ f).cols == ((), ())
    assert _shape(f.tensor(into)) == (0, 4) and f.tensor(into).cols == ()
    assert _shape(out.tensor(f)) == (4, 0)
    assert out.tensor(f).same_matrix(LinearMap.zero(XX, tensor_space(Z, X)))
    assert tensor_space(Z, X).labels == () and tensor_space(X, Z).dim == 0
    assert _shape(swap_map(Z, X)) == (0, 0) and swap_map(X, Z).cols == ()
    x = LinearMap.identity(XX)
    assert tensor_after(f, out, x).same_matrix(f.tensor(out))
    assert _shape(tensor_after(f, f, LinearMap.zero(Z, XX))) == (0, 4)
    # y lands in X (x) Z, so every leg product through it is zero
    y, g = LinearMap.zero(X, tensor_space(X, Z)), LinearMap.zero(Z, X)
    p = product_after(f.tensor(f) @ swap_map(X, X), g, x, y, (X, X, X, Z))
    assert _shape(p) == (8, 8)
    assert p.same_matrix(LinearMap.zero(p.domain, p.codomain))
    p = product_after(f.tensor(f) @ swap_map(X, X), f.tensor(f), x,
                      LinearMap.zero(Z, XX), (X, X, X, X))
    assert _shape(p) == (0, 16) and p.cols == ()

    # inverse, rank, solving and kernels
    assert idz.inverse().is_identity()
    assert rank(into) == rank(out) == rank(idz) == 0
    sol = solve_affine(into, (0, 0))
    assert isinstance(sol, AffineSolution)
    assert (sol.particular, sol.kernel) == ((), ())
    bad = solve_affine(into, (1, 0))
    assert isinstance(bad, Infeasible) and bad.reverify()
    assert (bad.system_rank, bad.augmented_rank) == (0, 1)
    sol = solve_affine(out, ())
    assert isinstance(sol, AffineSolution) and sol.particular == ()
    assert sol.kernel == kernel_basis(out) == (((0, 1),), ((1, 1),))
    assert kernel_basis(into) == kernel_basis(idz) == ()

    # subspaces and quotients
    sub = span(X, ())
    assert sub.dim == 0 and sub.embedding(Z).same_matrix(into)
    assert sub.coordinates(LinearMap.zero(X, X), Z).same_matrix(out)
    assert sub.coordinates(f, Z) is None
    assert span(Z, [(), ()]).dim == 0
    for rel, dim in ((LinearMap.identity(X), 0), (f, 0), (into, 2),
                     (idz, 0)):
        q = quotient_by(rel)
        assert q.dim == dim and (q.projection @ q.section).is_identity()
        assert _shape(q.projection) == (rel.codomain.dim, dim)
    q = quotient_by(LinearMap.identity(X))
    assert q.space == Z and q.relations.dim == 2
    assert q.projection.same_matrix(out) and q.section.same_matrix(into)

    # identities between maps into or out of Z hold
    rep = Report("")
    assert check_maps(rep, "into Z", [(out, out @ f)])
    assert check_maps(rep, "out of Z", [(into, f @ into)], [X, Z], X)
    assert rep.ok and len(rep.results) == 2


def test_span_and_coords_roundtrip():
    sp = _space(3)
    sub = span(sp, [((0, 1),), ((2, 1),), ((0, 1), (2, 1))])
    assert sub.dim == 2 and sub.pivots == (0, 2)
    assert sub.basis == (((0, 1),), ((2, 1),))
    v = (1, 0, 7)
    sub_space, one = _space(2), _space(1)
    f = LinearMap(one, sp, (_col(v),))
    g = sub.coordinates(f, sub_space)
    assert g is not None and g.cols == (((0, 1), (1, 7)),)
    assert (sub.embedding(sub_space) @ g).same_matrix(f)
    outside = LinearMap(_space(2), sp, (_col(v), ((1, 1),)))
    assert sub.coordinates(outside, sub_space) is None


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_coordinates_of_a_map_into_its_image(f):
    """Each map lands in the span of its own columns, its coordinates
    reproduce it, and a vector outside the span is refused."""
    sub = span(f.codomain, f.cols)
    for v in sub.basis:
        _assert_column(v)
    if sub.dim == 0:
        return
    coords = _space(sub.dim)
    g = sub.coordinates(f, coords)
    assert g is not None and (sub.embedding(coords) @ g).same_matrix(f)
    free = [c for c in range(f.codomain.dim) if c not in sub.pivots]
    if free:
        e = LinearMap(_space(1), f.codomain, (((free[0], 1),),))
        assert sub.coordinates(e, coords) is None


def test_inverse_raises_on_singular():
    sp = _space(2)
    f = LinearMap.from_rows(sp, sp, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        f.inverse()
    g = LinearMap.from_rows(sp, sp, [[1, 1], [0, 1]])
    assert (g @ g.inverse()).is_identity()
    assert (g.inverse() @ g).is_identity()


def rank_index(dims, idxs):
    """Reference inverse of unrank: the row-major index of a tuple."""
    k = 0
    for d, i in zip(dims, idxs):
        k = k * d + i
    return k


def test_unrank_rank_index_inverse():
    dims = (3, 4, 2)
    for k in range(24):
        assert rank_index(dims, unrank(dims, k)) == k


def test_tensor_space_labels():
    sp = tensor_space(_space(2), _space(2))
    assert sp.dim == 4
    assert sp.labels == ("e0⊗e0", "e0⊗e1", "e1⊗e0", "e1⊗e1")
    a, b = space("x", "y"), space("1", "g", "x")
    assert tensor_space(tensor_space(a, b), a) == tensor_space(a, b, a)
    assert tensor_space(a, tensor_space(b, a)).labels[-1] == "y⊗x⊗y"
    # labels are spelled out, and checked, when first read
    clash = tensor_space(space("a", "a⊗a"), space("a", "a⊗a"))
    assert clash.dim == 4
    with pytest.raises(ValueError):
        clash.labels


# ---------------------------------------------------------------------------
# The sparse kernel against a naive dense reference
# ---------------------------------------------------------------------------

def _ref_apply(rows, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows]


def _ref_compose(f_rows, g_rows):
    inner = len(g_rows)
    return [[sum((f_rows[i][k] * g_rows[k][j] for k in range(inner)),
                 Fraction(0)) for j in range(len(g_rows[0]))]
            for i in range(len(f_rows))]


def _ref_kron(f_rows, g_rows):
    return [[a * b for a in r1 for b in r2] for r1 in f_rows for r2 in g_rows]


def _ref_kron_vec(x, y):
    return [a * b for a in x for b in y]


def _dense(f):
    return [list(row) for row in f.matrix]


def _is_scalar(x):
    """The kernel's scalar form: an int, or a non-integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _assert_column(col):
    """A sparse column in canonical form: rows strictly ascending, no zero
    entries, scalars in frac's form."""
    rows = [i for i, _ in col]
    assert rows == sorted(set(rows))
    assert all(c != 0 and _is_scalar(c) for _, c in col)


def _assert_canonical(f):
    assert len(f.cols) == f.domain.dim
    for col in f.cols:
        _assert_column(col)
        assert all(0 <= i < f.codomain.dim for i, _ in col)


def _col(v):
    """The sparse column of the dense vector v."""
    return tuple((i, la.frac(x)) for i, x in enumerate(v) if x)


def _apply(f, col):
    """f applied to the sparse column col, as a sparse column."""
    return (f @ LinearMap(_space(1), f.domain, (col,))).cols[0]


# mostly zeros, both the int 0 and Fraction(0), which the helpers must
# treat alike; plain
# ints as well as Fractions, so an int pivot divides int entries
sparse_entries = st.one_of(st.just(0), st.just(Fraction(0)), rationals,
                           st.integers(-6, 6))


# an entry of a one-entry column: a product takes it without accumulating
# and scales by it unless it is 1
lone_entries = st.one_of(st.integers(-6, 6), rationals).filter(
    lambda v: v not in (0, 1))


def _one_entry_column(draw, rows, keep=None):
    """rows with a column left holding one entry, not 1, in row keep (drawn
    when None)."""
    j = draw(st.integers(0, len(rows[0]) - 1))
    keep = draw(st.integers(0, len(rows) - 1)) if keep is None else keep
    for i, row in enumerate(rows):
        row[j] = draw(lone_entries) if i == keep else Fraction(0)
    return rows


@st.composite
def sparse_rows(draw, n, m):
    """n x m rationals, mostly zero, often with a zero row and column and
    a one-entry column."""
    rows = draw(st.lists(st.lists(sparse_entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        _one_entry_column(draw, rows)
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [Fraction(0)] * m
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in rows:
            row[j] = Fraction(0)
    return rows


def _vector(draw, n):
    return tuple(draw(st.lists(sparse_entries, min_size=n, max_size=n)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sparse_kernel_matches_dense_reference(data):
    draw = data.draw
    dims = st.integers(1, 3)
    p, q, r, s = draw(dims), draw(dims), draw(dims), draw(dims)
    f_rows = draw(sparse_rows(q, p))            # f: P -> Q
    g_rows = draw(sparse_rows(r, q))            # g: Q -> R
    h_rows = draw(sparse_rows(q, p))            # h: P -> Q
    k_rows = draw(sparse_rows(s, r))            # k: R -> S
    P, Q, R, S = _space(p), _space(q), _space(r), _space(s)
    f = LinearMap.from_rows(P, Q, f_rows)
    g = LinearMap.from_rows(Q, R, g_rows)
    h = LinearMap.from_rows(P, Q, h_rows)
    k = LinearMap.from_rows(R, S, k_rows)
    for m in (f, g, h, k):
        _assert_canonical(m)
    assert _dense(f) == f_rows

    fg = g @ f
    _assert_canonical(fg)
    assert _dense(fg) == _ref_compose(g_rows, f_rows)

    fk = f.tensor(k)
    _assert_canonical(fk)
    assert _dense(fk) == _ref_kron(f_rows, k_rows)

    total, diff = f + h, f - h
    _assert_canonical(total)
    _assert_canonical(diff)
    assert _dense(total) == [[a + b for a, b in zip(x, y)]
                             for x, y in zip(f_rows, h_rows)]
    assert _dense(diff) == [[a - b for a, b in zip(x, y)]
                            for x, y in zip(f_rows, h_rows)]

    ident = [[Fraction(int(i == j)) for j in range(p)] for i in range(q)]
    assert f.is_identity() == (p == q and f_rows == ident)
    assert LinearMap.identity(P).is_identity()

    # tensor_after(f, k, x) = (f (x) k) . x, for x: T -> P (x) R
    t = draw(dims)
    x_rows = draw(sparse_rows(p * r, t))
    x = LinearMap.from_rows(_space(t), tensor_space(P, R), x_rows)
    fkx = tensor_after(f, k, x)
    _assert_canonical(fkx)
    assert fkx.codomain == tensor_space(Q, S)
    assert _dense(fkx) == _ref_compose(_ref_kron(f_rows, k_rows), x_rows)

    # the leg-reorder reference against an explicit permutation matrix
    fdims = draw(st.lists(dims, min_size=1, max_size=3))
    spaces = [space(*[f"{chr(97 + n)}{i}" for i in range(d)])
              for n, d in enumerate(fdims)]
    perm = draw(st.permutations(range(len(fdims))))
    y_rows = draw(sparse_rows(math.prod(fdims), t))
    y = LinearMap.from_rows(_space(t), tensor_space(*spaces), y_rows)
    py = permute_legs(y, spaces, perm)
    _assert_canonical(py)
    assert py.codomain == tensor_space(*(spaces[i] for i in perm))
    moved = [[Fraction(0)] * len(y_rows) for _ in y_rows]
    for src in itertools.product(*(range(d) for d in fdims)):
        dst = [src[i] for i in perm]
        moved[rank_index([fdims[i] for i in perm], dst)][
            rank_index(fdims, src)] = Fraction(1)
    assert _dense(py) == _ref_compose(moved, y_rows)

    # canonical form: equal maps have equal columns
    assert (diff + h).cols == f.cols
    assert (f - f).cols == LinearMap.zero(P, Q).cols
    assert (f.tensor(LinearMap.identity(_space(1)))).cols == f.cols
    assert (LinearMap.identity(Q) @ f).cols == f.cols


# Entries over the coprime denominators 2, 3, 5, 7 and 11 next to plain
# ints, so a product's common denominator has several prime factors and its
# int entries are scaled along with its Fractions.
coprime = st.sampled_from((2, 3, 5, 7, 11))
wide_entries = st.one_of(
    st.just(0), st.integers(-6, 6),
    st.builds(lambda a, b: la.frac(Fraction(a, b)), st.integers(-40, 40),
              coprime))


def _wide_rows(draw, n, m):
    """n x m entries over the coprime denominators, entry (0, 0) nonzero,
    often with a one-entry column (in row 0)."""
    rows = draw(st.lists(st.lists(wide_entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        _one_entry_column(draw, rows, keep=0)
    if not rows[0][0]:
        rows[0][0] = Fraction(draw(st.integers(1, 40)), draw(coprime))
    return rows


def _force_entry(a_rows, b_rows, target):
    """b_rows with one entry of column 0 changed so that entry (0, 0) of
    a_rows . b_rows is target; a_rows[0][0] must not be zero."""
    rest = sum((a * b_rows[k][0] for k, a in enumerate(a_rows[0]) if k),
               Fraction(0))
    b_rows[0][0] = la.frac((target - rest) / a_rows[0][0])
    return b_rows


def _map(rows):
    return LinearMap.from_rows(_space(len(rows[0])), _space(len(rows)), rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_over_a_common_denominator_match_dense_reference(data):
    """@, tensor and tensor_after on entries with coprime denominators
    match the dense reference.  Entry (0, 0) of each product is forced to
    an integer: a sum of Fraction terms that cancels to an int is stored as
    an int, and one that cancels to zero is dropped."""
    draw = data.draw
    dims = st.integers(1, 3)
    p, q, r, s, t = (draw(dims) for _ in range(5))
    target = draw(st.integers(-3, 3))

    def check(out, want):
        _assert_canonical(out)
        assert _dense(out) == want
        stored = dict(out.cols[0]).get(0)
        assert stored == target if target else stored is None

    g_rows = _wide_rows(draw, r, q)
    f_rows = _force_entry(g_rows, _wide_rows(draw, q, p), target)
    check(_map(g_rows) @ _map(f_rows), _ref_compose(g_rows, f_rows))
    # one row: every accumulator has one key, which cancels when target is 0
    check(_map(g_rows[:1]) @ _map(f_rows), _ref_compose(g_rows[:1], f_rows))

    f_rows = _wide_rows(draw, q, p)
    k_rows = _force_entry([f_rows[0][:1]], _wide_rows(draw, s, r), target)
    check(_map(f_rows).tensor(_map(k_rows)), _ref_kron(f_rows, k_rows))

    f_rows, k_rows = _wide_rows(draw, q, p), _wide_rows(draw, s, r)
    fk = _ref_kron(f_rows, k_rows)
    x_rows = _force_entry(fk, _wide_rows(draw, p * r, t), target)
    x = LinearMap.from_rows(_space(t), tensor_space(_space(p), _space(r)),
                            x_rows)
    check(tensor_after(_map(f_rows), _map(k_rows), x),
          _ref_compose(fk, x_rows))
    check(tensor_after(_map(f_rows[:1]), _map(k_rows[:1]), x),
          _ref_compose(fk[:1], x_rows))


# Entries over large coprime denominators, next to ints that are multiples
# of them, so that a product's d has big prime factors and its gcd pass has
# something to remove: a/p times a multiple of p, or a sum that cancels a
# denominator, comes out over less than its operands' denominators.
large_coprime = st.sampled_from((7919, 999983, 1000003, 2 ** 31 - 1))
large_entries = st.one_of(
    st.just(0), st.integers(-10 ** 6, 10 ** 6),
    st.builds(lambda a, b: la.frac(Fraction(a, b)),
              st.integers(-10 ** 12, 10 ** 12), large_coprime),
    st.builds(lambda b, c: b * c, large_coprime, st.integers(-3, 3)))


def _large_map(draw, n, m):
    rows = draw(st.lists(st.lists(large_entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return LinearMap.from_rows(_space(m), _space(n), rows)


def _assert_least_scaled_form(f):
    """f's scaled form is the one computed afresh from its materialized
    cols: d is the least common denominator, and cols are in frac form."""
    _assert_canonical(f)
    d, cols = f.scaled
    assert (d, cols) == LinearMap(f.domain, f.codomain, f.cols).scaled
    assert d >= 1 and math.gcd(d, *(c for col in cols for _, c in col)) == 1
    assert d == math.lcm(1, *(c.denominator for col in f.cols
                              for _, c in col))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_products_keep_the_least_scaled_form(data):
    """Every product of maps over large coprime denominators carries the
    scaled form of the map its materialized cols describe, and same_matrix
    agrees with comparing cols."""
    draw = data.draw
    dims = st.integers(1, 3)
    p, q, r, s = (draw(dims) for _ in range(4))
    f, h = _large_map(draw, q, p), _large_map(draw, q, p)
    g, k = _large_map(draw, r, q), _large_map(draw, s, r)
    x = LinearMap.from_rows(_space(2), tensor_space(_space(p), _space(r)),
                            draw(st.lists(st.lists(large_entries, min_size=2,
                                                   max_size=2),
                                          min_size=p * r, max_size=p * r)))
    gf = g @ f
    products = [gf, f.tensor(k), tensor_after(f, k, x), f + h, f - h,
                swap_map(_space(p), _space(r)) @ x,
                g @ (f + h) - g @ h]
    for out in products:
        _assert_least_scaled_form(out)
    same = products[-1]
    assert gf.same_matrix(same) and gf.cols == same.cols
    # a second denominator in one entry changes the matrix, not the shape
    bump = LinearMap.from_rows(f.domain, g.codomain, [
        [Fraction(1, 1000033) if (i, j) == (0, 0) else 0 for j in range(p)]
        for i in range(r)])
    for other in (gf + bump, gf - bump, same + bump - bump):
        _assert_least_scaled_form(other)
        assert gf.same_matrix(other) == (gf.cols == other.cols)


def _sparse_map(draw, dom, cod, den):
    """A map dom -> cod with entries k/den, each column drawn sparse and
    possibly zero."""
    entries = st.integers(-9, 9).filter(bool).map(
        lambda k: la.frac(Fraction(k, den)))
    cols = draw(st.lists(st.dictionaries(st.integers(0, cod.dim - 1),
                                         entries, max_size=4),
                         min_size=dom.dim, max_size=dom.dim))
    return LinearMap(dom, cod, tuple(tuple(sorted(c.items())) for c in cols))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_leg_product_matches_tensor_then_flip(data):
    """product_after(f, g, x, y, (P, Q, R, S)) is the composite it replaces,
    (f (x) g) . (1 (x) flip (x) 1) . (x (x) y), as the same canonical scaled
    map, on uneven legs (dim 1 included), zero columns and a different
    denominator on each operand; a leg of the wrong size is refused."""
    draw = data.draw
    P, Q, R, S, V, W, X, Y = (_space(draw(st.integers(1, 3)))
                              for _ in range(8))
    x = _sparse_map(draw, V, tensor_space(P, Q), 2)
    y = _sparse_map(draw, W, tensor_space(R, S), 3)
    f = _sparse_map(draw, tensor_space(P, R), X, 5)
    g = _sparse_map(draw, tensor_space(Q, S), Y, 7)
    spaces = (P, Q, R, S)
    got = la.product_after(f, g, x, y, spaces)
    want = tensor_after(f, g, permute_legs(x.tensor(y), spaces,
                                           (0, 2, 1, 3)))
    assert (got.domain, got.codomain) == (want.domain, want.codomain)
    assert got.scaled == want.scaled and got.cols == want.cols
    bumped = list(spaces)
    t = draw(st.integers(0, 3))
    bumped[t] = _space(bumped[t].dim + 1)
    with pytest.raises(ValueError):
        la.product_after(f, g, x, y, bumped)
    with pytest.raises(ValueError):
        la.product_after(f.tensor(LinearMap.identity(_space(2))), g, x, y,
                         spaces)


# ---------------------------------------------------------------------------
# The sparse elimination against a dense Gauss-Jordan reference
# ---------------------------------------------------------------------------

def _ref_rref(rows, ncols):
    """Dense Gauss-Jordan: for each column in turn the topmost remaining
    row with a nonzero there becomes the pivot row.  Returns the nonzero
    reduced rows and the pivot columns.  The rows are read as Fractions, so
    the reference stays exact on int entries."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _ref_solve(rows, rhs, n):
    """Particular solution (free variables zero) and kernel basis read off
    the dense reference, or the two ranks when the system is infeasible."""
    red, pivots = _ref_rref([row + [b] for row, b in zip(rows, rhs)], n + 1)
    if n in pivots:
        return len(pivots) - 1, len(pivots)
    particular = [Fraction(0)] * n
    for row, c in zip(red, pivots):
        particular[c] = row[n]
    kernel = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = -row[fc]
        kernel.append(tuple(v))
    return tuple(particular), tuple(kernel)


def _from_row_dict(row, n):
    out = [Fraction(0)] * n
    for c, x in row.items():
        out[c] = x
    return out


@st.composite
def tall_rows(draw, max_cols=5):
    """Mostly-zero rows, many more than columns: scaled duplicates of a few
    drawn rows, all-zero rows (of the int 0 or of Fraction(0)), in a
    drawn order."""
    n = draw(st.integers(1, max_cols))
    base = draw(st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                         min_size=1, max_size=5))
    scales = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                              Fraction(1, 3), Fraction(7, 3),
                              Fraction(-5, 11)])
    copies = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), scales),
                           max_size=12))
    zeros = draw(st.lists(st.sampled_from([0, Fraction(0)]), max_size=4))
    rows = (base + [[c * x for x in base[i]] for i, c in copies]
            + [[z] * n for z in zeros])
    return draw(st.permutations(rows))


@settings(max_examples=100, deadline=None)
@given(tall_rows(), st.data())
def test_sparse_elimination_matches_dense_gauss_jordan(rows, data):
    m, n = len(rows), len(rows[0])
    ref_red, ref_pivots = _ref_rref(rows, n)
    red, pivots = la._rref({c: x for c, x in enumerate(row) if x}
                           for row in rows)
    assert pivots == ref_pivots
    assert [_from_row_dict(row, n) for row in red] == ref_red
    assert all(x != 0 for row in red for x in row.values())

    f = LinearMap.from_rows(_space(n), _space(m), rows)
    assert rank(f) == len(ref_pivots)

    sub = span(_space(n), [_col(row) for row in rows])
    assert [_from_row_dict(dict(v), n) for v in sub.basis] == ref_red
    assert sub.pivots == tuple(ref_pivots)
    for v in sub.basis:
        _assert_column(v)

    rhs = _vector(data.draw, m)
    sol = solve_affine(f, rhs)
    want = _ref_solve(rows, rhs, n)
    if isinstance(sol, Infeasible):
        assert (sol.system_rank, sol.augmented_rank) == want
        assert (sol.coeff, sol.rhs) == (f, rhs)
        assert sol.reverify()
    else:
        assert (tuple(_from_row_dict(dict(sol.particular), n)),
                tuple(tuple(_from_row_dict(dict(v), n))
                      for v in sol.kernel)) == want
        for v in (sol.particular, *sol.kernel):
            _assert_column(v)


def _rref_line_events(rows):
    """The lines _rref's own frame runs while it eliminates rows."""
    count, code, outer = 0, la._rref.__code__, sys.gettrace()

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        la._rref(rows)
    finally:
        sys.settrace(outer)
    return count


def test_back_elimination_on_a_diagonal_system_touches_no_pivot_row(
        monkeypatch):
    """Each unknown its own component, as in kC_n's integral systems: no
    pivot row is combined with another, and the lines run grow with the
    row count, not its square (rank^2 pivot row reads before the index)."""
    combines = []
    monkeypatch.setattr(la, "_combine",
                        lambda *args: combines.append(args) or 1)

    def diagonal(n):
        return [{i: (i % 5) + 1} for i in reversed(range(n))]

    rows, pivots = la._rref(diagonal(300))
    assert pivots == list(range(300)) and not combines
    assert all(row == {p: 1} for row, p in zip(rows, pivots))
    assert _rref_line_events(diagonal(400)) < 2.5 * _rref_line_events(
        diagonal(200))


@st.composite
def infeasible_systems(draw):
    """(coeff, rhs) with no solution: tall rows with a drawn right side, and
    at a drawn place one more row, a combination of the others, whose right
    side is off by a nonzero delta."""
    rows = draw(tall_rows())
    rhs = list(_vector(draw, len(rows)))
    coefs = _vector(draw, len(rows))
    delta = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    k = draw(st.integers(0, len(rows)))
    rows.insert(k, [sum(c * row[j] for c, row in zip(coefs, rows))
                    for j in range(len(rows[0]))])
    rhs.insert(k, sum(c * b for c, b in zip(coefs, rhs)) + delta)
    f = LinearMap.from_rows(_space(len(rows[0])), _space(len(rows)), rows)
    return f, tuple(la.frac(b) for b in rhs)


@settings(max_examples=100, deadline=None)
@given(infeasible_systems(), st.data())
def test_infeasibility_certificate_reverifies_from_the_transpose(system, data):
    f, rhs = system
    sol = solve_affine(f, rhs)
    assert isinstance(sol, Infeasible)
    assert (sol.coeff, sol.rhs) == (f, rhs)
    assert sol.reverify()
    r, a = sol.system_rank, sol.augmented_rank
    for wrong in ((r - 1, a), (r + 1, a), (r, a - 1), (r, a + 1)):
        assert not Infeasible(*wrong, f, rhs).reverify()
    # a feasible system has augmented rank r, not r + 1
    feasible = tuple(_ref_apply(_dense(f), _vector(data.draw, f.domain.dim)))
    assert not Infeasible(r, r + 1, f, feasible).reverify()


@settings(max_examples=50, deadline=None)
@given(tall_rows())
def test_quotient_projection_matches_dense_reference(rows):
    n = len(rows[0])
    red, pivots = _ref_rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    rel = LinearMap(_space(len(rows)), _space(n),
                    tuple(_col(row) for row in rows))
    q = quotient_by(rel)
    for v in q.relations.basis:
        _assert_column(v)
    want = [[Fraction(int(j == fc)) for j in range(n)] for fc in free]
    for row, p in zip(red, pivots):
        for i, fc in enumerate(free):
            want[i][p] = -row[fc]
    assert _dense(q.projection) == want
    assert (q.projection @ q.section).is_identity()
    _assert_canonical(q.projection)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_inverse_matches_dense_gauss_jordan(n, dominant, data):
    rows = data.draw(sparse_rows(n, n))
    if dominant:    # strictly diagonally dominant, so invertible
        rows = [[x + 1000 if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    f = LinearMap.from_rows(_space(n), _space(n), rows)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    red, pivots = _ref_rref([row + e for row, e in zip(rows, ident)], 2 * n)
    if pivots != list(range(n)):
        assert not dominant
        with pytest.raises(ValueError):
            f.inverse()
        return
    inv = f.inverse()
    _assert_canonical(inv)
    assert _dense(inv) == [row[n:] for row in red]
