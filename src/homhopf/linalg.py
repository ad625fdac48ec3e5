"""Exact rational linear algebra over finite-dimensional spaces.

Everything downstream (algebra structure maps, coactions, integrals,
Galois maps) is a matrix of exact scalars over a fixed basis, stored as
sparse columns, as is each returned vector.  A scalar is an int when its
denominator is 1 and a Fraction otherwise (frac gives that form), so
integer constants stay in int arithmetic.  Every helper returns scalars in
that form.  An int and a Fraction of the same value compare and hash equal
and print the same, so the form never shows in a comparison or a report.
There is no floating point anywhere, and the arithmetic runs on ints: each
map caches its least common denominator d with its columns times d, the
products multiply those ints, and Fractions are built only when entries
are read.  A column x of g @ x costs the nonzeros of the columns of g it
reads, then a sort of the accumulated rows when there are two or more; a
one-entry x = (k, c) is g's column k, times c unless c = 1, with no
accumulator.  Legs are reordered two ways only: swap_map flips x (x) y,
product_after builds (f (x) g)(1 (x) flip (x) 1)(x (x) y) without
x (x) y, a scalar leg given as SCALAR_SPACE; a column costs
nnz(x)·nnz(y)·nnz(g) at most, plus nnz(f) per distinct index.  The one
elimination, _rref, is fraction-free on sparse rows read off those
int columns, so its cost follows the nonzeros, not m x n.  It returns the
reduced row echelon form, which is unique: pivots, solutions, kernel bases
and ranks do not depend on the order in which rows are met.  Dense tuples
remain only at the boundary: the rhs of solve_affine, and .matrix for the
CLI's certificates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .records import record

# An exact scalar: an int when integral, a Fraction otherwise.
Scalar = int | Fraction
Vector = tuple[Scalar, ...]


def frac(x) -> Scalar:
    """x (an int, a Fraction or a string such as "p/q") as an exact scalar:
    an int when it is integral, a Fraction otherwise."""
    if type(x) is int:
        return x
    q = x if isinstance(x, Fraction) else Fraction(x)
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

class Space:
    """A finite-dimensional space with a labelled basis, empty if dim is 0.

    A tensor product space keeps its factors and spells out (and checks) its
    labels only when they are first read, so the wide intermediate space of
    a composite map costs no more than its dimension.
    """

    __slots__ = ("dim", "_labels", "factors")

    def __init__(self, labels: tuple[str, ...]):
        labels = tuple(labels)
        _require_distinct(labels)
        self.dim = len(labels)
        self._labels: Optional[tuple[str, ...]] = labels
        # the tensor factors; (self,) when self is not a tensor product
        self.factors: tuple[Space, ...] = (self,)

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            labels = [""]
            for sp in self.factors:
                labels = [a + ("⊗" if a else "") + b
                          for a in labels for b in sp.labels]
            self._labels = _require_distinct(tuple(labels))
        return self._labels

    def __eq__(self, other):
        if not isinstance(other, Space):
            return NotImplemented
        return self.dim == other.dim and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Space({list(self.labels)})"


def _require_distinct(labels: tuple[str, ...]) -> tuple[str, ...]:
    if len(set(labels)) != len(labels):
        raise ValueError("basis labels must be pairwise distinct")
    return labels


def space(*labels: str) -> Space:
    return Space(tuple(labels))


SCALAR_SPACE = space("k")


def tensor_space(*spaces: Space) -> Space:
    """Tensor product space, row-major (left factor slowest)."""
    factors = tuple(f for sp in spaces for f in sp.factors)
    if not factors:
        raise ValueError("a tensor product needs at least one factor")
    out = Space.__new__(Space)
    out.dim = math.prod(f.dim for f in factors)
    out._labels = None
    out.factors = factors
    return out


# ---------------------------------------------------------------------------
# Vector helpers
# ---------------------------------------------------------------------------

def unrank(dims: Sequence[int], k: int) -> tuple[int, ...]:
    """Split a composite (row-major) basis index into per-factor indices."""
    out = []
    for d in reversed(dims):
        out.append(k % d)
        k //= d
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Linear maps
# ---------------------------------------------------------------------------

# A sparse column: (row, coeff) pairs, rows ascending, no zero coefficients.
Column = tuple[tuple[int, Scalar], ...]


def _sparse(acc: dict[int, Scalar]) -> Column:
    """The canonical column of a row -> coefficient accumulator whose
    scalars are ints or in frac's form: nonzero entries, rows ascending."""
    if len(acc) < 2:
        return tuple(acc.items()) if all(acc.values()) else ()
    return tuple(sorted(acc.items() if 0 not in acc.values()
                        else [(i, c) for i, c in acc.items() if c]))


def _times(pairs, d: int) -> tuple[tuple[int, int], ...]:
    """The pairs (i, c) as (i, c * d), d a multiple of each denominator."""
    return tuple((i, c * d if type(c) is int
                  else c.numerator * (d // c.denominator)) for i, c in pairs)


# Stores past the frozen LinearMap's __setattr__: the scaled form of a map
# given by cols, the cols of a product, and a product's other fields.
_set = object.__setattr__


class _ProductCols:
    """The cols of a product, which stores only its scaled form: built on
    first read and stored on the map, where later reads find them.  (A
    __getattr__ would slow every attribute read of the class.)"""

    def __get__(self, f, owner=None):
        if f is None:
            return self
        d, cols = f.scaled
        if d != 1:
            cols = tuple(tuple(_over(dict(col), d).items()) for col in cols)
        _set(f, "cols", cols)
        return cols


@record(frozen=True)
class LinearMap:
    """A linear map in fixed bases, stored as domain.dim sparse columns.

    Column j holds the nonzero entries of the image of basis vector j.  The
    form is canonical, as is the scaled form (d, cols times d), which the
    constructor computes and a product holds alone until cols is read.
    """

    domain: Space
    codomain: Space
    cols: tuple[Column, ...]

    def __post_init__(self):
        if len(self.cols) != self.domain.dim:
            raise ValueError("column count does not match domain dim")
        dens = [c.denominator for col in self.cols for _, c in col
                if type(c) is not int]
        d = math.lcm(*dens)
        _set(self, "scaled", (d, tuple(_times(col, d) for col in self.cols))
             if dens else (1, self.cols))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(domain: Space, codomain: Space, rows) -> "LinearMap":
        rows = [[frac(x) for x in row] for row in rows]
        if len(rows) != codomain.dim:
            raise ValueError("matrix row count does not match codomain dim")
        if any(len(row) != domain.dim for row in rows):
            raise ValueError("matrix column count does not match domain dim")
        return LinearMap(domain, codomain, tuple(
            tuple((i, row[j]) for i, row in enumerate(rows) if row[j])
            for j in range(domain.dim)))

    @staticmethod
    def identity(sp: Space) -> "LinearMap":
        return LinearMap(sp, sp, tuple(((j, 1),) for j in range(sp.dim)))

    @staticmethod
    def zero(domain: Space, codomain: Space) -> "LinearMap":
        return LinearMap(domain, codomain, ((),) * domain.dim)

    @property
    def matrix(self) -> tuple[Vector, ...]:
        """Dense rows, rebuilt on every access; for emission, never for
        elimination."""
        rows = [[0] * self.domain.dim for _ in range(self.codomain.dim)]
        for j, col in enumerate(self.cols):
            for i, c in col:
                rows[i][j] = c
        return tuple(map(tuple, rows))

    # -- algebra of maps ----------------------------------------------------

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        """Composition self after other."""
        if other.codomain.dim != self.domain.dim:
            raise ValueError("maps are not composable")
        dm, mine = self.scaled
        do, theirs = other.scaled
        cols = []
        for col in theirs:
            if len(col) == 1:  # column k of self, times c
                (k, c), = col
                cols.append(mine[k] if c == 1
                            else tuple([(i, c * v) for i, v in mine[k]]))
                continue
            acc: dict[int, int] = {}
            for k, c in col:
                for i, v in mine[k]:
                    p = c * v
                    o = acc.get(i)
                    acc[i] = p if o is None else o + p
            cols.append(_sparse(acc))
        return _scaled_map(other.domain, self.codomain, dm * do, tuple(cols))

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Tensor product f (x) g with row-major basis ordering."""
        dom = tensor_space(self.domain, other.domain)
        cod = tensor_space(self.codomain, other.codomain)
        n = other.codomain.dim
        dm, mine = self.scaled
        do, theirs = other.scaled
        # a product of nonzero ints is a nonzero int, already canonical
        return _scaled_map(dom, cod, dm * do, tuple([
            tuple([(i * n + k, a * b) for i, a in c1 for k, b in c2])
            for c1 in mine for c2 in theirs]))

    def _merge(self, other: "LinearMap", negate: bool) -> "LinearMap":
        if (self.domain.dim, self.codomain.dim) != \
           (other.domain.dim, other.codomain.dim):
            raise ValueError("maps have different shapes")
        (da, mine), (db, theirs) = self.scaled, other.scaled
        d = math.lcm(da, db)
        sa, sb = d // da, -(d // db) if negate else d // db
        cols = []
        for a, b in zip(mine, theirs):
            acc = {i: c * sa for i, c in a}
            for i, c in b:
                acc[i] = acc.get(i, 0) + c * sb
            cols.append(_sparse(acc))
        return _scaled_map(self.domain, self.codomain, d, tuple(cols))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return self._merge(other, negate=False)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self._merge(other, negate=True)

    def same_matrix(self, other: "LinearMap") -> bool:
        return (self.codomain.dim == other.codomain.dim
                and self.scaled == other.scaled)

    def is_identity(self) -> bool:
        return self.same_matrix(LinearMap.identity(self.domain))

    def inverse(self) -> "LinearMap":
        """Exact inverse; raises ValueError if the map is not invertible."""
        n = self.domain.dim
        if self.codomain.dim != n:
            raise ValueError("only square maps can be inverted")
        aug, d = _rows(self)
        for i, row in enumerate(aug):
            row[n + i] = d
        rows, pivots = _rref(aug)
        if pivots != list(range(n)):
            raise ValueError("map is not invertible")
        # row i of the inverse is the right half of pivot row i
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
        for i, row in enumerate(rows):
            for c, x in row.items():
                if c >= n:
                    cols[c - n].append((i, x))
        return LinearMap(self.codomain, self.domain, tuple(map(tuple, cols)))

    def __repr__(self):
        return f"LinearMap({self.domain.dim}->{self.codomain.dim})"


def _scaled_map(domain: Space, codomain: Space, d: int,
                cols: tuple[Column, ...]) -> LinearMap:
    """The map cols / d (int columns), over its least denominator."""
    g = math.gcd(d, *(c for col in cols for _, c in col)) if d != 1 else 1
    if g != 1:
        d //= g
        cols = tuple(tuple((i, c // g) for i, c in col) for col in cols)
    f = LinearMap.__new__(LinearMap)
    _set(f, "domain", domain)
    _set(f, "codomain", codomain)
    _set(f, "scaled", (d, cols))
    return f


# Set after @record, which would take a class attribute named like the field
# cols for its default.
LinearMap.cols = _ProductCols()


# ---------------------------------------------------------------------------
# Elimination, rank, affine solving
# ---------------------------------------------------------------------------

# A sparse row: column -> nonzero coefficient, no stored zeros.
Row = dict[int, Scalar]


def _rows(f: LinearMap) -> tuple[list[Row], int]:
    """(the rows of f's scaled int columns, read off in O(nnz), d)."""
    d, cols = f.scaled
    rows: list[Row] = [{} for _ in range(f.codomain.dim)]
    for j, col in enumerate(cols):
        for i, c in col:
            rows[i][j] = c
    return rows, d


def _combine(row: Row, a: int, b: Scalar, other: Row) -> int:
    """row = a * row - b * other, a and b first divided by their gcd when b
    is an int; drops the entries that cancel and returns the a used."""
    if a != 1 and type(b) is int:
        g = math.gcd(a, b)
        a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in other.items():
        if o := row.get(c, 0) - b * v:
            row[c] = o
        else:
            del row[c]
    return a


def _primitive(row: Row, negate: bool = False) -> None:
    """Divide row by the gcd of its entries, negated if negate, in place."""
    g = -math.gcd(*row.values()) if negate else math.gcd(*row.values())
    if g != 1:
        for c in row:
            row[c] //= g


def _rref(rows: Iterable) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows; returns (pivot rows, pivot
    columns), both sorted by pivot column.

    Each row is a Row or an iterable of (column, nonzero) pairs; it is
    copied, not changed.  A row is reduced by the pivot rows found so far,
    each step a * row - b * pivot_row.  What is left becomes a pivot row of
    coprime ints with a positive pivot, which is eliminated from the earlier
    pivot rows the same way; int rows meeting only pivots 1 take no gcd.
    Pivot rows are divided by their pivots only when returned.  The RREF is
    unique, so the result does not depend on the order of the rows.
    holders[c] holds every pivot whose row holds the non-pivot column c
    (and perhaps some where c cancelled), so a new pivot p is eliminated
    from those rows alone.
    """
    pivot_rows: dict[int, Row] = {}
    holders: dict[int, set[int]] = {}
    ints = {int}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in pivot_rows]:
            prow = pivot_rows[c]
            _combine(row, prow[c], row[c], prow)
        if not row:
            continue
        if not ints.issuperset(map(type, row.values())):
            row = dict(_times(row.items(), math.lcm(*(
                v.denominator for v in row.values() if type(v) is not int))))
        p = min(row)
        if row[p] != 1:
            _primitive(row, row[p] < 0)
        pv, holding = row[p], holders.pop(p, set())
        for q in holding:
            prow = pivot_rows[q]
            if (x := prow.get(p)) and _combine(prow, pv, x, row) != 1:
                _primitive(prow)
        for c in row.keys() - {p}:  # now perhaps in p's row and holding's
            holders.setdefault(c, set()).update(holding, (p,))
        pivot_rows[p] = row
    pivots = sorted(pivot_rows)
    return [_over(pivot_rows[p], pivot_rows[p][p]) for p in pivots], pivots


def _over(row: Row, d: int) -> Row:
    """row / d in frac's form."""
    return row if d == 1 else {c: Fraction(v, d) if v % d else v // d
                               for c, v in row.items()}


def rank(f: LinearMap) -> int:
    """Exact rank, by eliminating the columns of f as rows (rank f = rank
    f^T)."""
    return len(_rref(f.scaled[1])[1])


@record(frozen=True)
class AffineSolution:
    """A certified solution of coeff . x = rhs together with ker(coeff)."""

    particular: Column
    kernel: tuple[Column, ...]


@record(frozen=True)
class Infeasible:
    """Rank certificate for the unsolvable affine system coeff . x = rhs:
    rank [coeff | rhs] = rank coeff + 1."""

    system_rank: int
    augmented_rank: int
    coeff: LinearMap
    rhs: Vector

    def reverify(self) -> bool:
        """Recompute both ranks from the transpose: eliminate coeff's scaled
        int columns, then those and rhs, where solve_affine eliminated rows
        (row rank = column rank; a scale on coeff changes neither rank)."""
        sys_rank = rank(self.coeff)
        aug_rank = len(_rref(self.coeff.scaled[1]
                             + (_sparse(dict(enumerate(self.rhs))),))[1])
        return (sys_rank == self.system_rank
                and aug_rank == self.augmented_rank
                and aug_rank == sys_rank + 1)


def solve_affine(coeff: LinearMap, rhs: Vector) -> AffineSolution | Infeasible:
    """Solve coeff . x = rhs exactly.

    Returns a particular solution (free variables set to zero) plus a
    kernel basis, as sparse columns, or an Infeasible certificate with
    augmented_rank = system_rank + 1.
    """
    m, n = coeff.codomain.dim, coeff.domain.dim
    if len(rhs) != m:
        raise ValueError("rhs length does not match codomain dim")
    aug, d = _rows(coeff)
    for row, b in zip(aug, rhs):
        if b:
            row[n] = frac(b * d)
    rows, pivots = _rref(aug)
    if n in pivots:
        return Infeasible(len(pivots) - 1, len(pivots), coeff, rhs)
    pivot_set = set(pivots)
    particular = []
    # free column -> its 1 and (pivot, -entry) over the pivot rows holding it
    free: dict[int, list[tuple[int, Scalar]]] = {
        c: [(c, 1)] for c in range(n) if c not in pivot_set}
    for row, p in zip(rows, pivots):
        for c, x in row.items():
            if c == n:
                particular.append((p, x))
            elif c != p:
                free[c].append((p, -x))
    return AffineSolution(tuple(particular),
                          tuple(tuple(sorted(v)) for v in free.values()))


def kernel_basis(f: LinearMap) -> tuple[Column, ...]:
    sol = solve_affine(f, (0,) * f.codomain.dim)
    assert isinstance(sol, AffineSolution)
    return sol.kernel


# ---------------------------------------------------------------------------
# Subspaces and quotient spaces
# ---------------------------------------------------------------------------

@record(frozen=True)
class Subspace:
    """A subspace of ambient with its RREF basis, sparse columns: basis
    vector r has a 1 in row pivots[r] and 0 in every other pivot row, so
    a vector's coordinates in the subspace are its entries at the pivots."""

    ambient: Space
    basis: tuple[Column, ...]
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def embedding(self, space: Space) -> LinearMap:
        """The inclusion space -> ambient, space labelling the basis."""
        return LinearMap(space, self.ambient, self.basis)

    def coordinates(self, f: LinearMap, space: Space) -> Optional[LinearMap]:
        """g: f.domain -> space with embedding(space) @ g == f, or None when
        f does not land in the subspace."""
        row = {p: r for r, p in enumerate(self.pivots)}
        g = LinearMap(f.domain, space, tuple(
            tuple((row[i], c) for i, c in col if i in row) for col in f.cols))
        return g if (self.embedding(space) @ g).same_matrix(f) else None


def span(ambient: Space, columns: Iterable[Column]) -> Subspace:
    """Canonical (RREF) basis of the span of the given sparse columns."""
    rows, pivots = _rref(columns)
    return Subspace(ambient, tuple(tuple(sorted(row.items())) for row in rows),
                    tuple(pivots))


@record(frozen=True)
class QuotientSpace:
    """The cokernel of rel, with an explicit projection and section."""

    rel: LinearMap
    relations: Subspace     # the span of rel's columns
    space: Space
    projection: LinearMap   # rel.codomain -> space
    section: LinearMap      # space -> rel.codomain

    @property
    def dim(self) -> int:
        return self.space.dim


def quotient_by(rel: LinearMap) -> QuotientSpace:
    """The cokernel of rel, its columns' span read off their scaled ints.

    The section sends quotient basis vectors to the free-coordinate unit
    vectors of rel.codomain; projection reduces modulo the RREF of the
    relations, so projection . section = id, ker(projection) =
    span(relations), and the quotient is zero when that is rel.codomain.
    """
    ambient = rel.codomain
    sub = span(ambient, rel.scaled[1])
    pivot_row = dict(zip(sub.pivots, sub.basis))
    free_cols = [c for c in range(ambient.dim) if c not in pivot_row]
    qspace = Space(tuple(f"[{ambient.labels[c]}]" for c in free_cols))
    free_index = {c: i for i, c in enumerate(free_cols)}
    # a basis column is its pivot's 1, then free rows, ascending
    proj_cols = []
    for j in range(ambient.dim):
        row = pivot_row.get(j)
        if row is None:
            proj_cols.append(((free_index[j], 1),))
        else:
            proj_cols.append(tuple((free_index[c], -x) for c, x in row[1:]))
    projection = LinearMap(ambient, qspace, tuple(proj_cols))
    section = LinearMap(qspace, ambient,
                        tuple(((fc, 1),) for fc in free_cols))
    return QuotientSpace(rel, sub, qspace, projection, section)


def basis_inclusion(sp: Space, indices: Sequence[int]) -> LinearMap:
    """The inclusion of the span of sp's basis vectors indices, so labelled."""
    return LinearMap(Space(tuple(sp.labels[i] for i in indices)), sp,
                     tuple(((i, 1),) for i in indices))


def swap_map(left: Space, right: Space) -> LinearMap:
    """The flip x (x) y -> y (x) x, basis column by basis column."""
    m, n = left.dim, right.dim
    return LinearMap(tensor_space(left, right), tensor_space(right, left),
                     tuple(((j % n * m + j // n, 1),) for j in range(m * n)))


def tensor_after(f: LinearMap, g: LinearMap, x: LinearMap) -> LinearMap:
    """(f (x) g) . x, column by column, without building f (x) g.

    x's codomain is read as f.domain (x) g.domain, so a factor of
    dimension one (the scalars) may be left implicit."""
    n = g.domain.dim
    if x.codomain.dim != f.domain.dim * n:
        raise ValueError("maps are not composable")
    m = g.codomain.dim
    (df, fcols), (dg, gcols), (dx, xcols) = f.scaled, g.scaled, x.scaled
    cols = []
    for col in xcols:
        acc: dict[int, int] = {}
        for r, c in col:
            i, k = divmod(r, n)
            gcol = gcols[k]
            for fi, a in fcols[i]:
                ca = c * a
                base = fi * m
                for gi, b in gcol:
                    p = ca * b
                    o = acc.get(base + gi)
                    acc[base + gi] = p if o is None else o + p
        cols.append(_sparse(acc))
    return _scaled_map(x.domain, tensor_space(f.codomain, g.codomain),
                       df * dg * dx, tuple(cols))


def product_after(f: LinearMap, g: LinearMap, x: LinearMap, y: LinearMap,
                  spaces: Sequence[Space]) -> LinearMap:
    """(f (x) g) . (1 (x) flip (x) 1) . (x (x) y), spaces = (P, Q, R, S) for
    x: V -> P (x) Q, y: W -> R (x) S, f on P (x) R and g on Q (x) S, one leg
    at a time and without x (x) y or the flip: g is applied to e_j (x) y(w)
    for each Q index j, once for all of x's columns, then f once for each
    distinct (P (x) R, g row) index of a column."""
    p, q, r, s = (sp.dim for sp in spaces)
    if (x.codomain.dim, y.codomain.dim, f.domain.dim, g.domain.dim) != \
       (p * q, r * s, p * r, q * s):
        raise ValueError("maps are not composable")
    m, (df, fcols), (dg, gcols) = g.codomain.dim, f.scaled, g.scaled
    (dx, xcols), (dy, ycols) = x.scaled, y.scaled
    # gy[j][w]: R index * m + g row -> coefficient in (1 (x) g)(e_j (x) y(w))
    gy = [[{} for _ in ycols] for _ in range(q)]
    for j, gj in enumerate(gy):
        for acc, col in zip(gj, ycols):
            for i, c in col:
                for t, v in gcols[j * s + i % s]:
                    o = acc.get(i // s * m + t)
                    acc[i // s * m + t] = c * v if o is None else o + c * v
    cols = []
    for col in xcols:
        legs = [(i // q * r * m, gy[i % q], c) for i, c in col]
        for w in range(len(ycols)):
            inner: dict[int, int] = {}
            for base, gw, a in legs:
                for k, c in gw[w].items():
                    o = inner.get(base + k)
                    inner[base + k] = a * c if o is None else o + a * c
            acc = {}
            for k, c in inner.items():
                for fi, a in fcols[k // m]:
                    o = acc.get(fi * m + k % m)
                    acc[fi * m + k % m] = c * a if o is None else o + c * a
            cols.append(_sparse(acc))
    return _scaled_map(tensor_space(x.domain, y.domain),
                       tensor_space(f.codomain, g.codomain),
                       df * dg * dx * dy, tuple(cols))
