"""Exact linear algebra over the rationals.

A Matrix is immutable and holds only its nonzero rows: per row, the
(column, entry) pairs in increasing column order, with no zero entry, since
module generators and their products are mostly zeros. That form is
canonical, so equality and hashing are exact, and every operation touches
only nonzero entries; dense rows, columns and entries are views built on
request. Sums, differences, scalings and shifts go through one sparse self +
c * other.

A Matrix caches one integer view, by rows and by columns: `den`, the lcm
of its denominators, `int_rows`, the nonzero rows of den * M, and
`int_cols`, its columns, transposed once from `int_rows` (Gustavson 1978,
permuted transposition). A product is formed row by row (Gustavson 1978)
over the two factors' integer rows: each integer row of the left factor, as
its nonzero pairs, times the integer rows of the right one (`row_product`),
and one Fraction, x / (den_a den_b), per nonzero entry of the result.
Products that only feed a verdict stay in `int`, through the same loop.

One sparse echelon form (`SpanAccumulator`) does all exact elimination:
spans, kernels, ranks, sums, Zassenhaus intersections ([a | a] over [b | 0])
and matrices from their graphs ((x | T x) rows reduce to (e_i | T e_i)). It
runs over the integers, fraction-free in the manner of Bareiss (1968): a
vector is cleared to integers once, on entry, each reduction step is a
cross-multiplication by the pivot entries divided by their gcd, and each
stored row N_p is primitive (content 1) with a positive pivot entry N_p[p].
That is the one row format: the primitive row is as canonical as the
reduced Fraction row N_p / N_p[p] it stands for, so a Subspace is the
echelon's reduced rows in that form, {pivot: N_p}, shared with the
echelon, and subspace equality is entry-wise. Its basis matrix is the one
Fraction view, built on request. A sum extends the larger space's echelon
by the other's rows, and a ladder's partial sums extend one echelon a space
at a time.

Containment needs no Fraction at all: scaling a vector by a nonzero
constant does not change whether it lies in a subspace, and w lies in the
span of the reduced rows it hits exactly when L * w - sum of w[p] * (L /
N_p[p]) * N_p vanishes, with L the lcm of those N_p[p]. An image column of
op on a subspace S is taken as (den op) N_p, a nonzero multiple of the true
column, summed from the integer columns of op that the row N_p of S hits;
an eigenvalue move (op - a/b I)(S) is b (den op) N_p - a den N_p. A kernel
of op - a/b I eliminates the rows b (den op)_i - a den e_i, and one of its
transpose the columns likewise. So the shift enters the integer view, and
no shifted or transposed Matrix is built.

Coordinate subspaces, those spanned by unit vectors, are decided without
elimination. A matrix whose nonzero entries all lie on the diagonal (K, K0
and K1 of every module the factory builds) caches that diagonal,
`diagonal_entries`, and the kernel of D - s I, which is also that of its
transpose, is the span of the e_i with d_i = s: the reduced rows {i: 1}
that elimination would give. A subspace whose reduced rows are all unit
rows {p: 1} (`is_coordinate`: the eigenspaces of a diagonal K and every
sum of them) holds a vector exactly when the vector's support lies within
the pivots. The whole space holds every image, so `contains_image` forms
no column for it. A move of one coordinate space into another, (op - s
I)(S) inside T, is read off op's integer columns at the pivots of S: each
entry off the diagonal must sit at a pivot of T, and the diagonal entry
must be s unless its index is one (`_coordinate_move`), so no image
column is formed. Every move along the weight ladder of a diagonal K is
one: the U-moves of `extension.extend` and those each weight analysis
checks. Any other matrix or subspace takes the general path, at the cost
of one cached scan, and an image tested against several targets (a
tridiagonal move) has its columns formed once for all of them.

A matrix with every nonzero entry on one side of the diagonal (K, R and L
of every module the factory builds) has its diagonal as spectrum. For any
other, the characteristic polynomial comes from the Faddeev-LeVerrier
recurrence (valid in characteristic zero), and rational roots need no
factoring: the real roots of the square-free part are isolated by Sturm
bisection at dyadic points in integer arithmetic, and each isolating
interval is shrunk until at most one fraction of small enough denominator
fits in it. No floating point appears anywhere, so results are bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Sequence

from .scalars import ONE, ZERO, as_scalar

Vector = tuple[Fraction, ...]
Row = dict[int, Fraction]  # the nonzero entries of a vector, {index: entry}
IntRow = dict[int, int]  # the same, scaled to integers


@dataclass(frozen=True)
class Matrix:
    """An immutable rows x cols matrix of exact rationals, held as its
    canonical nonzero rows (module docstring); `from_sparse` builds them.
    Its integer view, `den` with `int_rows` and `int_cols`, is built on
    request and cached."""

    rows: int
    cols: int
    sparse_rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.sparse_rows) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.sparse_rows)}")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_sparse(rows: int, cols: int, sparse: Sequence[Row]) -> Matrix:
        """The matrix with the entries sparse[i] = {column: entry} in row i;
        zero entries are dropped."""
        return Matrix(rows, cols, tuple(
            tuple(sorted([(j, v) for j, v in row.items() if v])) for row in sparse
        ))

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Sequence[Fraction]) -> Matrix:
        """The matrix with the given rows * cols entries in row-major order."""
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        chunks = (entries[i * cols : (i + 1) * cols] for i in range(rows))
        return Matrix(rows, cols, tuple(
            tuple([(j, v) for j, v in enumerate(chunk) if v]) for chunk in chunks
        ))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> Matrix:
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        entries = [as_scalar(v) for row in rows for v in row]
        return Matrix.from_entries(len(rows), ncols, entries)

    @staticmethod
    def from_graph(n: int, pairs: Iterable[tuple[Row, Row]]) -> Matrix:
        """The n x n T with T x = y for each pair of Rows (x, y): the rows (x | y)
        span the graph {(x, T x)} and reduce to (e_i | T e_i). ValueError when
        the x do not span F^n or a pivot is in the right block (inconsistent)."""
        stacked = ({**x, **{n + j: v for j, v in y.items()}} for x, y in pairs)
        rows = _echelon(2 * n, map(int_row, stacked)).reduced()
        if set(rows) != set(range(n)):
            raise ValueError("matrix is singular")
        images = [{j - n: Fraction(v, rows[i][i]) for j, v in rows[i].items() if j >= n}
                  for i in range(n)]
        return Matrix.from_sparse(n, n, images).transpose()

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix.diagonal([ONE] * n)

    @staticmethod
    def diagonal(values: Sequence[int | str | Fraction]) -> Matrix:
        diag = [{i: as_scalar(v)} for i, v in enumerate(values)]
        return Matrix.from_sparse(len(values), len(values), diag)

    # -- the integer view, built on request ----------------------------------

    @cached_property
    def den(self) -> int:
        """The lcm of the entries' denominators: den * self is integral."""
        return math.lcm(*[v.denominator for row in self.sparse_rows for _, v in row])

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero rows of den * self, in the shape of `sparse_rows`."""
        d = self.den
        return tuple(
            tuple([(j, v.numerator * (d // v.denominator)) for j, v in row])
            for row in self.sparse_rows
        )

    @cached_property
    def int_cols(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The columns of den * self, each as its nonzero (row, entry) pairs
        in increasing row order: `int_rows` transposed in one pass over its
        entries (Gustavson 1978, permuted transposition), with no Fraction."""
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.int_rows):
            for j, v in row:
                cols[j].append((i, v))
        return tuple(map(tuple, cols))

    @cached_property
    def diagonal_entries(self) -> tuple[Fraction, ...] | None:
        """The n diagonal entries when the matrix is n x n and every nonzero
        entry lies on the diagonal, else None: one scan of the rows."""
        if not self.is_square:
            return None
        out = []
        for i, row in enumerate(self.sparse_rows):
            if not row:
                out.append(ZERO)
            elif len(row) == 1 and row[0][0] == i:
                out.append(row[0][1])
            else:
                return None
        return tuple(out)

    # -- dense views, built on request -------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        return dict(self.sparse_rows[i]).get(j, ZERO)

    def row(self, i: int) -> Vector:
        out = [ZERO] * self.cols
        for j, v in self.sparse_rows[i]:
            out[j] = v
        return tuple(out)

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def entries(self) -> Vector:
        """All rows * cols entries in row-major order, zeros included."""
        out = [ZERO] * (self.rows * self.cols)
        for i, row in enumerate(self.sparse_rows):
            for j, v in row:
                out[i * self.cols + j] = v
        return tuple(out)

    # -- structure ----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, v) for i, row in enumerate(self.sparse_rows) for j, v in row]

    def transpose(self) -> Matrix:
        out: list[Row] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse_rows):
            for j, v in row:
                out[j][i] = v
        return Matrix.from_sparse(self.cols, self.rows, out)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, c: Fraction, other: Matrix) -> Matrix:
        """self + c * other, over the nonzero entries of other."""
        self._same_shape(other)
        one = c == 1
        rows = []
        for mine, theirs in zip(self.sparse_rows, other.sparse_rows):
            out = dict(mine)
            for j, v in theirs:
                v = v if one else c * v
                out[j] = out[j] + v if j in out else v
            rows.append(out)
        return Matrix.from_sparse(self.rows, self.cols, rows)

    def __add__(self, other: Matrix) -> Matrix:
        return self._plus(ONE, other)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._plus(-ONE, other)

    def __neg__(self) -> Matrix:
        return self.scale(-ONE)

    def scale(self, c: int | str | Fraction) -> Matrix:
        return Matrix.zero(self.rows, self.cols)._plus(as_scalar(c), self)

    def __rmul__(self, c: int | Fraction) -> Matrix:
        return self.scale(c)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        right, den = other.int_rows, self.den * other.den
        return Matrix(self.rows, other.cols, tuple(
            tuple(sorted([(j, Fraction(v, den)) for j, v in row_product(row, right).items()]))
            for row in self.int_rows
        ))

    def power(self, k: int) -> Matrix:
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative powers: use inverse() explicitly")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def shift(self, c: Fraction) -> Matrix:
        """self - c I, subtracting c on the diagonal only."""
        if not self.is_square:
            raise ValueError("shift of a non-square matrix")
        return self._plus(ONE, Matrix.diagonal([-c] * self.rows))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), ZERO)

    def inverse(self) -> Matrix:
        """T with T (M e_k) = e_k for every k (`from_graph`); ValueError if singular."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        columns = enumerate(self.transpose().sparse_rows)
        return Matrix.from_graph(self.rows, ((dict(c), {k: ONE}) for k, c in columns))

    def _same_shape(self, other: Matrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __str__(self) -> str:
        return "\n".join(
            "[" + "  ".join(str(v) for v in self.row(i)) + "]" for i in range(self.rows)
        )


def row_product(
    row: Iterable[tuple[int, int]], rows: Sequence[Iterable[tuple[int, int]]]
) -> IntRow:
    """The integer row vector given by its nonzero (index, entry) pairs times
    the integer matrix given by its rows' nonzero (column, entry) pairs, as
    {column: entry}; entries that cancel to zero are dropped."""
    out: IntRow = {}
    for t, c in row:
        for j, b in rows[t]:
            v = c * b
            out[j] = out[j] + v if j in out else v
    return {j: v for j, v in out.items() if v}


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) of the result is a[i,j] * b."""
    rows = [{j1 * b.cols + j2: c * v for j1, c in ra for j2, v in rb}
            for ra in a.sparse_rows for rb in b.sparse_rows]
    return Matrix.from_sparse(a.rows * b.rows, a.cols * b.cols, rows)


# -- echelon forms and subspaces -------------------------------------------


def int_row(v: Row | IntRow) -> IntRow:
    """A positive multiple of the sparse vector v, {index: entry}, with
    integer entries: v times the lcm of its denominators, zeros dropped.
    It spans the same line, so it may stand for v in any span."""
    # The lcm's arguments are unpacked from a list, not a generator: a
    # generator's argument tuple is built by resizing, and CPython then keeps
    # up to 2000 such tuples per length on its free lists, for good.
    d = math.lcm(*[x.denominator for x in v.values()])
    return {i: x.numerator * (d // x.denominator) for i, x in v.items() if x}


def _primitive_row(w: IntRow, p: int) -> IntRow:
    """w divided by its content, signed so that the entry at p is positive."""
    g = math.gcd(*w.values())
    if w[p] < 0:
        g = -g
    return w if g == 1 else {i: x // g for i, x in w.items()}


def _subtract(w: IntRow, c: int, row: IntRow) -> list[int]:
    """w -= c * row in place, dropping entries that cancel; returns the
    indices new to w."""
    new = [i for i in row if i not in w]
    for i, b in row.items():
        if x := (w[i] - c * b if i in w else -c * b):
            w[i] = x
        else:
            del w[i]
    return new


class SpanAccumulator:
    """The one exact elimination, behind every subspace, kernel, rank and
    graph: a sparse row echelon form over the integers, grown one vector at
    a time.

    A pivot row is a primitive integer dict of its nonzero entries: content
    1, a positive entry at its first index, the pivot, and 0 at every pivot
    that existed when it was last reduced. A vector is cleared to integers
    once, on entry, and reduced through the pivots it touches, in increasing
    order (a heap), by cross-multiplication: with a the pivot row's entry at
    p, c the vector's and g = gcd(a, c), the vector becomes (a/g) w - (c/g)
    row. The remainder is divided by its content, and its first index
    becomes a new pivot. Rows are back-substituted the same way on read-out,
    and only through the pivots added since the last one. The reduced form
    is unique, whatever the insertion order. A stored row is never changed
    in place, since a Subspace shares it: reduction replaces it by a new
    dict."""

    def __init__(self, ambient_dim: int, space: Subspace | None = None):
        """Empty, or started from the reduced rows of a Subspace."""
        self.ambient_dim = ambient_dim
        self._pivots: dict[int, IntRow] = {} if space is None else dict(space.pivot_rows)
        self._fresh: list[int] = []  # pivots added since the last read-out

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def insert(self, v: Row | IntRow) -> bool:
        """Add the sparse vector v, {index: entry}, with Fraction or int
        entries, to the span; zero entries are dropped and v itself is not
        changed. Returns True when the dimension grew."""
        return self._add(int_row(v))

    def _add(self, w: IntRow) -> bool:
        """Reduce the sparse integer vector w, which is consumed, and keep
        its primitive remainder as a pivot row unless it is zero."""
        pivots = self._pivots
        todo = [i for i in w if i in pivots]
        heapify(todo)
        while todo:
            p = heappop(todo)
            if p in w:
                row = pivots[p]
                a, c = row[p], w[p]
                g = math.gcd(a, c)
                if a != g:
                    s = a // g
                    for i, x in w.items():
                        w[i] = s * x
                for i in _subtract(w, c // g, row):
                    if i in pivots:
                        heappush(todo, i)
        if not w:
            return False
        p = min(w)
        pivots[p] = _primitive_row(w, p)
        self._fresh.append(p)
        return True

    def reduced(self) -> dict[int, IntRow]:
        """The reduced echelon rows, {pivot: row}, each 0 at every other
        pivot: in decreasing pivot order, each row loses its entries at
        fresh pivots. The rows it hits have larger pivots, so they are fully
        reduced by then: one common multiple L of their pivot entries clears
        every hit at once."""
        pivots, fresh = self._pivots, set(self._fresh)
        for p in sorted(pivots, reverse=True) if fresh else ():
            row = pivots[p]
            hits = [i for i in row if i in fresh and i != p]
            if hits:
                lcm = math.lcm(*[pivots[i][i] for i in hits])
                out = {i: lcm * x for i, x in row.items()}
                for i in hits:
                    _subtract(out, row[i] * (lcm // pivots[i][i]), pivots[i])
                pivots[p] = _primitive_row(out, p)
        self._fresh = []
        return pivots

    def to_subspace(self) -> Subspace:
        return Subspace(self.ambient_dim, dict(self.reduced()))


def _echelon(ambient_dim: int, vectors: Iterable[IntRow]) -> SpanAccumulator:
    """The echelon of the sparse integer vectors, which are consumed,
    inserted sparsest first: the order is free, and few entries make little
    fill (Markowitz 1957)."""
    acc = SpanAccumulator(ambient_dim)
    for w in sorted(vectors, key=len):
        acc._add(w)
    return acc


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim held as its reduced echelon rows,
    {pivot: N_p}, as `SpanAccumulator.reduced` hands them out: each N_p is
    a primitive integer row, positive at its pivot p and 0 at every other
    pivot. The rows are shared, so they are never changed. The form is
    canonical, so two Subspace values are equal as sets of vectors exactly
    when their rows are entry-wise equal; the basis matrix is a Fraction
    view built on request."""

    ambient_dim: int
    pivot_rows: dict[int, IntRow]

    def __hash__(self) -> int:
        """Hashes the entries, which equal subspaces share (canonical form)."""
        rows = frozenset((p, frozenset(r.items())) for p, r in self.pivot_rows.items())
        return hash((self.ambient_dim, rows))

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, {})

    @cached_property
    def basis(self) -> Matrix:
        """The ambient_dim x dim matrix with the rows N_p / N_p[p] as its
        columns, in increasing pivot order: the reduced column echelon basis."""
        rows = [{i: Fraction(x, row[p]) for i, x in row.items()}
                for p, row in sorted(self.pivot_rows.items())]
        return Matrix.from_sparse(len(rows), self.ambient_dim, rows).transpose()

    @cached_property
    def is_coordinate(self) -> bool:
        """Whether the subspace is spanned by unit vectors: every reduced row
        has one entry, which in primitive form is {p: 1}."""
        return all(len(row) == 1 for row in self.pivot_rows.values())

    def _holds(self, w: IntRow) -> bool:
        """Whether the sparse integer vector w, with no stored zero, lies in
        the subspace. In a coordinate span that is support(w) within the
        pivots. Otherwise, the rows are reduced, so w = sum of w[p] * N_p /
        N_p[p] over the pivots p it hits exactly when it is in the span;
        with L the lcm of those N_p[p], the integer L * w less each w[p] *
        (L / N_p[p]) * N_p must vanish."""
        rows = self.pivot_rows
        if self.is_coordinate:
            return w.keys() <= rows.keys()
        hits = [p for p in w if p in rows]
        lcm = math.lcm(*[rows[p][p] for p in hits])
        rest = {i: lcm * x for i, x in w.items()}
        for p in hits:
            _subtract(rest, w[p] * (lcm // rows[p][p]), rows[p])
        return not rest

    def contains(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(self._holds(row) for row in other.pivot_rows.values())

    def contains_image(self, op: Matrix, space: Subspace, shift: Fraction = ZERO) -> bool:
        """Whether (op - shift I)(space) lies in this subspace, with no
        shifted Matrix built (`_image_inside`)."""
        return _image_inside((self,), op, space, shift)


def _check_image(op: Matrix, space: Subspace, shift: Fraction) -> None:
    """ValueError unless (op - shift I) can act on the space."""
    if op.cols != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if shift and not op.is_square:
        raise ValueError("shift of a non-square matrix")


def _image_inside(
    targets: Sequence[Subspace], op: Matrix, space: Subspace, shift: Fraction
) -> bool:
    """Whether (op - shift I)(space) lies in every target. The whole space
    holds every image. A coordinate space moves into a coordinate target
    exactly when `_coordinate_move` says so, and no column is formed. For
    any other target each column of `_image_columns` is tested, and the
    columns are formed once, for every target that reads them."""
    if any(op.rows != target.ambient_dim for target in targets):
        raise ValueError("ambient dimension mismatch")
    _check_image(op, space, shift)
    columns = None
    for target in targets:
        if target.dim == target.ambient_dim:
            continue
        if space.is_coordinate and target.is_coordinate:
            inside = _coordinate_move(op, space, shift, target)
        else:
            if columns is None:
                columns = _image_columns(op, space, shift)
            inside = all(map(target._holds, columns))
        if not inside:
            return False
    return True


def _coordinate_move(
    op: Matrix, space: Subspace, shift: Fraction, target: Subspace
) -> bool:
    """Whether (op - shift I)(space) lies in the target, both spanned by unit
    vectors: each e_p of the space, p a pivot, goes to column p of op less
    shift e_p, which lies in the span of the target's e_i exactly when every
    nonzero entry of column p off the diagonal sits at a target pivot and,
    when p is not one, op[p, p] = shift. With shift = a/b that last test
    reads b (den op)[p, p] = a den off the integer column."""
    ad, b, cols = shift.numerator * op.den, shift.denominator, op.int_cols
    inside = target.pivot_rows
    for p in space.pivot_rows:
        diagonal = 0
        for i, v in cols[p]:
            if i == p:
                diagonal = v
            elif i not in inside:
                return False
        if p not in inside and b * diagonal != ad:
            return False
    return True


def _image_columns(op: Matrix, space: Subspace, shift: Fraction = ZERO) -> list[IntRow]:
    """Nonzero multiples of the columns (op - shift I) N_c, one for each row
    N_c of the space, as sparse integer vectors. With shift = a/b and O_t
    the columns of den * op (`int_cols`), column c is b sum_t N_c[t] O_t -
    a den N_c, the last term skipped when a = 0: only the columns of op
    that N_c hits are read. Scaling a column keeps its membership in a
    subspace and the span of the columns."""
    _check_image(op, space, shift)
    ad, b, cols = shift.numerator * op.den, shift.denominator, op.int_cols
    columns = []
    for row in space.pivot_rows.values():
        out: IntRow = {}
        for t, x in row.items():
            bx = b * x
            for i, v in cols[t]:
                out[i] = out[i] + bx * v if i in out else bx * v
            if ad:
                out[t] = out[t] - ad * x if t in out else -ad * x
        columns.append({i: v for i, v in out.items() if v})
    return columns


def image(m: Matrix, space: Subspace) -> Subspace:
    """The image m(space), echelonized from its integer columns."""
    return _echelon(m.rows, _image_columns(m, space)).to_subspace()


def kernel(m: Matrix, shift: Fraction = ZERO) -> Subspace:
    """The null space {v : (m - shift I) v = 0} of an arbitrary rectangular
    matrix (square when shift is nonzero), from the integer rows of m
    (`_null_space`): no shifted Matrix is built. A diagonal m needs no
    elimination (`_diagonal_kernel`)."""
    if (diagonal := m.diagonal_entries) is not None:
        return _diagonal_kernel(diagonal, shift)
    return _null_space(m, m.int_rows, m.cols, shift)


def left_kernel(m: Matrix, shift: Fraction = ZERO) -> Subspace:
    """The null space {v : v (m - shift I) = 0}, that of the transpose, from
    the integer columns of m (`_null_space`): no transposed or shifted
    Matrix is built. A diagonal m is its own transpose."""
    if (diagonal := m.diagonal_entries) is not None:
        return _diagonal_kernel(diagonal, shift)
    return _null_space(m, m.int_cols, m.rows, shift)


def _diagonal_kernel(diagonal: Sequence[Fraction], shift: Fraction) -> Subspace:
    """The null space of D - shift I for D = diag(d_0, ..., d_(n-1)): (D -
    shift I) v = 0 exactly when v is supported on {i : d_i = shift}, so it
    is the coordinate span of those e_i, the form `_null_space` gives a free
    column that no reduced row hits."""
    return Subspace(len(diagonal), {i: {i: 1} for i, d in enumerate(diagonal) if d == shift})


def _null_space(
    m: Matrix, rows: Sequence[Iterable[tuple[int, int]]], n: int, shift: Fraction
) -> Subspace:
    """The null space in F^n of the integer rows of den * m (or of its
    transpose) less shift = a/b on the diagonal. Its rows are taken as b
    (den row_i) - a den e_i, a positive multiple of the shifted rows, which
    has the same null space.

    The rows are eliminated with the columns in reverse order, so a free
    column f gives the kernel vector e_f - sum_p (N_p[k] / N_p[p]) e_(last - p)
    over the reduced rows N_p that hit k = last - f; their pivots p < k put
    last - p past f. Times the lcm L of those N_p[p] it is in integers, L > 0
    at f first and 0 at every other free column: divided by its content, it
    is already its reduced echelon row."""
    if shift and not m.is_square:
        raise ValueError("shift of a non-square matrix")
    last = n - 1
    a, b = shift.numerator, shift.denominator
    ad = a * m.den
    reversed_rows = []
    for i, r in enumerate(rows):
        w = {last - j: b * v for j, v in r}
        if ad:
            k = last - i
            if x := w.get(k, 0) - ad:
                w[k] = x
            else:
                del w[k]
        reversed_rows.append(w)
    pivots = _echelon(n, reversed_rows).reduced()
    hits: dict[int, list] = {f: [] for f in range(n) if last - f not in pivots}
    for p, row in pivots.items():
        for k, x in row.items():
            if k != p:
                hits[last - k].append((p, x))
    vectors = {}
    for f, terms in hits.items():
        lcm = math.lcm(*[pivots[p][p] for p, _ in terms])
        v = {f: lcm, **{last - p: -(lcm // pivots[p][p]) * x for p, x in terms}}
        vectors[f] = _primitive_row(v, f)
    return Subspace(n, vectors)


def rank(m: Matrix) -> int:
    return _echelon(m.cols, (dict(row) for row in m.int_rows)).dim


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union; commutative, associative, idempotent. The larger
    space's echelon is extended by the smaller one's rows."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    *_, total = _running_sums(sorted((a, b), key=lambda s: -s.dim))
    return total


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the Zassenhaus stacked-block elimination: the
    rows [a | a] (already reduced) and [b | 0]; the remainders whose left
    half vanishes span the intersection in their right half."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    a, b = sorted((a, b), key=lambda s: -s.dim)
    acc = SpanAccumulator(2 * n)
    for r in a.pivot_rows.values():
        acc._add({**r, **{n + i: x for i, x in r.items()}})
    for row in sorted(b.pivot_rows.values(), key=len):
        acc._add(dict(row))
    tails = ({i - n: x for i, x in r.items()} for p, r in acc._pivots.items() if p >= n)
    return _echelon(n, tails).to_subspace()


def independent(spaces: Sequence[Subspace]) -> bool:
    """Whether the spaces form a direct sum: every row of every space, put
    into one echelon (sparsest first, with no read-out), raises its
    dimension. The order does not matter."""
    rows = [dict(row) for s in spaces for row in s.pivot_rows.values()]
    return _echelon(spaces[0].ambient_dim, rows).dim == len(rows)


@dataclass(frozen=True)
class Ladder:
    """Subspaces spaces[0..d] of one ambient space that operators move along
    one step at a time (weight spaces, eigenflags, split decompositions).

    Off its ends the ladder is the zero space. The partial sums head[i] =
    spaces[0] + ... + spaces[i] and tail[i] = spaces[i] + ... + spaces[d]
    are running sums, found once: each extends the previous sum's echelon.
    A caller that has already shown them equal to other sums hands
    those over as `known_head` or `known_tail`, which are then read as they
    are: they must be the running sums.

    The lemma: when the spaces are independent (a direct sum, which need
    not fill the ambient space), head[hi] n tail[lo] = spaces[lo] + ... +
    spaces[hi]. A vector of head[hi] n tail[lo] has one set of components,
    one in each space; read off head[hi] those past hi are zero, read off
    tail[lo] those before lo are, so it lies in that sum. The converse is
    plain.

    Containment plus dimension: when the spaces are independent and each
    spaces[k] lies in C_k, for a nested chain C_0 <= ... <= C_d, then head[i]
    lies in C_i, and equals it exactly when dim spaces[0] + ... + dim
    spaces[i] = dim C_i. A tail against a chain C_0 >= ... >= C_d works the
    same way. So a sum that is to equal a chain already built is decided by
    containments and counts, and the chain is then the sum. That is how a
    passing `extension.extend` builds only four running sums, the head and
    tail of the weight spaces, the head of the A-flag and the tail of the
    A*-flag, and reads every other ladder's sums off those.
    """

    spaces: tuple[Subspace, ...]
    known_head: tuple[Subspace, ...] | None = field(default=None, compare=False, repr=False)
    known_tail: tuple[Subspace, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "spaces", tuple(self.spaces))

    def __len__(self) -> int:
        return len(self.spaces)

    def __iter__(self):
        return iter(self.spaces)

    def at(self, i: int) -> Subspace:
        if 0 <= i < len(self.spaces):
            return self.spaces[i]
        return Subspace.zero(self.spaces[0].ambient_dim)

    def step(self, k: int) -> tuple[Subspace, ...]:
        """(at(k), at(1 + k), ..., at(d + k)): the targets of a k-step move."""
        return tuple(self.at(i + k) for i in range(len(self.spaces)))

    @cached_property
    def head(self) -> tuple[Subspace, ...]:
        if self.known_head is not None:
            return self.known_head
        return tuple(_running_sums(self.spaces))

    @cached_property
    def tail(self) -> tuple[Subspace, ...]:
        if self.known_tail is not None:
            return self.known_tail
        return tuple(_running_sums(reversed(self.spaces)))[::-1]


def _running_sums(spaces: Iterable[Subspace]) -> Iterator[Subspace]:
    """spaces[0], spaces[0] + spaces[1], ...: one echelon, started from the
    first space's reduced rows and extended by each later space's rows."""
    acc = None
    for space in spaces:
        if acc is None:
            acc = SpanAccumulator(space.ambient_dim, space)
            yield space
            continue
        for row in space.pivot_rows.values():
            acc._add(dict(row))
        yield acc.to_subspace()


def first_escape(
    mat: Matrix,
    shifts: Sequence[Fraction] | None,
    spaces: Iterable[Subspace],
    targets: Iterable[Subspace | tuple[Subspace, ...]],
) -> int | None:
    """The first index i at which (mat - shifts[i] I)(spaces[i]) is not inside
    targets[i], or not inside each of them when targets[i] is a tuple, or
    None when every image is. With shifts None the operator is mat itself.
    Every test reads mat's one integer view: the shift goes straight to
    `Subspace.contains_image` (`_image_inside` for a tuple, which forms
    each image once for all its targets), so no shifted matrix is built."""
    for i, (space, target) in enumerate(zip(spaces, targets)):
        shift = ZERO if shifts is None else shifts[i]
        if isinstance(target, Subspace):
            inside = target.contains_image(mat, space, shift)
        else:
            inside = _image_inside(target, mat, space, shift)
        if not inside:
            return i
    return None


# -- characteristic polynomial and rational roots ---------------------------


def char_poly(m: Matrix) -> list[Fraction]:
    """Monic characteristic polynomial det(xI - m), coefficients from the
    leading power down, via the Faddeev-LeVerrier recurrence."""
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [ONE] + [ZERO] * n
    work = Matrix.zero(n, n)
    for k in range(1, n + 1):
        work = m @ work.shift(-coeffs[k - 1])
        coeffs[k] = -work.trace() / k
    return coeffs


def eigenvalues(m: Matrix) -> list[Fraction]:
    """The rational eigenvalues of m with multiplicity, ascending: the sorted
    diagonal when every nonzero entry lies on one side of it (det(xI - m) =
    prod(x - m_ii)), else `rational_roots` of `char_poly`; the lists agree."""
    rows = m.sparse_rows
    upper = all(not row or row[0][0] >= i for i, row in enumerate(rows))
    lower = all(not row or row[-1][0] <= i for i, row in enumerate(rows))
    if m.is_square and (upper or lower):
        return sorted(dict(row).get(i, ZERO) for i, row in enumerate(rows))
    return rational_roots(char_poly(m))


def eval_poly(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Horner evaluation; coefficients ordered leading-first."""
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Synthetic division of a polynomial (leading-first) by (x - root)."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


# Integer polynomials below are lists of ints, leading coefficient first, and
# the empty list is the zero polynomial.


def _primitive(poly: list[int]) -> list[int]:
    """Divide out the (positive) gcd of the coefficients; signs are kept."""
    content = math.gcd(*poly)
    return [c // content for c in poly]


def _positive_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a divided by b."""
    scale, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    r = list(a)
    while len(r) >= len(b):
        t = sign * r[0]
        r = [scale * x - t * y for x, y in zip(r[1:], b[1:])] + [
            scale * x for x in r[len(b) :]
        ]
        while r and r[0] == 0:
            r.pop(0)
    return r


def _sturm_chain(poly: list[int]) -> list[list[int]]:
    """poly, its derivative and the negated remainders of Euclid's algorithm,
    each divided by its content. The last member is gcd(poly, poly') up to
    sign; for a square-free poly it is a nonzero constant."""
    degree = len(poly) - 1
    chain = [poly, _primitive([c * (degree - i) for i, c in enumerate(poly[:-1])])]
    while remainder := _positive_remainder(chain[-2], chain[-1]):
        chain.append(_primitive([-c for c in remainder]))
    return chain


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive factor b of a; by Gauss's lemma the quotient is
    an integer polynomial, so every step divides exactly."""
    r = list(a)
    quotient = []
    for i in range(len(a) - len(b) + 1):
        c = r[i] // b[0]
        quotient.append(c)
        for j in range(1, len(b)):
            r[i + j] -= c * b[j]
    return quotient


def _scaled_value(poly: list[int], num: int, den: int) -> int:
    """den^m * poly(num/den) for poly of degree m, by Horner over the ints:
    the sum of c_i * num^(m-i) * den^i."""
    acc, power = 0, 1
    for c in poly:
        acc = acc * num + c * power
        power *= den
    return acc


def _sign_variations(chain: list[list[int]], num: int, den: int) -> int:
    signs = [v > 0 for p in chain if (v := _scaled_value(p, num, den))]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _square_free_roots(g: list[int]) -> list[Fraction]:
    """The rational roots of a square-free primitive integer polynomial g with
    positive leading coefficient and nonzero constant term, ascending."""
    lead = g[0]
    chain = _sturm_chain(g)
    # By Cauchy's bound every root lies in (-top, top) for a power of two
    # top. An interval (lo, hi] / 2^e holds V(lo) - V(hi) distinct roots
    # (Sturm), where V counts the sign changes along the chain.
    bound = 1 + -(-max(abs(c) for c in g[1:]) // lead)
    top = 1 << (bound - 1).bit_length()
    v_low, v_top = (_sign_variations(chain, x, 1) for x in (-top, top))
    todo = [(-top, top, 0, v_low, v_top)]
    isolated = []
    while todo:
        lo, hi, e, v_lo, v_hi = todo.pop()
        if v_lo - v_hi == 1:
            isolated.append((lo, hi, e))
        elif v_lo - v_hi > 1:
            mid, e = lo + hi, e + 1
            v_mid = _sign_variations(chain, mid, 1 << e)
            todo.append((2 * lo, mid, e, v_lo, v_mid))
            todo.append((mid, 2 * hi, e, v_mid, v_hi))
    # A rational root s/t of g has t | lead, and two distinct fractions with
    # denominators <= lead are at least 1/lead^2 apart. So once an interval
    # is narrower than 1/(2 lead^2), the fraction closest to its midpoint
    # with denominator <= lead is its root if that root is rational.
    roots = []
    for lo, hi, e in isolated:
        value = _scaled_value(g, hi, 1 << e)
        if value == 0:
            roots.append(Fraction(hi, 1 << e))
            continue
        sign_hi = value > 0
        while (hi - lo) * 2 * lead * lead >= 1 << e:
            mid, e = lo + hi, e + 1
            value = _scaled_value(g, mid, 1 << e)
            if value == 0:
                roots.append(Fraction(mid, 1 << e))
                break
            lo, hi = (2 * lo, mid) if (value > 0) == sign_hi else (mid, 2 * hi)
        else:
            snap = Fraction(lo + hi, 1 << (e + 1)).limit_denominator(lead)
            if (
                Fraction(lo, 1 << e) < snap < Fraction(hi, 1 << e)
                and _scaled_value(g, snap.numerator, snap.denominator) == 0
            ):
                roots.append(snap)
    return sorted(roots)


def rational_roots(coeffs: Sequence[int | str | Fraction]) -> list[Fraction]:
    """All rational roots, with multiplicity, of the given polynomial
    (coefficients leading-first), in ascending order. Raises ValueError on
    the zero polynomial.

    Zero roots are split off first. The rest needs no factoring: the
    square-free part g = f / gcd(f, f') is made a primitive integer
    polynomial, whose rational roots `_square_free_roots` isolates by Sturm
    bisection at dyadic points and confirms by exact evaluation.
    Multiplicities come from exact deflation of the original polynomial."""
    poly = [as_scalar(c) for c in coeffs]
    while poly and poly[0] == 0:
        poly.pop(0)
    if not poly:
        raise ValueError("zero polynomial has no well-defined root set")
    roots: list[Fraction] = []
    while len(poly) > 1 and poly[-1] == 0:
        roots.append(ZERO)
        poly.pop()
    if len(poly) == 1:
        return sorted(roots)
    denom_lcm = math.lcm(*[c.denominator for c in poly])
    f = _primitive([int(c * denom_lcm) for c in poly])
    g = _exact_quotient(f, _sturm_chain(f)[-1])
    if g[0] < 0:
        g = [-c for c in g]
    for root in _square_free_roots(g):
        while len(poly) > 1 and eval_poly(poly, root) == 0:
            roots.append(root)
            poly = _deflate(poly, root)
    return sorted(roots)
