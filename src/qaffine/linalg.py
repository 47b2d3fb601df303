"""Exact linear algebra over the rationals.

Matrices are immutable, row-major tuples of Fractions. Matrix products,
matrix-vector products and the incremental span closure (`SpanAccumulator`)
are sparse: they touch only nonzero entries, since module generators and
their products are mostly zeros. A product is formed row by row
(Gustavson 1978): each row of the left factor, as its nonzero pairs, times
the nonzero rows of the right factor (`row_product`).
Subspaces are stored through a reduced column echelon basis, which makes
subspace equality a literal entry-wise comparison. Sums concatenate and
re-echelonize; the intersection uses the Zassenhaus stacked-block
elimination. The characteristic polynomial comes from the Faddeev-LeVerrier
recurrence (valid in characteristic zero). Rational roots need no factoring:
the real roots of the square-free part are isolated by Sturm-sequence
bisection at dyadic points in integer arithmetic, and each isolating
interval is shrunk until at most one fraction of small enough denominator
fits in it.

No floating point appears anywhere; every elimination step renormalizes
fractions, so all results are bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, as_scalar

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Matrix:
    """An immutable rows x cols matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int | str | Fraction]]) -> Matrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            entries.extend(as_scalar(v) for v in row)
        return Matrix(nrows, ncols, tuple(entries))

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> Matrix:
        entries = [ZERO] * (n * n)
        for i in range(n):
            entries[i * n + i] = ONE
        return Matrix(n, n, tuple(entries))

    @staticmethod
    def diagonal(values: Sequence[int | str | Fraction]) -> Matrix:
        n = len(values)
        entries = [ZERO] * (n * n)
        for i, v in enumerate(values):
            entries[i * n + i] = as_scalar(v)
        return Matrix(n, n, tuple(entries))

    @staticmethod
    def from_columns(ambient: int, columns: Sequence[Sequence[Fraction]]) -> Matrix:
        entries = []
        for i in range(ambient):
            for col in columns:
                entries.append(col[i])
        return Matrix(ambient, len(columns), tuple(entries))

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def columns(self) -> list[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.entries)

    @cached_property
    def sparse_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Per row, its nonzero (column, entry) pairs; found once."""
        return tuple(
            tuple([(j, v) for j, v in enumerate(self.row(i)) if v])
            for i in range(self.rows)
        )

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, v) for i, row in enumerate(self.sparse_rows) for j, v in row]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: Matrix) -> Matrix:
        self._same_shape(other)
        return Matrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> Matrix:
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c: int | str | Fraction) -> Matrix:
        c = as_scalar(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __rmul__(self, c: int | Fraction) -> Matrix:
        return self.scale(c)

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        m, right = other.cols, other.sparse_rows
        out = [ZERO] * (self.rows * m)
        for i, row in enumerate(self.sparse_rows):
            for j, v in row_product(row, right).items():
                out[i * m + j] = v
        return Matrix(self.rows, m, tuple(out))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product, skipping zero entries of the matrix and of v."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((a * v[j] for j, a in row if v[j]), ZERO) for row in self.sparse_rows
        )

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
        entries = list(self.entries)
        for k in range(0, len(entries), self.cols + 1):
            entries[k] -= c
        return Matrix(self.rows, self.cols, tuple(entries))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), ZERO)

    def inverse(self) -> Matrix:
        """Gauss-Jordan inverse, the right block of rref[M | I]; raises
        ValueError on singular input."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n, eye = self.rows, Matrix.identity(self.rows)
        work = _rref(self.hstack(eye).to_rows())
        if [row[:n] for row in work] != eye.to_rows():
            raise ValueError("matrix is singular")
        return Matrix.from_rows([row[n:] for row in work])

    def hstack(self, other: Matrix) -> Matrix:
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        rows = [list(self.row(i)) + list(other.row(i)) for i in range(self.rows)]
        return Matrix.from_rows(rows)

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
    row: Iterable[tuple[int, Fraction]],
    rows: Sequence[Iterable[tuple[int, Fraction]]],
) -> dict[int, Fraction]:
    """The row vector given by its nonzero (index, entry) pairs times the
    matrix given by its rows' nonzero (column, entry) pairs, as {column:
    entry}; entries that cancel to zero are dropped."""
    out: dict[int, Fraction] = {}
    for t, c in row:
        for j, b in rows[t]:
            v = c * b
            out[j] = out[j] + v if j in out else v
    return {j: v for j, v in out.items() if v}


def kronecker(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i,j) of the result is a[i,j] * b."""
    rows, cols = a.rows * b.rows, a.cols * b.cols
    entries = [ZERO] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            c = a.at(i1, j1)
            if c == 0:
                continue
            for i2 in range(b.rows):
                base = (i1 * b.rows + i2) * cols + j1 * b.cols
                for j2 in range(b.cols):
                    entries[base + j2] = c * b.at(i2, j2)
    return Matrix(rows, cols, tuple(entries))


# -- echelon forms and subspaces -------------------------------------------


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form; returns the nonzero rows, pivots increasing,
    pivot entries 1, zeros above and below each pivot."""
    rows = [list(r) for r in rows if any(v != 0 for v in r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out: list[list[Fraction]] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ONE / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return [r for r in rows[:rank]]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient_dim held as a reduced column echelon basis.

    The canonical form guarantees that two Subspace values are equal as sets
    of vectors exactly when their stored bases are entry-wise identical.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.rows != self.ambient_dim:
            raise ValueError("basis rows must match ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.cols

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix.zero(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @staticmethod
    def from_vectors(
        ambient_dim: int, vectors: Iterable[Sequence[Fraction]]
    ) -> Subspace:
        reduced = _rref([list(v) for v in vectors])
        return Subspace(ambient_dim, Matrix.from_columns(ambient_dim, reduced))

    @cached_property
    def _pivot_columns(self) -> tuple[tuple[tuple[int, ...], Vector], ...]:
        """Per basis vector, the rows of its nonzero entries (the pivot row
        first) and those entries; found once."""
        out = []
        for col in self.basis.columns():
            rows = tuple(i for i, v in enumerate(col) if v != 0)
            out.append((rows, tuple(col[i] for i in rows)))
        return tuple(out)

    def _reduce(self, w: Sequence[Fraction]) -> list[Fraction]:
        """A copy of w with each pivot's multiple of its column removed, in
        pivot order; only the column's nonzero entries are touched."""
        w = list(w)
        for rows, values in self._pivot_columns:
            c = w[rows[0]]
            if c != 0:
                for i, b in zip(rows, values):
                    w[i] -= c * b
        return w

    def reduce_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Remainder of v after removing its component in this subspace."""
        w = [as_scalar(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self._reduce(w)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.reduce_vector(v))

    def contains(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(not any(self._reduce(col)) for col in other.basis.columns())

    def contains_image(self, op: Matrix, space: Subspace) -> bool:
        """Whether op(space) lies in this subspace. Each column of
        op @ space.basis is reduced through the cached pivots, stopping at the
        first one with a nonzero remainder; the image is never echelonized."""
        if op.rows != self.ambient_dim or op.cols != space.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(not any(self._reduce(col)) for col in (op @ space.basis).columns())

    def is_zero(self) -> bool:
        return self.dim == 0


def column_echelon(m: Matrix) -> Subspace:
    """The column space of m as a canonical Subspace. Idempotent."""
    return Subspace.from_vectors(m.rows, m.columns())


def image(m: Matrix, space: Subspace) -> Subspace:
    """The image m(space), echelonized."""
    return column_echelon(m @ space.basis)


def kernel(m: Matrix) -> Subspace:
    """The null space {v : m v = 0} of an arbitrary rectangular matrix."""
    reduced = _rref(m.to_rows())
    pivots = []
    for row in reduced:
        pivots.append(next(i for i, v in enumerate(row) if v != 0))
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        vectors.append(v)
    return Subspace.from_vectors(m.cols, vectors)


def rank(m: Matrix) -> int:
    return len(_rref(m.to_rows()))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union; commutative, associative, idempotent."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.ambient_dim, a.basis.columns() + b.basis.columns())


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the Zassenhaus stacked-block elimination."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    block: list[list[Fraction]] = []
    for col in a.basis.columns():
        block.append(list(col) + list(col))
    for col in b.basis.columns():
        block.append(list(col) + [ZERO] * n)
    reduced = _rref(block)
    tails = [row[n:] for row in reduced if all(v == 0 for v in row[:n])]
    return Subspace.from_vectors(n, tails)


@dataclass(frozen=True)
class Ladder:
    """Subspaces spaces[0..d] of one ambient space that operators move along
    one step at a time (weight spaces, eigenflags, split decompositions).

    Off its ends the ladder is the zero space. The partial sums head[i] =
    spaces[0] + ... + spaces[i], tail[i] = spaces[i] + ... + spaces[d] and
    interval(lo, hi) = spaces[lo] + ... + spaces[hi] are computed once, on
    first use.
    """

    spaces: tuple[Subspace, ...]

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

    def near(self, i: int) -> Subspace:
        """at(i - 1) + at(i) + at(i + 1)."""
        return self.interval(i - 1, i + 1)

    def interval(self, lo: int, hi: int) -> Subspace:
        """spaces[lo] + ... + spaces[hi], clamped to the ladder's ends; zero
        when the clamped range is empty. A range that reaches an end is a
        head or a tail; any other is computed once, from the range one
        shorter."""
        last = len(self.spaces) - 1
        lo, hi = max(lo, 0), min(hi, last)
        if lo > hi:
            return Subspace.zero(self.spaces[0].ambient_dim)
        if lo == 0:
            return self.head[hi]
        if hi == last:
            return self.tail[lo]
        if (lo, hi) not in self._intervals:
            self._intervals[(lo, hi)] = (
                self.spaces[lo]
                if lo == hi
                else subspace_sum(self.interval(lo, hi - 1), self.spaces[hi])
            )
        return self._intervals[(lo, hi)]

    @cached_property
    def _intervals(self) -> dict[tuple[int, int], Subspace]:
        return {}

    @cached_property
    def head(self) -> tuple[Subspace, ...]:
        return tuple(accumulate(self.spaces, subspace_sum))

    @cached_property
    def tail(self) -> tuple[Subspace, ...]:
        return tuple(accumulate(reversed(self.spaces), subspace_sum))[::-1]


def first_escape(
    mat: Matrix,
    shifts: Sequence[Fraction] | None,
    spaces: Iterable[Subspace],
    targets: Iterable[Subspace],
) -> int | None:
    """The first index i at which (mat - shifts[i] I)(spaces[i]) is not inside
    targets[i], or None when every image is. With shifts None the operator is
    mat itself. Each distinct shift builds its operator once."""
    shifted: dict[Fraction, Matrix] = {}
    for i, (space, target) in enumerate(zip(spaces, targets)):
        op = mat
        if shifts is not None:
            op = shifted.get(shifts[i])
            if op is None:
                op = shifted[shifts[i]] = mat.shift(shifts[i])
        if not target.contains_image(op, space):
            return i
    return None


class SpanAccumulator:
    """Incremental span builder: insert vectors one at a time and track the
    dimension, without recomputing a full echelon form at each step.

    Each pivot vector is kept as a dict of its nonzero entries, 1 at the
    pivot; a vector is reduced as such a dict through the pivots in
    increasing order, each touching only its own support."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def insert(self, v: Sequence[Fraction]) -> bool:
        """Add v to the span; returns True when the dimension grew. The new
        pivot is the first nonzero entry of v's remainder."""
        w = {i: x for i, x in enumerate(v) if x != 0}
        for p in sorted(self._pivots):
            c = w.get(p)
            if c:
                for i, b in self._pivots[p].items():
                    w[i] = w.get(i, ZERO) - c * b
        support = [i for i, x in w.items() if x]
        if not support:
            return False
        p = min(support)
        inv = ONE / w[p]
        self._pivots[p] = {i: w[i] * inv for i in support}
        return True

    def to_subspace(self) -> Subspace:
        n = self.ambient_dim
        return Subspace.from_vectors(
            n, [[row.get(i, ZERO) for i in range(n)] for row in self._pivots.values()]
        )


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


def eval_poly(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Horner evaluation; coefficients ordered leading-first."""
    acc = ZERO
    for c in coeffs:
        acc = acc * x + c
    return acc


def eval_poly_matrix(coeffs: Sequence[Fraction], m: Matrix) -> Matrix:
    acc = Matrix.zero(m.rows, m.cols)
    for c in coeffs:
        acc = (acc @ m).shift(-c)
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
    polynomial with leading coefficient lead, its real roots are isolated by
    Sturm-sequence bisection of the Cauchy interval at dyadic points (signs
    from integer-only Horner evaluation), and each one-root interval is
    halved by the sign of g until it is narrower than 1/(2 lead^2). A
    rational root s/t of g has t | lead, and distinct fractions with
    denominators <= lead lie at least 1/lead^2 apart, so the fraction with
    denominator <= lead closest to the midpoint is the root if the root is
    rational; it is kept only if g vanishes there exactly. Multiplicities
    come from exact deflation of the original polynomial."""
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
    denom_lcm = 1
    for c in poly:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    f = _primitive([int(c * denom_lcm) for c in poly])
    g = _exact_quotient(f, _sturm_chain(f)[-1])
    if g[0] < 0:
        g = [-c for c in g]
    for root in _square_free_roots(g):
        while len(poly) > 1 and eval_poly(poly, root) == 0:
            roots.append(root)
            poly = _deflate(poly, root)
    return sorted(roots)
