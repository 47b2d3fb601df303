"""Dense exact linear algebra over the rationals.

Matrices are immutable, row-major tuples of Fractions. Subspaces are stored
through a reduced column echelon basis, which makes subspace equality a
literal entry-wise comparison. Sums concatenate and re-echelonize; the
intersection uses the Zassenhaus stacked-block elimination. The
characteristic polynomial comes from the Faddeev-LeVerrier recurrence (valid
in characteristic zero) and rational roots are extracted from divisor
candidates of the cleared-denominator constant and leading coefficients.

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

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for i in range(self.rows):
            for j in range(self.cols):
                v = self.at(i, j)
                if v != 0:
                    out.append((i, j, v))
        return out

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
        n, m, k = self.rows, other.cols, self.cols
        a, b = self.entries, other.entries
        out = [ZERO] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            for t in range(k):
                c = arow[t]
                if c == 0:
                    continue
                brow = b[t * m : (t + 1) * m]
                base = i * m
                for j in range(m):
                    if brow[j] != 0:
                        out[base + j] += c * brow[j]
        return Matrix(n, m, tuple(out))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum((self.at(i, j) * v[j] for j in range(self.cols)), ZERO)
            for i in range(self.rows)
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
        inv = 1 / rows[rank][col]
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
    def _pivot_columns(self) -> tuple[tuple[int, Vector], ...]:
        """(pivot row, basis column) per basis vector, found once."""
        out = []
        for col in self.basis.columns():
            out.append((next(i for i, v in enumerate(col) if v != 0), col))
        return tuple(out)

    def _reduce(self, w: Sequence[Fraction]) -> Sequence[Fraction]:
        for p, col in self._pivot_columns:
            if w[p] != 0:
                c = w[p]
                w = [a - c * b for a, b in zip(w, col)]
        return w

    def reduce_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        """Remainder of v after removing its component in this subspace."""
        w = [as_scalar(x) for x in v]
        if len(w) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return list(self._reduce(w))

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return all(x == 0 for x in self.reduce_vector(v))

    def contains(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(not any(self._reduce(col)) for col in other.basis.columns())

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
    spaces[0] + ... + spaces[i] and tail[i] = spaces[i] + ... + spaces[d] are
    computed once, on first use.
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
        return subspace_sum(subspace_sum(self.at(i - 1), self.at(i)), self.at(i + 1))

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
        if not target.contains(image(op, space)):
            return i
    return None


class SpanAccumulator:
    """Incremental span builder: insert vectors one at a time and track the
    dimension, without recomputing a full echelon form at each step."""

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._pivots: dict[int, list[Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def reduce(self, v: Sequence[Fraction]) -> list[Fraction]:
        w = list(v)
        for p in sorted(self._pivots):
            if w[p] != 0:
                c = w[p]
                w = [a - c * b for a, b in zip(w, self._pivots[p])]
        return w

    def insert(self, v: Sequence[Fraction]) -> bool:
        """Add v to the span; returns True when the dimension grew."""
        w = self.reduce(v)
        p = next((i for i, x in enumerate(w) if x != 0), None)
        if p is None:
            return False
        inv = 1 / w[p]
        self._pivots[p] = [x * inv for x in w]
        return True

    def to_subspace(self) -> Subspace:
        return Subspace.from_vectors(self.ambient_dim, list(self._pivots.values()))


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


def _divisors(n: int) -> list[int]:
    """All positive divisors of n > 0, by trial-division factorization."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime**e for d in divs for e in range(mult + 1)]
    return sorted(divs)


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Synthetic division of a polynomial (leading-first) by (x - root)."""
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * root)
    return out


def rational_roots(coeffs: Sequence[int | str | Fraction]) -> list[Fraction]:
    """All rational roots, with multiplicity, of the given polynomial
    (coefficients leading-first). Raises ValueError on the zero polynomial."""
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
    ints = [int(c * denom_lcm) for c in poly]
    lead, const = abs(ints[0]), abs(ints[-1])
    candidates = sorted(
        {
            Fraction(sign * p, s)
            for p in _divisors(const)
            for s in _divisors(lead)
            for sign in (1, -1)
        }
    )
    for cand in candidates:
        while len(poly) > 1 and eval_poly(poly, cand) == 0:
            roots.append(cand)
            poly = _deflate(poly, cand)
    return sorted(roots)
