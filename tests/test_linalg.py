import random
from fractions import Fraction as F

import pytest

from qaffine.linalg import (
    Ladder,
    Matrix,
    Subspace,
    char_poly,
    column_echelon,
    eval_poly_matrix,
    first_escape,
    kernel,
    kronecker,
    rank,
    rational_roots,
    subspace_intersect,
    subspace_sum,
)


def span(ambient, *vectors):
    return Subspace.from_vectors(ambient, [[F(x) for x in v] for v in vectors])


# -- echelon -----------------------------------------------------------------


def test_echelon_identity():
    s = column_echelon(Matrix.identity(2))
    assert s.dim == 2
    assert s.basis == Matrix.identity(2)


def test_echelon_dependent_columns():
    m = Matrix.from_rows([[1, 2], [1, 2]])
    s = column_echelon(m)
    assert s.dim == 1
    assert s.basis.column(0) == (F(1), F(1))


def test_echelon_rank_two():
    # columns (1,0,1), (0,1,1), (1,1,2): the third is the sum of the first two
    m = Matrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert column_echelon(m).dim == 2


def test_echelon_idempotent():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1], [2, 5, 7]])
    s = column_echelon(m)
    assert column_echelon(s.basis) == s


def test_echelon_zero_matrix():
    assert column_echelon(Matrix.zero(3, 2)).is_zero()


def test_subspace_canonical_equality():
    a = span(3, (1, 1, 0), (0, 0, 1))
    b = span(3, (1, 1, 1), (2, 2, 1))
    assert a == b
    assert a.basis.entries == b.basis.entries


# -- kernel ------------------------------------------------------------------


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)).is_zero()


def test_kernel_zero_matrix_is_full():
    assert kernel(Matrix.zero(3, 3)) == Subspace.full(3)


def test_kernel_rank_one():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert k.basis.column(0) == (F(1), F(-1))


def test_kernel_rank_duality_fixed_cases():
    cases = [
        Matrix.from_rows([[1, 2, 3], [2, 4, 6]]),
        Matrix.from_rows([[1, 0], [0, 1], [1, 1]]),
        Matrix.zero(2, 4),
    ]
    for m in cases:
        assert kernel(m).dim + rank(m) == m.cols


# -- sums and intersections ---------------------------------------------------


def test_sum_with_zero_is_identity():
    a = span(3, (1, 2, 3))
    assert subspace_sum(a, Subspace.zero(3)) == a


def test_sum_of_axes_is_full_plane():
    assert subspace_sum(span(2, (1, 0)), span(2, (0, 1))) == Subspace.full(2)


def test_sum_rank_two():
    assert subspace_sum(span(3, (1, 1, 0)), span(3, (0, 1, 1))).dim == 2


def test_sum_properties():
    a = span(3, (1, 1, 0))
    b = span(3, (0, 1, 1))
    c = span(3, (1, 0, 0), (0, 0, 1))
    assert subspace_sum(a, b) == subspace_sum(b, a)
    assert subspace_sum(subspace_sum(a, b), c) == subspace_sum(a, subspace_sum(b, c))
    assert subspace_sum(a, a) == a


def test_intersect_idempotent():
    a = span(3, (1, 1, 0), (0, 0, 1))
    assert subspace_intersect(a, a) == a


def test_intersect_of_axes_is_zero():
    assert subspace_intersect(span(2, (1, 0)), span(2, (0, 1))).is_zero()


def test_intersect_plane_with_line():
    plane = span(3, (1, 0, 0), (0, 1, 0))
    line = span(3, (1, 1, 0))
    assert subspace_intersect(plane, line) == line


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(span(2, (1, 0)), span(3, (1, 0, 0)))
    with pytest.raises(ValueError):
        subspace_intersect(span(2, (1, 0)), span(3, (1, 0, 0)))


def test_contains_vector():
    a = span(3, (1, 0, 1), (0, 1, 1))
    assert a.contains_vector([F(1), F(1), F(2)])
    assert not a.contains_vector([F(1), F(1), F(0)])


# -- characteristic polynomial -------------------------------------------------


def test_char_poly_identity():
    assert char_poly(Matrix.identity(2)) == [F(1), F(-2), F(1)]


def test_char_poly_diagonal():
    # trace 5/2, determinant 1
    assert char_poly(Matrix.diagonal([2, F(1, 2)])) == [F(1), F(-5, 2), F(1)]


def test_char_poly_one_by_one():
    c = F(7, 3)
    assert char_poly(Matrix.from_rows([[c]])) == [F(1), -c]


def test_char_poly_non_square_raises():
    with pytest.raises(ValueError):
        char_poly(Matrix.zero(2, 3))


def test_cayley_hamilton_seeded_dim_8():
    rng = random.Random(29)
    m = Matrix.from_rows(
        [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
         for _ in range(8)]
    )
    assert eval_poly_matrix(char_poly(m), m).is_zero()


# -- rational roots -------------------------------------------------------------


def test_rational_roots_linear():
    assert rational_roots([1, -3]) == [F(3)]


def test_rational_roots_quadratic():
    assert rational_roots([1, F(-5, 2), 1]) == [F(1, 2), F(2)]


def test_rational_roots_no_rational():
    assert rational_roots([1, 0, 1]) == []


def test_rational_roots_multiplicity():
    # (x - 1)^2 (x + 2)
    assert rational_roots([1, 0, -3, 2]) == [F(-2), F(1), F(1)]


def test_rational_roots_zero_roots():
    # x^2 (x - 2)
    assert rational_roots([1, -2, 0, 0]) == [F(0), F(0), F(2)]


def test_rational_roots_zero_polynomial_raises():
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_big_ladder():
    # eigenvalue ladder of a typical K action at q = 2, alpha = 5
    values = [F(5) * F(2) ** k for k in (-3, -1, 1, 3)]
    coeffs = [F(1)]
    for v in values:
        coeffs = [a - v * b for a, b in zip(coeffs + [F(0)], [F(0)] + coeffs)]
    assert rational_roots(coeffs) == sorted(values)


# -- matrix utilities -----------------------------------------------------------


def test_inverse_round_trip():
    m = Matrix.from_rows([[2, 1], [0, F(1, 2)]])
    assert m.inverse() @ m == Matrix.identity(2)
    assert m @ m.inverse() == Matrix.identity(2)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_inverse_rank_deficient_raises():
    # rank 2: the third row is the sum of the first two
    m = Matrix.from_rows([[1, 0, 2], [0, 1, F(1, 3)], [1, 1, F(7, 3)]])
    with pytest.raises(ValueError, match="matrix is singular"):
        m.inverse()


def test_inverse_zero_matrix_raises():
    with pytest.raises(ValueError, match="matrix is singular"):
        Matrix.zero(3, 3).inverse()


def test_inverse_needs_row_swaps():
    m = Matrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    expected = Matrix.from_rows([[0, 0, F(1, 3)], [0, F(1, 2), 0], [1, 0, 0]])
    assert m.inverse() == expected


def test_power():
    n = Matrix.from_rows([[0, 1], [0, 0]])
    assert n.power(0) == Matrix.identity(2)
    assert n.power(1) == n
    assert n.power(2).is_zero()


def test_kronecker_mixed_product():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    c = Matrix.from_rows([[1, 1], [0, 2]])
    d = Matrix.from_rows([[3, 0], [1, 1]])
    assert kronecker(a, b) @ kronecker(c, d) == kronecker(a @ c, b @ d)


def test_from_rows_ragged_raises():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])


def test_shift_subtracts_on_the_diagonal():
    rng = random.Random(3)
    m = Matrix.from_rows(
        [[F(rng.randint(-9, 9), 7) for _ in range(4)] for _ in range(4)]
    )
    assert m.shift(F(5, 3)) == m - F(5, 3) * Matrix.identity(4)
    assert m.shift(0) == m
    with pytest.raises(ValueError):
        Matrix.zero(2, 3).shift(1)


# -- ladders and containment ---------------------------------------------------


def running_sums(spaces):
    out, running = [], Subspace.zero(spaces[0].ambient_dim)
    for s in spaces:
        running = subspace_sum(running, s)
        out.append(running)
    return out


def test_ladder_at_head_tail_near():
    spaces = [span(3, (1, 0, 0)), span(3, (1, 1, 0)), span(3, (0, 0, 1)),
              span(3, (1, 0, 0))]
    ladder = Ladder(spaces)
    zero = Subspace.zero(3)
    assert len(ladder) == 4 and list(ladder) == spaces
    assert ladder.at(-1) == zero and ladder.at(4) == zero
    assert [ladder.at(i) for i in range(4)] == spaces
    assert ladder.step(1) == (spaces[1], spaces[2], spaces[3], zero)
    assert ladder.step(-1) == (zero, spaces[0], spaces[1], spaces[2])
    assert list(ladder.head) == running_sums(spaces)
    assert list(ladder.tail) == running_sums(spaces[::-1])[::-1]
    assert [s.dim for s in ladder.head] == [1, 2, 3, 3]
    assert [s.dim for s in ladder.tail] == [3, 3, 2, 1]
    assert ladder.near(0) == subspace_sum(spaces[0], spaces[1])
    assert ladder.near(1) == running_sums(spaces[:3])[-1]
    assert ladder.near(3) == subspace_sum(spaces[2], spaces[3])
    assert Ladder([spaces[0]]).near(0) == spaces[0]


def test_first_escape():
    # K = diag(1, 2, 4) on the coordinate axes; R raises along them
    axes = Ladder([span(3, (1, 0, 0)), span(3, (0, 1, 0)), span(3, (0, 0, 1))])
    K = Matrix.diagonal([1, 2, 4])
    R = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    zeros = [Subspace.zero(3)] * 3
    assert first_escape(K, [F(1), F(2), F(4)], axes, zeros) is None
    assert first_escape(K, [F(1), F(4), F(4)], axes, zeros) == 1
    assert first_escape(R, None, axes, axes.step(1)) is None
    assert first_escape(R, None, axes, axes.step(-1)) == 0
    assert first_escape(K, None, axes, axes) is None
