import random
from fractions import Fraction as F

import pytest
from conftest import (
    _count_calls, column_space, full_space, matrix_apply, matrix_column, span,
)

from qaffine import linalg
from qaffine.linalg import (
    Ladder,
    Matrix,
    SpanAccumulator,
    Subspace,
    char_poly,
    eigenvalues,
    first_escape,
    kernel,
    kronecker,
    left_kernel,
    rank,
    rational_roots,
    subspace_intersect,
    subspace_sum,
)


def eval_poly_matrix(coeffs, m):
    """Horner evaluation of a polynomial (leading coefficient first) at m."""
    acc = Matrix.zero(m.rows, m.cols)
    for c in coeffs:
        acc = (acc @ m).shift(-c)
    return acc


# -- echelon -----------------------------------------------------------------


def test_echelon_identity():
    s = column_space(Matrix.identity(2))
    assert s.dim == 2
    assert s.basis == Matrix.identity(2)


def test_echelon_dependent_columns():
    m = Matrix.from_rows([[1, 2], [1, 2]])
    s = column_space(m)
    assert s.dim == 1
    assert matrix_column(s.basis, 0) == (F(1), F(1))


def test_echelon_rank_two():
    # columns (1,0,1), (0,1,1), (1,1,2): the third is the sum of the first two
    m = Matrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert column_space(m).dim == 2


def test_echelon_idempotent():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 1], [2, 5, 7]])
    s = column_space(m)
    assert column_space(s.basis) == s


def test_echelon_zero_matrix():
    assert column_space(Matrix.zero(3, 2)).dim == 0


def test_subspace_canonical_equality():
    a = span(3, [(1, 1, 0), (0, 0, 1)])
    b = span(3, [(1, 1, 1), (2, 2, 1)])
    assert a == b
    assert a.basis.entries == b.basis.entries


def test_integer_input_gives_fractions():
    # plain ints must not turn into floats when a pivot row is normalized
    results = [
        span(2, [[2, 1]]).basis,
        kernel(Matrix.from_entries(2, 2, (2, 1, 4, 2))).basis,
        column_space(Matrix.from_entries(2, 2, (3, 6, 1, 2))).basis,
    ]
    assert [m.entries for m in results] == [(1, F(1, 2)), (1, -2), (1, F(1, 3))]
    for m in results:
        assert all(type(v) is F for v in m.entries), m.entries


# -- kernel ------------------------------------------------------------------


def test_kernel_identity_is_zero():
    assert kernel(Matrix.identity(3)).dim == 0


def test_kernel_zero_matrix_is_full():
    assert kernel(Matrix.zero(3, 3)) == full_space(3)


def test_kernel_rank_one():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert matrix_column(k.basis, 0) == (F(1), F(-1))


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
    a = span(3, [(1, 2, 3)])
    assert subspace_sum(a, Subspace.zero(3)) == a


def test_sum_of_axes_is_full_plane():
    assert subspace_sum(span(2, [(1, 0)]), span(2, [(0, 1)])) == full_space(2)


def test_sum_rank_two():
    assert subspace_sum(span(3, [(1, 1, 0)]), span(3, [(0, 1, 1)])).dim == 2


def test_sum_properties():
    a = span(3, [(1, 1, 0)])
    b = span(3, [(0, 1, 1)])
    c = span(3, [(1, 0, 0), (0, 0, 1)])
    assert subspace_sum(a, b) == subspace_sum(b, a)
    assert subspace_sum(subspace_sum(a, b), c) == subspace_sum(a, subspace_sum(b, c))
    assert subspace_sum(a, a) == a


def test_intersect_idempotent():
    a = span(3, [(1, 1, 0), (0, 0, 1)])
    assert subspace_intersect(a, a) == a


def test_intersect_of_axes_is_zero():
    assert subspace_intersect(span(2, [(1, 0)]), span(2, [(0, 1)])).dim == 0


def test_intersect_plane_with_line():
    plane = span(3, [(1, 0, 0), (0, 1, 0)])
    line = span(3, [(1, 1, 0)])
    assert subspace_intersect(plane, line) == line


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(span(2, [(1, 0)]), span(3, [(1, 0, 0)]))
    with pytest.raises(ValueError):
        subspace_intersect(span(2, [(1, 0)]), span(3, [(1, 0, 0)]))


def test_contains_vector():
    a = span(3, [(1, 0, 1), (0, 1, 1)])
    assert a.contains(span(3, [(1, 1, 2)]))
    assert not a.contains(span(3, [(1, 1, 0)]))


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


def test_eigenvalues_of_triangular_matrices_are_the_diagonal():
    cases = [
        Matrix.diagonal([F(5, 2), 0, F(-1, 3), 0]),
        Matrix.from_rows([[2, 7, 0], [0, F(1, 2), -1], [0, 0, 2]]),
        Matrix.from_rows([[0, 0, 0], [3, 0, 0], [F(2, 9), 1, 0]]),
        Matrix.zero(3, 3),
        Matrix.zero(0, 0),
    ]
    for m in cases:
        diagonal = sorted(m.at(i, i) for i in range(m.rows))
        assert eigenvalues(m) == rational_roots(char_poly(m)) == diagonal


def test_eigenvalues_of_other_matrices_come_from_the_roots():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert eigenvalues(swap) == [F(-1), F(1)]
    assert eigenvalues(Matrix.from_rows([[0, -1], [1, 0]])) == []
    rect = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        eigenvalues(rect)


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


def poly_from_roots(roots, lead=1):
    coeffs = [F(lead)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [F(0)], [F(0)] + coeffs)]
    return coeffs


@pytest.mark.parametrize(
    "roots",
    [
        [F(0), F(1, 2), F(-1, 4)],
        [F(1, 2), F(-1, 4)],
        [F(1, 2), F(1, 2), F(-1, 4), F(3, 8)],
        [F(1024)],
        [F(-1024), F(1, 2)],
    ],
)
def test_rational_roots_on_bisection_points(roots):
    # dyadic roots are hit exactly by the bisection of the Cauchy interval
    assert rational_roots(poly_from_roots(roots)) == sorted(roots)


@pytest.mark.parametrize("lead", [1, -7, 1001000])
def test_rational_roots_close_roots(lead):
    roots = [F(1, 1000), F(1, 1001)]
    assert rational_roots(poly_from_roots(roots, lead)) == sorted(roots)
    # x^2 - 2 adds irrational roots that sit between neither
    noisy = poly_from_roots(roots, lead)
    noisy = [a - 2 * b for a, b in zip(noisy + [F(0), F(0)], [F(0), F(0)] + noisy)]
    assert rational_roots(noisy) == sorted(roots)


@pytest.mark.parametrize("n", [2**10 - 1, 2**10, 2**40 + 1])
def test_rational_roots_near_cauchy_bound(n):
    # (x - n)(x - 1) = x^2 - (n + 1) x + n has Cauchy bound n + 2
    assert rational_roots([1, -(n + 1), n]) == [F(1), F(n)]
    assert rational_roots([1, n + 1, n]) == [F(-n), F(-1)]
    # a lone root at the bound's edge, with a non-unit leading coefficient
    assert rational_roots([3, -3 * n]) == [F(n)]
    assert rational_roots([n, -1]) == [F(1, n)]


def test_rational_roots_prime_root_time_bound(run_snippet):
    # trial division of 2^61 - 1 never finishes; Sturm isolation needs no
    # factoring of the constant or leading coefficient
    result = run_snippet(
        """
        import json, time
        from fractions import Fraction as F
        from qaffine.linalg import rational_roots

        def times(a, b):
            out = [F(0)] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            return out

        p = [1, -F(2**61 - 1, 3)]
        for factor in ([1, 0, -2], [1, F(5, 7)], [1, F(5, 7)]):
            p = times(p, factor)
        start = time.perf_counter()
        roots = rational_roots(p)
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, [str(r) for r in roots]]))
        """
    )
    seconds, roots = result
    assert roots == ["-5/7", "-5/7", f"{2**61 - 1}/3"]
    assert seconds < 1.0


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


def _images_under(m, xs):
    """The pairs (x, m x) for the dense vectors xs, as sparse rows."""
    def sparse(v):
        return {i: F(x) for i, x in enumerate(v) if x}

    return [(sparse(x), sparse(matrix_apply(m, [F(v) for v in x]))) for x in xs]


def test_from_graph_on_a_non_standard_basis():
    m = Matrix.from_rows([[1, 2, 0], [F(1, 3), 0, -1], [0, 5, F(7, 2)]])
    basis = [(1, 1, 0), (0, 1, 1), (1, 0, 1)]
    assert Matrix.from_graph(3, _images_under(m, basis)) == m
    # a redundant but consistent pair changes nothing
    redundant = _images_under(m, basis + [(2, 1, 1)])
    assert Matrix.from_graph(3, reversed(redundant)) == m
    # eigenvalue 2 on span{(1, 1)}, 3 on span{(1, -1)}
    eigen = [({0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}),
             ({0: F(1), 1: F(-1)}, {0: F(3), 1: F(-3)})]
    expected = Matrix.from_rows([[F(5, 2), F(-1, 2)], [F(-1, 2), F(5, 2)]])
    assert Matrix.from_graph(2, eigen) == expected


def test_from_graph_non_spanning_raises():
    pairs = [({0: F(1), 1: F(1)}, {0: F(2)}), ({0: F(2), 1: F(2)}, {0: F(4)})]
    with pytest.raises(ValueError, match="matrix is singular"):
        Matrix.from_graph(2, pairs)
    with pytest.raises(ValueError, match="matrix is singular"):
        Matrix.from_graph(3, [])


def test_from_graph_inconsistent_pairs_raise():
    x = {0: F(1), 2: F(1)}
    same_x = [(x, {1: F(1)}), (x, {1: F(2)}), ({1: F(1)}, {}), ({2: F(1)}, {})]
    with pytest.raises(ValueError, match="matrix is singular"):
        Matrix.from_graph(3, same_x)
    # x3 = x1 + x2, but y3 is not y1 + y2
    m = Matrix.identity(2)
    pairs = _images_under(m, [(1, 0), (0, 1)]) + [({0: F(1), 1: F(1)}, {0: F(1)})]
    with pytest.raises(ValueError, match="matrix is singular"):
        Matrix.from_graph(2, pairs)


def test_apply_matches_product_with_column():
    rng = random.Random(5)
    rect = Matrix.from_rows(
        [[F(rng.choice([0, 0, rng.randint(-9, 9)]), 7) for _ in range(5)]
         for _ in range(3)]
    )
    for mat in (rect, Matrix.zero(3, 5), Matrix.zero(2, 2), Matrix.identity(4)):
        n = mat.cols
        vectors = [[F(0)] * n, [F(rng.randint(-5, 5), 3) for _ in range(n)]]
        vectors.append([F(0)] * (n - 1) + [F(2)])
        for v in vectors:
            expected = matrix_column(mat @ Matrix.from_entries(n, 1, v), 0)
            assert matrix_apply(mat, v) == expected
            assert all(type(x) is F for x in matrix_apply(mat, v))


def test_span_accumulator_stays_exact_on_integer_entries():
    acc = SpanAccumulator(2)
    assert acc.insert({0: 2, 1: 1})
    assert acc.to_subspace().basis.entries == (F(1), F(1, 2))
    assert all(type(x) is F for x in acc.to_subspace().basis.entries)


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


def test_sparse_arithmetic_time_bound(run_snippet):
    # 360,000 entries, 600 of them nonzero: built densely, these sums,
    # scalings and shifts took about 4 s
    seconds, trace, zero = run_snippet(
        """
        import json, time
        from qaffine.linalg import Matrix

        start = time.perf_counter()
        eye = Matrix.identity(600)
        m = eye.shift(2).scale(3) + eye - eye.scale(2)
        result = [str(m.trace()), m.is_zero()]
        print(json.dumps([time.perf_counter() - start, *result]))
        """
    )
    assert (trace, zero) == ("-2400", False)
    assert seconds < 0.5, f"n = 600 sparse arithmetic took {seconds:.2f} s"


# -- ladders and containment ---------------------------------------------------


def running_sums(spaces):
    out, running = [], Subspace.zero(spaces[0].ambient_dim)
    for s in spaces:
        running = subspace_sum(running, s)
        out.append(running)
    return out


def test_ladder_at_head_tail():
    spaces = [span(3, [(1, 0, 0)]), span(3, [(1, 1, 0)]), span(3, [(0, 0, 1)]),
              span(3, [(1, 0, 0)])]
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


def test_ladder_reads_known_sums(monkeypatch):
    # sums handed over as known_head / known_tail are read as they are: no
    # running sum is built for them, and the ladder compares equal to one
    # that built its own
    spaces = [span(3, [(1, 0, 0)]), span(3, [(0, 1, 0)]), span(3, [(0, 0, 1)])]
    head, tail = Ladder(spaces).head, Ladder(spaces).tail
    built = []
    monkeypatch.setattr(linalg, "_running_sums", lambda s: built.append(s) or iter(()))
    ladder = Ladder(spaces, known_head=head, known_tail=tail)
    assert ladder.head is head and ladder.tail is tail and not built
    assert ladder == Ladder(spaces)


def test_independent():
    e0, e1, e2 = span(3, [(1, 0, 0)]), span(3, [(0, 1, 0)]), span(3, [(0, 0, 1)])
    skew = span(3, [(1, 1, 0)])
    assert linalg.independent([e0, e1, e2]) and linalg.independent([skew, e1])
    assert not linalg.independent([skew, e0, e1])
    assert not linalg.independent([span(3, [(1, 0, 0), (0, 1, 0)]), skew])


def test_contains_image():
    plane = span(3, [(1, 0, 0), (0, 1, 0)])
    R = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert plane.contains_image(R, span(3, [(1, 0, 0)]))
    assert not plane.contains_image(R, span(3, [(1, 0, 0), (0, 1, 0)]))
    assert plane.contains_image(R, Subspace.zero(3))
    assert Subspace.zero(3).contains_image(R, span(3, [(0, 0, 1)]))
    assert not Subspace.zero(3).contains_image(R, span(3, [(0, 1, 0)]))
    # op maps F^2 into F^3
    inject = Matrix.from_rows([[1, 0], [0, 0], [0, 1]])
    assert not plane.contains_image(inject, full_space(2))
    assert span(3, [(1, 0, 0), (0, 0, 1)]).contains_image(inject, full_space(2))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        plane.contains_image(R, full_space(2))
    # shifted: (R - c I) keeps e_0 only in spaces that hold c e_0 + e_1
    line = span(3, [(1, 0, 0)])
    assert plane.contains_image(R, line, F(-7, 3))
    assert span(3, [(F(-7, 3), 1, 0)]).contains_image(R, line, F(7, 3))
    assert not span(3, [(0, 1, 0)]).contains_image(R, line, F(7, 3))
    assert Subspace.zero(3).contains_image(Matrix.diagonal([5, 2, 2]), line, 5)
    with pytest.raises(ValueError, match="shift of a non-square matrix"):
        plane.contains_image(inject, full_space(2), F(1, 2))


def t16(q):
    from qaffine.factory import EvalParams, evaluation_module, tensor_product

    return tensor_product(*(evaluation_module(EvalParams(3, 1, a), q) for a in (1, 11)))


def test_diagonal_entries():
    assert Matrix.diagonal([2, 0, F(-1, 3)]).diagonal_entries == (2, 0, F(-1, 3))
    assert Matrix.zero(2, 2).diagonal_entries == (0, 0)
    assert Matrix.zero(2, 3).diagonal_entries is None
    assert Matrix.from_rows([[1, 0], [1, 1]]).diagonal_entries is None


def test_roundtrip_eliminates_no_diagonal_kernel(tmp_path, q2, monkeypatch):
    # t16: K, K0 and K1 are diagonal, so their eigenspaces and left kernels
    # are read off the diagonal and only the kernels of A and A* are
    # eliminated; a target that is the whole space holds every image
    # without a column formed
    from qaffine.cli import main
    from qaffine.modfile import write_module

    path = tmp_path / "t16.json"
    write_module(t16(q2), path)
    null_spaces = _count_calls(monkeypatch, linalg, "_null_space", lambda *args: None)
    columns = _count_calls(monkeypatch, linalg, "_image_columns", lambda *args: None)
    full_targets = []
    original = Subspace.contains_image

    def tracked(target, *args):
        before = len(columns)
        result = original(target, *args)
        if target.dim == target.ambient_dim:
            full_targets.append(len(columns) - before)
        return result

    monkeypatch.setattr(Subspace, "contains_image", tracked)
    assert main(["roundtrip", str(path), "--alpha", "1"]) == 0
    assert len(null_spaces) == 14
    assert full_targets and set(full_targets) == {0}


def test_dense_kernels_take_the_elimination(q2, monkeypatch):
    # K of t16 conjugated by unit_lu is not diagonal: its eigenspaces and
    # left kernels are eliminated, and equal the conjugated coordinate spans
    from test_properties import unit_lu

    k = t16(q2).action["K0"]
    p = unit_lu(16, 1)
    p_inv = p.inverse()
    dense = p_inv @ k @ p
    assert dense.diagonal_entries is None
    null_spaces = _count_calls(monkeypatch, linalg, "_null_space", lambda *args: None)
    for lam in sorted(set(k.diagonal_entries)):
        right, left = kernel(dense, lam), left_kernel(dense, lam)
        assert right == column_space(p_inv @ kernel(k, lam).basis)
        assert left == column_space(p.transpose() @ left_kernel(k, lam).basis)
    assert len(null_spaces) == 2 * len(set(k.diagonal_entries))
    null_spaces.clear()
    kernel(k, F(1))
    left_kernel(k, F(1))
    assert null_spaces == []


def test_first_escape():
    # K = diag(1, 2, 4) on the coordinate axes; R raises along them
    axes = Ladder([span(3, [(1, 0, 0)]), span(3, [(0, 1, 0)]), span(3, [(0, 0, 1)])])
    K = Matrix.diagonal([1, 2, 4])
    R = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    zeros = [Subspace.zero(3)] * 3
    assert first_escape(K, [F(1), F(2), F(4)], axes, zeros) is None
    assert first_escape(K, [F(1), F(4), F(4)], axes, zeros) == 1
    assert first_escape(R, None, axes, axes.step(1)) is None
    assert first_escape(R, None, axes, axes.step(-1)) == 0
    assert first_escape(K, None, axes, axes) is None


def test_roundtrip_forms_no_image_column_for_coordinate_moves(tmp_path, q2, monkeypatch):
    # t16: K, K0 and K1 are diagonal, so every weight space is a coordinate
    # span, and a move of one into another (the U-moves of extend, and those
    # of each weight analysis) is read off the generator's integer columns
    from qaffine.cli import main
    from qaffine.modfile import write_module

    path = tmp_path / "t16.json"
    write_module(t16(q2), path)
    columns = _count_calls(monkeypatch, linalg, "_image_columns", lambda *args: None)
    scans = _count_calls(monkeypatch, linalg, "_coordinate_move", lambda *args: None)
    coordinate, formed = [], []
    original = linalg._image_inside

    def tracked(targets, op, space, shift):
        before = len(columns)
        result = original(targets, op, space, shift)
        if space.is_coordinate and all(t.is_coordinate for t in targets):
            coordinate.append(1)
            formed.append(len(columns) - before)
        return result

    monkeypatch.setattr(linalg, "_image_inside", tracked)
    assert main(["roundtrip", str(path), "--alpha", "1"]) == 0
    # d = 6: 4 moves of each weight analysis (input, output) and 4 U-moves
    # of extend, over 7 weight spaces, none of them into the whole space
    assert len(coordinate) >= 12 * 7 and set(formed) == {0}
    assert len(scans) >= 12 * 7
