"""Property-based checks of the linear algebra kernel and scalar identities.

The modular-arithmetic identity dim(a+b) + dim(a n b) = dim a + dim b is
checked against an intersection oracle that takes a different route than the
production code: it solves for simultaneous coordinates in both bases via a
kernel computation on the concatenated basis matrix, instead of the
stacked-block elimination.
"""

from fractions import Fraction as F

from hypothesis import event, given, settings
from hypothesis import strategies as st

from qaffine.analysis import (
    ABSOLUTELY_IRREDUCIBLE,
    NOT_IRREDUCIBLE,
    _word_span,
    burnside_irreducible,
)
from qaffine.factory import (
    EvalParams,
    evaluation_module,
    restrict_to_ugeq0,
    tensor_product,
)
from qaffine.linalg import (
    Matrix,
    Subspace,
    char_poly,
    column_echelon,
    eval_poly,
    eval_poly_matrix,
    kernel,
    rank,
    rational_roots,
    subspace_intersect,
    subspace_sum,
)
from qaffine.presentations import check_relations, evaluate_word, q_serre, weyl
from qaffine.report import CheckLog
from qaffine.scalars import qint, qparam

fractions = st.builds(
    F, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


@st.composite
def matrices(draw, min_dim=1, max_dim=4, square=True):
    rows = draw(st.integers(min_value=min_dim, max_value=max_dim))
    cols = rows if square else draw(st.integers(min_value=min_dim, max_value=max_dim))
    entries = draw(
        st.lists(fractions, min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix(rows, cols, tuple(entries))


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    k1 = draw(st.integers(min_value=0, max_value=n))
    k2 = draw(st.integers(min_value=0, max_value=n))
    vecs1 = [
        [draw(fractions) for _ in range(n)] for _ in range(k1)
    ]
    vecs2 = [
        [draw(fractions) for _ in range(n)] for _ in range(k2)
    ]
    return Subspace.from_vectors(n, vecs1), Subspace.from_vectors(n, vecs2)


def oracle_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Vectors in both spans, found by solving A s = B t: the kernel of
    [A | -B] yields the (s, t) coefficient pairs, and A s gives the vectors."""
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    combined = a.basis.hstack(b.basis.scale(-1))
    coeffs = kernel(combined)
    vectors = []
    for j in range(coeffs.dim):
        col = coeffs.basis.column(j)
        s = col[: a.dim]
        vectors.append(a.basis.apply(s))
    return Subspace.from_vectors(n, vectors)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_modular_dimension_identity(pair):
    a, b = pair
    total = subspace_sum(a, b)
    meet = subspace_intersect(a, b)
    assert total.dim + meet.dim == a.dim + b.dim
    assert meet == oracle_intersection(a, b)
    assert total.contains(a) and total.contains(b)
    assert a.contains(meet) and b.contains(meet)


@settings(max_examples=60, deadline=None)
@given(subspace_pairs())
def test_sum_commutative_intersect_commutative(pair):
    a, b = pair
    assert subspace_sum(a, b) == subspace_sum(b, a)
    assert subspace_intersect(a, b) == subspace_intersect(b, a)


@settings(max_examples=60, deadline=None)
@given(matrices(square=False))
def test_kernel_rank_duality(m):
    assert kernel(m).dim + rank(m) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices(square=False))
def test_echelon_canonical_under_column_mixing(m):
    s = column_echelon(m)
    # append sums of existing columns: the span must not change
    cols = m.columns()
    if cols:
        mixed = cols + [tuple(x + y for x, y in zip(cols[0], cols[-1]))]
        assert Subspace.from_vectors(m.rows, mixed) == s
    assert column_echelon(s.basis) == s


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4))
def test_cayley_hamilton(m):
    assert eval_poly_matrix(char_poly(m), m).is_zero()


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4))
def test_char_poly_matches_trace(m):
    coeffs = char_poly(m)
    assert coeffs[0] == 1
    assert coeffs[1] == -m.trace()


@settings(max_examples=40, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=4))
def test_rational_roots_recover_constructed_roots(roots):
    coeffs = [F(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [F(0)], [F(0)] + coeffs)]
    # append an irreducible quadratic factor x^2 + 1 to add noise
    with_noise = [F(0), F(0)] + coeffs
    with_noise = [
        a + b for a, b in zip(with_noise, coeffs + [F(0), F(0)])
    ]
    assert rational_roots(coeffs) == sorted(roots)
    assert rational_roots(with_noise) == sorted(roots)
    for r in roots:
        assert eval_poly(coeffs, r) == 0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10),
    st.sampled_from([2, 3, F(1, 2), F(3, 2), -2]),
)
def test_qint_recurrence(n, qv):
    q = qparam(qv)
    # [n+1] = q [n] + q^-n
    assert qint(n + 1, q) == q.q * qint(n, q) + q.pow(-n)


@st.composite
def small_eval_tensors(draw):
    """V_d1(a) (x) V_d2(a q^e) at q = 2, dim <= 6, sometimes restricted to
    ugeq0. The exponents e cover the q-strings, so reducible tensors (e.g.
    V_1 (x) V_1 at ratio q^+-2) are drawn as well as irreducible ones."""
    q = qparam(2)
    d1, d2 = draw(st.sampled_from([(0, 1), (1, 1), (1, 2), (2, 1), (0, 2)]))
    a = draw(st.sampled_from([F(1), F(3), F(-2), F(1, 3)]))
    e = draw(st.integers(min_value=-4, max_value=4))
    eps1, eps2 = draw(st.sampled_from([1, -1])), draw(st.sampled_from([1, -1]))
    m = tensor_product(
        evaluation_module(EvalParams(d1, eps1, a), q),
        evaluation_module(EvalParams(d2, eps2, a * q.pow(e)), q),
    )
    alpha = draw(st.sampled_from([None, F(1), F(-3, 2)]))
    return m if alpha is None else restrict_to_ugeq0(m, alpha)


@settings(max_examples=30, deadline=None)
@given(small_eval_tensors())
def test_certificate_with_fallback_matches_exact_span(m):
    report = burnside_irreducible(m)
    exact = _word_span(m)
    n = m.dim
    assert report.word_span_dim == exact
    expected = ABSOLUTELY_IRREDUCIBLE if exact == n * n else NOT_IRREDUCIBLE
    assert report.verdict == expected
    event(expected)
    assert report.modular_rank is not None and report.modular_rank <= exact


@st.composite
def formal_sums(draw):
    """A formal sum over X, Y, Z with square matrices of one size assigned.
    Terms pick their words from a small pool, so words repeat (sometimes
    with cancelling coefficients), and the empty word is always in the pool."""
    n = draw(st.integers(min_value=1, max_value=3))
    square = st.lists(fractions, min_size=n * n, max_size=n * n)
    assignment = {g: Matrix(n, n, tuple(draw(square))) for g in "XYZ"}
    letters = st.sampled_from("XYZ")
    pool = [()] + draw(
        st.lists(st.lists(letters, max_size=4).map(tuple), min_size=1, max_size=5)
    )
    words = draw(
        st.lists(st.tuples(fractions, st.sampled_from(pool)), min_size=1, max_size=8)
    )
    return tuple(words), assignment


def naive_evaluate(words, assignment):
    n = next(iter(assignment.values())).rows
    total = Matrix.zero(n, n)
    for coeff, word in words:
        product = Matrix.identity(n)
        for gen in word:
            product = product @ assignment[gen]
        total = total + coeff * product
    return total


@settings(max_examples=80, deadline=None)
@given(formal_sums())
def test_prefix_sharing_evaluation_matches_naive(case):
    words, assignment = case
    assert evaluate_word(words, assignment) == naive_evaluate(words, assignment)


def residual(relation, assignment):
    log = CheckLog()
    check_relations(log, "test", [relation], assignment)
    (entry,) = log.entries
    n = next(iter(assignment.values())).rows
    out = [[F(0)] * n for _ in range(n)]
    for i, j, v in entry.residual_entries:
        out[i][j] = F(v)
    assert entry.passed == (not entry.residual_entries)
    return Matrix.from_rows(out)


qs = st.sampled_from([2, 3, F(1, 2), F(3, 2), -2])


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3), st.data(), qs, fractions)
def test_weyl_relation_residual_closed_form(x, data, qv, target):
    y = data.draw(matrices(min_dim=x.rows, max_dim=x.rows))
    q = qparam(qv)
    qq = q.q
    # (q x y - q^-1 y x)/(q - q^-1) - target I
    expected = (qq * (x @ y) - (1 / qq) * (y @ x)).scale(1 / (qq - 1 / qq)) - (
        target * Matrix.identity(x.rows)
    )
    assert residual(weyl("x", "y", target, q), {"x": x, "y": y}) == expected


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3), st.data(), qs)
def test_q_serre_relation_residual_closed_form(x, data, qv):
    y = data.draw(matrices(min_dim=x.rows, max_dim=x.rows))
    qq = F(qv)
    three = qq * qq + 1 + 1 / (qq * qq)  # [3] = q^2 + 1 + q^-2
    x2 = x @ x
    x3 = x2 @ x
    # x^3 y - [3] x^2 y x + [3] x y x^2 - y x^3
    expected = (x3 @ y) - three * (x2 @ y @ x) + three * (x @ y @ x2) - (y @ x3)
    relation = q_serre("x", "y", qparam(qv))
    assert relation.name == "serre(x,y)"
    assert residual(relation, {"x": x, "y": y}) == expected
