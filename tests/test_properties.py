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
