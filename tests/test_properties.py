"""Property-based checks of the linear algebra kernel and scalar identities.

The modular-arithmetic identity dim(a+b) + dim(a n b) = dim a + dim b is
checked against an intersection oracle that takes a different route than the
production code: it solves for simultaneous coordinates in both bases via a
kernel computation on the concatenated basis matrix, instead of the
stacked-block elimination.
"""

import bisect
import copy
import json
import math
import random
from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    column_space,
    direct_sum,
    full_space,
    literal_tables,
    matrix_apply,
    matrix_column,
    matrix_columns,
    naive_evaluate,
    span,
)
import qaffine.extension
from qaffine import linalg
from qaffine.analysis import (
    ABSOLUTELY_IRREDUCIBLE,
    COMPOSITION,
    NOT_IRREDUCIBLE,
    _word_span,
    burnside_irreducible,
)
from qaffine.errors import CheckFailedError, QAffineError
from qaffine.extension import (
    _PREMISES,
    _lowering_relations,
    _moves_into,
    assemble,
    build_a_astar,
    build_b_bstar,
    build_w_grid,
    eigen_flags,
    extend,
)
from qaffine.factory import (
    EvalParams,
    evaluation_module,
    restrict_to_ugeq0,
    tensor_product,
    twist_borel,
    twist_full,
)
from qaffine.linalg import (
    Ladder,
    Matrix,
    SpanAccumulator,
    Subspace,
    char_poly,
    eigenvalues,
    eval_poly,
    first_escape,
    image,
    int_row,
    kernel,
    left_kernel,
    rank,
    rational_roots,
    subspace_intersect,
    subspace_sum,
)
from qaffine.modfile import FORMAT_VERSION, module_from_dict, module_to_json
from qaffine.presentations import (
    AFFINE_FULL,
    ALPHABETS,
    UGEQ0,
    RelationWord,
    bind_relations,
    check_presentation,
    check_relations,
    evaluate_word,
    q_serre,
    relations_for,
    weyl,
)
from qaffine.report import CheckLog, derivable
from qaffine.scalars import qint, qparam
from qaffine.weights import WeightLadder

def eval_poly_matrix(coeffs, m):
    """Horner evaluation of a polynomial (leading coefficient first) at m."""
    acc = Matrix.zero(m.rows, m.cols)
    for c in coeffs:
        acc = (acc @ m).shift(-c)
    return acc


fractions = st.builds(
    F, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)
# Large numerators over large coprime denominators, of both signs: a common
# denominator that is a max instead of an lcm, or a missing rescaling, shows.
hard_fractions = st.sampled_from([
    F(2**61 - 1, 3), F(-7, 1000003), F(5, 2**31 - 1), F(-(2**61 - 1), 1000003),
    F(1000003, -(2**31 - 1)), F(-1, 3),
])
wide_fractions = st.one_of(fractions, hard_fractions)


@st.composite
def matrices(draw, min_dim=1, max_dim=4, square=True, entry=fractions):
    rows = draw(st.integers(min_value=min_dim, max_value=max_dim))
    cols = rows if square else draw(st.integers(min_value=min_dim, max_value=max_dim))
    entries = draw(
        st.lists(entry, min_size=rows * cols, max_size=rows * cols)
    )
    return Matrix.from_entries(rows, cols, tuple(entries))


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
    return span(n, vecs1), span(n, vecs2)


def oracle_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Vectors in both spans, found by solving A s = B t: the kernel of
    [A | -B] yields the (s, t) coefficient pairs, and A s gives the vectors."""
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    minus_b = b.basis.scale(-1)
    combined = Matrix.from_rows([a.basis.row(i) + minus_b.row(i) for i in range(n)])
    coeffs = kernel(combined)
    vectors = []
    for j in range(coeffs.dim):
        col = matrix_column(coeffs.basis, j)
        s = col[: a.dim]
        vectors.append(matrix_apply(a.basis, s))
    return span(n, vectors)


@st.composite
def span_sequences(draw):
    """Sparse rational vectors of one length, mixed with zero vectors,
    duplicates and nonzero multiples of earlier vectors."""
    n = draw(st.integers(min_value=1, max_value=6))
    sparse = st.one_of(st.just(F(0)), fractions)
    vectors: list[list[F]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "scaled"]))
        if kind == "zero" or (kind != "fresh" and not vectors):
            vectors.append([F(0)] * n)
        elif kind == "fresh":
            vectors.append([draw(sparse) for _ in range(n)])
        else:
            old = draw(st.sampled_from(vectors))
            c = F(1) if kind == "copy" else draw(fractions.filter(bool))
            vectors.append([c * x for x in old])
    return n, vectors


@settings(max_examples=150, deadline=None)
@given(span_sequences())
def test_span_accumulator_tracks_prefix_rank(case):
    n, vectors = case
    acc = SpanAccumulator(n)
    previous = 0
    for k, v in enumerate(vectors, start=1):
        prefix_rank = rank(Matrix.from_rows(vectors[:k]))
        assert acc.insert(dict(enumerate(v))) == (prefix_rank > previous)
        assert acc.dim == prefix_rank
        previous = prefix_rank
    assert acc.to_subspace() == span(n, vectors[::-1])


def reference_rref(rows):
    """The dense Gauss-Jordan elimination the sparse echelon form replaced:
    the nonzero rows of the reduced row echelon form, pivots increasing,
    pivot entries 1, zeros above and below each pivot. Every entry of every
    row is updated, zeros included."""
    rows = [list(r) for r in rows if any(v != 0 for v in r)]
    if not rows:
        return []
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank]


def from_columns(ambient, columns):
    """The ambient x len(columns) matrix with the given dense columns."""
    entries = [x for column in columns for x in column]
    return Matrix.from_entries(len(columns), ambient, entries).transpose()


def reference_span(n, vectors):
    """The Subspace whose reduced rows are the dense reference RREF's rows,
    each cleared to integers: with a 1 at its pivot, the row is primitive."""
    rows = ({i: v for i, v in enumerate(row) if v} for row in reference_rref(vectors))
    return Subspace(n, {min(row): int_row(row) for row in rows})


def reference_kernel(m):
    """Kernel vectors e_f - sum_p row_p[f] e_p from the forward RREF, then
    echelonized again."""
    reduced = reference_rref(m.to_rows())
    pivots = [next(i for i, v in enumerate(row) if v != 0) for row in reduced]
    vectors = []
    for f in range(m.cols):
        if f not in pivots:
            v = [F(0)] * m.cols
            v[f] = F(1)
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            vectors.append(v)
    return reference_span(m.cols, vectors)


def reference_intersect(a, b):
    """Zassenhaus on the dense block [a | a] over [b | 0]."""
    n = a.ambient_dim
    block = [list(c) + list(c) for c in matrix_columns(a.basis)]
    block += [list(c) + [F(0)] * n for c in matrix_columns(b.basis)]
    tails = [row[n:] for row in reference_rref(block) if not any(row[:n])]
    return reference_span(n, tails)


def reference_inverse(m):
    """The right block of the dense rref [M | I]."""
    n = m.rows
    eye = Matrix.identity(n).to_rows()
    work = reference_rref([list(m.row(i)) + eye[i] for i in range(n)])
    if [row[:n] for row in work] != eye:
        raise ValueError("matrix is singular")
    return Matrix.from_rows([row[n:] for row in work])


@st.composite
def row_lists(draw, cols, square=False):
    """Rows of length cols: sparse or dense entries, as Fractions or as ints,
    with zero rows, duplicates and scaled copies of earlier rows mixed in."""
    ints = draw(st.booleans())
    value = st.integers(min_value=-4, max_value=4) if ints else fractions
    entry = draw(st.sampled_from([value, st.one_of(st.just(0), value)]))
    scale = (st.integers(min_value=-3, max_value=3) if ints else fractions).filter(bool)
    rows: list[list] = []
    other = ["zero", "copy", "scaled"]
    for _ in range(cols if square else draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["fresh"] * (8 if square else 3) + other))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([0 if ints else F(0)] * cols)
        elif kind == "fresh":
            rows.append([draw(entry) for _ in range(cols)])
        else:
            c = 1 if kind == "copy" else draw(scale)
            rows.append([c * x for x in draw(st.sampled_from(rows))])
    return rows


def as_matrix(rows, cols):
    return Matrix.from_entries(len(rows), cols, tuple(x for row in rows for x in row))


def all_fractions(*spaces):
    return all(type(x) is F for s in spaces for x in s.basis.entries)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), row_lists(n))), st.randoms(use_true_random=False))
def test_echelon_matches_dense_reference(case, rnd):
    n, rows = case
    m = as_matrix(rows, n)
    spanned = span(n, rows)
    acc, shuffled = SpanAccumulator(n), SpanAccumulator(n)
    for row in rows:
        acc.insert(dict(enumerate(row)))
    for row in rnd.sample(rows, len(rows)):
        shuffled.insert(dict(enumerate(row)))
    half = len(rows) // 2
    halves = (span(n, rows[:half]), span(n, rows[half:]))
    # every route reaches the same reduced rows, so equal values hash equal
    for route in (reference_span(n, rows), acc.to_subspace(), shuffled.to_subspace(),
                  column_space(m.transpose()), subspace_sum(*halves)):
        assert route == spanned and hash(route) == hash(spanned)
    assert acc.dim == spanned.dim
    assert kernel(m) == reference_kernel(m)
    assert rank(m) == len(reference_rref(rows)) == spanned.dim
    assert all_fractions(spanned, acc.to_subspace(), kernel(m))
    event("full rank" if spanned.dim == min(len(rows), n) else "rank deficient")


@settings(max_examples=100, deadline=None)
@given(span_sequences(), st.integers(min_value=0, max_value=10))
def test_handed_out_subspaces_never_change(case, cut):
    # A Subspace shares the rows its echelon handed out, so nothing that
    # echelon, a ladder or an accumulator seeded from the rows does later may
    # change them.
    n, vectors = case
    handed = []

    def hand_out(*spaces):
        handed.extend((s, copy.deepcopy(s.pivot_rows)) for s in spaces)

    def unchanged():
        return all(s.pivot_rows == rows for s, rows in handed)

    units = [{i: F(1)} for i in reversed(range(n))]
    acc = SpanAccumulator(n)
    for v in vectors[:cut]:
        acc.insert(dict(enumerate(v)))
    prefix = acc.to_subspace()
    hand_out(prefix)
    for v in [dict(enumerate(v)) for v in vectors[cut:]] + units:
        acc.insert(v)
        hand_out(acc.to_subspace())
    assert unchanged() and acc.dim == n

    lines = [span(n, [v]) for v in vectors]
    ladder = Ladder([prefix, *lines])
    hand_out(*lines, *ladder.head)
    hand_out(*ladder.tail)
    assert unchanged()

    seeded = SpanAccumulator(n, prefix)
    for v in units:
        seeded.insert(v)
    seeded.reduced()
    for line in lines:
        hand_out(subspace_sum(prefix, line), subspace_intersect(prefix, line))
    assert unchanged() and seeded.dim == n


@st.composite
def sparse_vector_lists(draw):
    """Sparse vectors {index: entry} of one length, each with Fraction or
    int entries (wide ones too), explicit zeros, repeats and scaled copies."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(wide_fractions, st.integers(min_value=-6, max_value=6),
                      st.sampled_from([2**61 - 1, -(3**40)]))
    vectors: list[dict] = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        if vectors and draw(st.integers(min_value=0, max_value=3)) == 0:
            c = draw(st.one_of(fractions, st.integers(min_value=-3, max_value=3)))
            vectors.append({i: c * x for i, x in draw(st.sampled_from(vectors)).items()})
        else:
            support = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
            vectors.append({i: draw(entry) for i in sorted(support)})
    return n, vectors


def dense(n, v):
    return [F(v.get(i, 0)) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(sparse_vector_lists(), st.integers(min_value=0, max_value=9),
       st.randoms(use_true_random=False))
def test_integer_echelon_hands_out_the_dense_reference(case, cut, rnd):
    # the accumulator stores primitive integer rows with a positive pivot
    # entry; whatever the insertion order, and whether it starts empty or
    # from a Subspace, every read-out equals the dense reference, its basis
    # view is in Fractions, and its rows are the accumulator's own (which a
    # seeded accumulator starts from)
    n, vectors = case
    start = span(n, [dense(n, v) for v in vectors[:cut]])
    for acc, kept in ((SpanAccumulator(n), []), (SpanAccumulator(n, start), vectors[:cut])):
        for v in rnd.sample(vectors, len(vectors)):
            acc.insert(v)
            kept = kept + [v]
            for p, row in acc._pivots.items():
                assert all(type(x) is int for x in row.values())
                assert min(row) == p and row[p] > 0 and math.gcd(*row.values()) == 1
            if rnd.random() < 0.5:
                continue
            space = acc.to_subspace()
            assert space == reference_span(n, [dense(n, w) for w in kept])
            assert all_fractions(space)
            assert space.pivot_rows == acc._pivots
        assert acc.to_subspace() == reference_span(n, [dense(n, w) for w in kept])
    event("seeded" if start.dim else "empty start")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), row_lists(n), row_lists(n))))
def test_sum_and_intersection_match_dense_reference(case):
    n, rows_a, rows_b = case
    a, b = span(n, rows_a), span(n, rows_b)
    total, meet = subspace_sum(a, b), subspace_intersect(a, b)
    assert total == reference_span(n, rows_a + rows_b)
    assert meet == reference_intersect(a, b)
    assert all_fractions(total, meet)
    event("meet nonzero" if meet.dim else "meet zero")


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(lambda n: row_lists(n, square=True)))
def test_inverse_matches_dense_reference(rows):
    m = as_matrix(rows, len(rows))
    try:
        expected = reference_inverse(m)
    except ValueError:
        with pytest.raises(ValueError, match="matrix is singular"):
            m.inverse()
        event("singular")
        return
    inverse = m.inverse()
    assert inverse == expected
    assert all(type(x) is F for x in inverse.entries)
    assert inverse @ m == Matrix.identity(len(rows))
    event("invertible")


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
    s = column_space(m)
    # append sums of existing columns: the span must not change
    cols = matrix_columns(m)
    if cols:
        mixed = cols + [tuple(x + y for x, y in zip(cols[0], cols[-1]))]
        assert span(m.rows, mixed) == s
    assert column_space(s.basis) == s


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


def reference_divisors(n):
    """All positive divisors of n > 0, by trial-division factorization."""
    factors = {}
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


def reference_rational_roots(coeffs):
    """The divisor-enumeration root finder: every root p/s of the cleared
    integer polynomial has p | constant and s | leading coefficient, so try
    each such candidate and deflate while it is a root."""
    poly = [F(c) for c in coeffs]
    while poly and poly[0] == 0:
        poly.pop(0)
    roots = []
    while len(poly) > 1 and poly[-1] == 0:
        roots.append(F(0))
        poly.pop()
    if len(poly) == 1:
        return sorted(roots)
    denom_lcm = 1
    for c in poly:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in poly]
    candidates = sorted(
        {
            F(sign * p, s)
            for p in reference_divisors(abs(ints[-1]))
            for s in reference_divisors(abs(ints[0]))
            for sign in (1, -1)
        }
    )
    for cand in candidates:
        while len(poly) > 1 and eval_poly(poly, cand) == 0:
            roots.append(cand)
            quotient = [poly[0]]
            for c in poly[1:-1]:
                quotient.append(c + quotient[-1] * cand)
            poly = quotient
    return sorted(roots)


def poly_times(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def root_polynomials(draw):
    """Small-height products lead * prod (s x - p)^k with k <= 3, times
    optional x^z, x^2 + c and x^2 - 2, with a negative or non-unit lead."""
    lead = draw(st.sampled_from([1, -1, 2, -3, 6, F(-5, 4), F(2, 9)]))
    poly = [F(lead)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        s = draw(st.integers(min_value=1, max_value=4))
        p = draw(st.integers(min_value=-6, max_value=6).filter(bool))
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            poly = poly_times(poly, [F(s), F(-p)])
    poly = poly + [F(0)] * draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        poly = poly_times(poly, [1, 0, draw(st.integers(min_value=1, max_value=5))])
    if draw(st.booleans()):
        poly = poly_times(poly, [1, 0, -2])
    return poly


@settings(max_examples=150, deadline=None)
@given(root_polynomials())
def test_rational_roots_match_divisor_enumeration(poly):
    assert rational_roots(poly) == reference_rational_roots(poly)


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
    assert report.certificate != "norton" or exact == n * n


def reference_word_span(m):
    """The word span from dense words: the closure of the identity under
    left multiplication by each generator, each word flattened to its n^2
    entries; a word is kept when it does not reduce to zero against the
    dense RREF of the words kept so far. Each kept word is one Gauss-Jordan
    step: its remainder is normalized, its pivot column is cleared from the
    kept rows, and it is inserted in pivot order."""
    n = m.dim
    gens = [m.action[g] for g in sorted(m.action)]
    pivots, reduced = [], []

    def grows(w):
        rest = list(w)
        for p, row in zip(pivots, reduced):
            if c := rest[p]:
                rest = [a - c * b for a, b in zip(rest, row)]
        if not any(rest):
            return False
        p = next(i for i, v in enumerate(rest) if v)
        inv = 1 / rest[p]
        rest = [v * inv for v in rest]
        for k, row in enumerate(reduced):
            if c := row[p]:
                reduced[k] = [a - c * b for a, b in zip(row, rest)]
        k = bisect.bisect(pivots, p)
        pivots.insert(k, p)
        reduced.insert(k, rest)
        return True

    identity = Matrix.identity(n).entries
    frontier = [identity] if grows(identity) else []
    while frontier and len(reduced) < n * n:
        new_frontier = []
        for w in frontier:
            for g in gens:
                image = (g @ Matrix.from_entries(n, n, w)).entries
                if grows(image):
                    new_frontier.append(image)
        frontier = new_frontier
    return len(reduced)


def unit_lu(n, seed):
    """A seeded unimodular L U: unit lower and unit upper triangular
    factors with off-diagonal entries in {-1, 0, 1}."""
    rng = random.Random(seed)
    lower = [[F(1) if i == j else F(rng.randint(-1, 1)) if i > j else F(0)
              for j in range(n)] for i in range(n)]
    upper = [[F(1) if i == j else F(rng.randint(-1, 1)) if i < j else F(0)
              for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


REDUCIBLE_TENSOR = tensor_product(
    evaluation_module(EvalParams(1, 1, F(1)), qparam(2)),
    evaluation_module(EvalParams(1, 1, F(4)), qparam(2)),
)


@settings(max_examples=30, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)))
@example(REDUCIBLE_TENSOR, None)
@example(REDUCIBLE_TENSOR, 7)
def test_word_span_matches_dense_reference(m, seed):
    # the sparse closure of vec(I) under g (x) I against dense words, in the
    # standard basis and conjugated into a basis where the matrices are dense
    m = conjugated(m, seed)
    exact = reference_word_span(m)
    assert _word_span(m) == exact
    event("full" if exact == m.dim**2 else "proper")


def conjugated(m, seed):
    """m itself for seed None, else m conjugated by unit_lu(m.dim, seed)."""
    if seed is None:
        return m
    event("conjugated")
    p = unit_lu(m.dim, seed)
    p_inv = p.inverse()
    action = {g: p_inv @ a @ p for g, a in m.action.items()}
    return replace(m, action=action, provenance="conjugated")


@st.composite
def q_string_tensors(draw):
    """V_m(a) (x) V_n(a q^e), both of sign eps, at q = 2 or 3/2, dim <= 16,
    at a q-string exponent e = +-(m + n - 2p + 2) with 1 <= p <= min(m, n):
    reducible, with two composition factors (Chari-Pressley). Sometimes
    restricted to ugeq0."""
    q = qparam(draw(st.sampled_from([F(2), F(3, 2)])))
    m, n = draw(st.sampled_from(
        [(m, n) for m in range(1, 8) for n in range(1, 8) if (m + 1) * (n + 1) <= 16]
    ))
    e = draw(st.sampled_from([1, -1])) * (m + n - 2 * draw(st.integers(1, min(m, n))) + 2)
    eps = draw(st.sampled_from([1, -1]))
    a = draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
    module = tensor_product(
        evaluation_module(EvalParams(m, eps, a), q),
        evaluation_module(EvalParams(n, eps, a * q.pow(e)), q),
    )
    alpha = draw(st.sampled_from([None, F(1), F(-3, 2)]))
    return module if alpha is None else restrict_to_ugeq0(module, alpha)


@settings(max_examples=25, deadline=None)
@given(q_string_tensors(), st.one_of(st.none(), st.integers(0, 2**16)))
@example(REDUCIBLE_TENSOR, None)
@example(REDUCIBLE_TENSOR, 7)
def test_composition_count_matches_word_span_on_q_strings(m, seed):
    # the word span of a dense basis closes too slowly past dim 8 to compare
    m = conjugated(m, seed if m.dim <= 8 else None)
    report = burnside_irreducible(m)
    assert report.verdict == NOT_IRREDUCIBLE
    assert report.word_span_dim == _word_span(m)
    # both factors are Norton-certified, so only equal dimensions fall back,
    # and a dense basis where the witness search finds no seed
    witness = report.witness
    assert (report.certificate == COMPOSITION) == (
        witness is not None and 2 * witness.dim != m.dim
    )
    event(report.certificate if witness else "no witness")


@st.composite
def split_sums(draw):
    """eval(d1, eps1, a) (+) eval(d2, eps2, b) with d1 != d2, dim <= 8, at
    q = 2 or 3/2, sometimes both restricted to ugeq0: a split module with
    two non-isomorphic absolutely irreducible summands."""
    q = qparam(draw(st.sampled_from([F(2), F(3, 2)])))
    d1, d2 = draw(st.sampled_from(
        [(d1, d2) for d1 in range(5) for d2 in range(5) if d1 != d2 and d1 + d2 <= 6]
    ))
    points = st.sampled_from([F(1), F(3), F(-2), F(1, 3), F(37)])
    summands = [
        evaluation_module(EvalParams(d, draw(st.sampled_from([1, -1])), draw(points)), q)
        for d in (d1, d2)
    ]
    alpha = draw(st.sampled_from([None, F(1), F(-3, 2)]))
    if alpha is not None:
        summands = [restrict_to_ugeq0(s, alpha) for s in summands]
    return direct_sum(*summands)


@settings(max_examples=25, deadline=None)
@given(split_sums(), st.one_of(st.none(), st.integers(0, 2**16)))
@example(direct_sum(*(evaluation_module(EvalParams(d, 1, F(a)), qparam(2))
                      for d, a in ((3, 1), (1, 37)))), None)
def test_composition_count_matches_word_span_on_split_sums(m, seed):
    m = conjugated(m, seed)
    report = burnside_irreducible(m)
    assert report.word_span_dim == _word_span(m)
    if report.witness is None:  # the search can miss on a dense basis
        event("no witness")
        return
    n1 = report.witness.dim
    n2 = m.dim - n1
    assert report.certificate == COMPOSITION
    assert report.word_span_dim == n1 * n1 + n2 * n2


def reference_projector(spaces, eigenvalues, n):
    """The operator with spaces[i] as eigenspace for eigenvalues[i] by one
    change of basis, P D P^-1, with P the concatenated echelon bases and its
    inverse from the dense reference_rref."""
    columns = [c for s in spaces for c in matrix_columns(s.basis)]
    diag = [lam for s, lam in zip(spaces, eigenvalues) for _ in range(s.dim)]
    basis = from_columns(n, columns)
    return basis @ Matrix.diagonal(diag) @ reference_inverse(basis)


@settings(max_examples=30, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)))
def test_split_operators_match_change_of_basis(m, seed):
    # B and B*, read off the echelon form of their graphs, against P D P^-1
    if m.kind != UGEQ0:
        m = restrict_to_ugeq0(m, F(1))
    assume(burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE)
    m = conjugated(m, seed)
    _, trace = extend(m, 1, 1)
    d, q = trace.diameter, m.q
    b = [q.pow(2 * i - d) for i in range(d + 1)]
    assert trace.b_mat == reference_projector(trace.w_spaces, b, m.dim)
    assert trace.bstar_mat == reference_projector(trace.wstar_spaces, b[::-1], m.dim)
    event(f"diameter {d}")


def reference_contains(big, small):
    """small lies in big when big's basis and small's have big's rank
    together, by the dense reference_rref."""
    both = matrix_columns(big.basis) + matrix_columns(small.basis)
    return len(reference_rref(both)) == big.dim


def reference_first_escape(mat, shifts, spaces, targets):
    """first_escape by echelonizing each image and testing containment
    densely."""
    for i, (space, target) in enumerate(zip(spaces, targets)):
        op = mat if shifts is None else mat.shift(shifts[i])
        if not reference_contains(target, image(op, space)):
            return i
    return None


@st.composite
def escape_cases(draw):
    """An operator, optional shifts, and ladders of spaces and targets. Each
    target is zero, the full space, a drawn subspace, or the image of its
    space (alone or plus a drawn subspace), so images land inside their
    targets about as often as they escape; spaces may be zero. Entries
    sometimes have large coprime denominators."""
    n = draw(st.integers(min_value=1, max_value=4))
    entry = draw(st.sampled_from([fractions, wide_fractions]))
    mat = draw(matrices(min_dim=n, max_dim=n, entry=entry))
    length = draw(st.integers(min_value=1, max_value=4))
    shifts = draw(st.none() | st.lists(entry, min_size=length, max_size=length))

    def subspace():
        k = draw(st.integers(min_value=0, max_value=n))
        return span(n, [[draw(entry) for _ in range(n)] for _ in range(k)])

    spaces, targets = [], []
    for i in range(length):
        space = subspace()
        op = mat if shifts is None else mat.shift(shifts[i])
        kind = draw(st.sampled_from(["zero", "full", "drawn", "image", "image+"]))
        target = {
            "zero": lambda: Subspace.zero(n),
            "full": lambda: full_space(n),
            "drawn": subspace,
            "image": lambda: image(op, space),
            "image+": lambda: subspace_sum(image(op, space), subspace()),
        }[kind]()
        spaces.append(space)
        targets.append(target)
    return mat, shifts, spaces, targets


def hard_escape_case():
    """A plane whose reduced rows have the coprime denominators 3 and
    1000003, an operator that maps it into itself and mixes its rows, and
    the whole space, which escapes the plane."""
    rows = [[F(1), F(0), F(2**61 - 1, 3)], [F(0), F(1), F(-7, 1000003)]]
    plane = span(3, rows)
    basis = from_columns(3, rows + [[F(0), F(0), F(1)]])
    mixing = Matrix.from_rows([[1, 1, 0], [1, -1, 0], [0, 0, F(5, 2**31 - 1)]])
    mat = basis @ mixing @ basis.inverse()
    return mat, None, [plane, full_space(3)], [plane, plane]


@settings(max_examples=150, deadline=None)
@given(escape_cases())
@example(hard_escape_case())
def test_first_escape_matches_echelonized_images(case):
    expected = reference_first_escape(*case)
    event("escapes" if expected is not None else "contained")
    assert first_escape(*case) == expected
    mat, shifts, spaces, targets = case
    for i, (space, target) in enumerate(zip(spaces, targets)):
        op = mat if shifts is None else mat.shift(shifts[i])
        for inner in (space, image(op, space)):
            assert target.contains(inner) == reference_contains(target, inner)


@settings(max_examples=60, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)), st.data())
def test_shifted_containment_matches_shifted_matrix(m, seed, data):
    # contains_image(op, space, c) puts c into the integer rows; it must agree
    # with the shifted matrix and the dense reference, for c a hard fraction,
    # 0 or an eigenvalue of op (where op - c I is singular)
    m = conjugated(m, seed)
    n = m.dim
    op = m.action[data.draw(st.sampled_from(sorted(m.action)))]
    spectrum = sorted(set(eigenvalues(op)))
    c = data.draw(st.one_of(hard_fractions, st.just(F(0)), st.sampled_from(spectrum)))
    shifted = op.shift(c)

    def drawn():
        vectors = data.draw(st.lists(
            st.lists(wide_fractions, min_size=n, max_size=n), max_size=2))
        return span(n, vectors)

    eigenspaces = [kernel(op.shift(lam)) for lam in spectrum]
    space = data.draw(st.sampled_from(["drawn", "full", "eigenspace"]))
    space = {
        "drawn": drawn,
        "full": lambda: full_space(n),
        "eigenspace": lambda: data.draw(st.sampled_from(eigenspaces)),
    }[space]()
    target = data.draw(st.sampled_from(["zero", "drawn", "image", "image+", "space"]))
    target = {
        "zero": lambda: Subspace.zero(n),
        "drawn": drawn,
        "image": lambda: image(shifted, space),
        "image+": lambda: subspace_sum(image(shifted, space), drawn()),
        "space": lambda: space,
    }[target]()
    expected = reference_contains(target, image(shifted, space))
    event("contained" if expected else "escapes")
    assert target.contains_image(op, space, c) == expected
    assert target.contains_image(shifted, space) == expected


@st.composite
def shifted_view_cases(draw):
    """A sparse rational matrix, square or rectangular, a subspace of its
    source space, a subspace of its target space and a shift: 0, one of its
    diagonal entries (so that a row cancels there), or a drawn fraction,
    often not an integer. Subspaces may be zero."""
    entry = draw(st.sampled_from([fractions, wide_fractions]))
    m = draw(matrices(max_dim=5, square=draw(st.booleans()),
                      entry=st.one_of(st.just(F(0)), st.just(F(0)), entry)))
    diagonal = [m.at(i, i) for i in range(min(m.rows, m.cols))]
    shift = draw(st.one_of(st.just(F(0)), st.sampled_from(diagonal), entry))

    def subspace(n):
        k = draw(st.integers(min_value=0, max_value=n))
        return span(n, [[draw(entry) for _ in range(n)] for _ in range(k)])

    return m, subspace(m.cols), subspace(m.rows), shift


def cancelling_shift_case():
    """A Jordan block at 1/2 next to 3, shifted by 1/2: two diagonal entries
    cancel, and the block's plane maps onto the line of its first vector,
    which it maps to zero."""
    m = Matrix.from_rows([[F(1, 2), 1, 0], [0, F(1, 2), 0], [0, 0, 3]])
    plane = span(3, [[1, 0, 0], [0, 1, 0]])
    return m, plane, span(3, [[1, 0, 0]]), F(1, 2)


@settings(max_examples=200, deadline=None)
@given(shifted_view_cases())
@example(cancelling_shift_case())
def test_shifts_in_the_integer_views_match_the_shifted_matrix(case):
    # kernels and images take the shift into the integer rows and columns;
    # they must agree with Matrix.shift and a dense reference from the basis
    m, space, target, s = case
    wrong = Subspace.zero(m.cols + 1)
    for call in (lambda: target.contains_image(m, wrong, s), lambda: image(m, wrong),
                 lambda: Subspace.zero(m.rows + 1).contains_image(m, space, s)):
        with pytest.raises(ValueError, match="^ambient dimension mismatch$"):
            call()
    if s and not m.is_square:
        for call in (lambda: m.shift(s), lambda: kernel(m, s), lambda: left_kernel(m, s),
                     lambda: target.contains_image(m, space, s)):
            with pytest.raises(ValueError, match="^shift of a non-square matrix$"):
                call()
        event("non-square shift rejected")
        return
    op = m.shift(s) if m.is_square else m
    moved = reference_span(m.rows, matrix_columns(op @ space.basis))
    expected = reference_contains(target, moved)
    event("contained" if expected else "escapes")
    assert image(op, space) == moved
    assert target.contains_image(m, space, s) == expected
    assert kernel(m, s) == kernel(op) == reference_kernel(op)
    assert left_kernel(m, s) == kernel(op.transpose()) == reference_kernel(op.transpose())
    assert all_fractions(kernel(m, s), left_kernel(m, s))


GRID_CHECKS = (
    "weight-from-flags",
    "grid-boundary(row)", "grid-boundary(col)", "grid-vanishing", "grid-monotone",
    "grid-move(A)", "grid-move(Astar)", "grid-move(Kinv)", "grid-move(K)",
)


def reference_grid_checks(m, weights, a_mat, astar_mat, flags, grid_flags):
    """(name, pass, detail) of weight-from-flags on the weight ladder and the
    flags (v, vstar) of eigen_flags, and of the eight grid checks on
    grid_flags, all literally: each weight space against head*_i n tail_i,
    every cell W(i,j) intersected, and the K target of a cell the
    subspace_sum of the cells (i-h, j+h) for h = 1..i. Moves are tested by
    the dense reference_first_escape."""
    q, alpha, d = m.q, weights.alpha, weights.diameter
    theta = [alpha * q.pow(2 * i - d) for i in range(d + 1)]
    theta_star = [q.pow(d - 2 * i) / alpha for i in range(d + 1)]
    zero = Subspace.zero(m.dim)
    v, vstar = flags
    ok = all(s == subspace_intersect(head, tail)
             for s, head, tail in zip(weights.spaces, vstar.head, v.tail))
    checks = [("weight-from-flags", ok,
               "" if ok else "weight spaces differ from head(A*-flag) n tail(A-flag)")]

    v, vstar = grid_flags
    cells = [(i, j) for i in range(d + 1) for j in range(d + 1)]
    grid = {(i, j): subspace_intersect(vstar.head[i], v.head[j]) for i, j in cells}

    def cell(i, j):
        # past row or column d the grid repeats it; before 0 it is zero
        return grid[(min(i, d), min(j, d))] if i >= 0 and j >= 0 else zero

    for name, ok, detail in (
        ("grid-boundary(row)", all(grid[(i, d)] == vstar.head[i] for i in range(d + 1)),
         "W(i,d) differs from the A*-flag prefix"),
        ("grid-boundary(col)", all(grid[(d, j)] == v.head[j] for j in range(d + 1)),
         "W(d,j) differs from the A-flag prefix"),
        ("grid-vanishing", all(grid[(i, j)].dim == 0 for i, j in cells if i + j < d),
         "a grid space below the antidiagonal is nonzero"),
        ("grid-monotone",
         all(cell(i, j).dim <= cell(i + 1, j).dim and cell(i, j).dim <= cell(i, j + 1).dim
             for i in range(d) for j in range(d)),
         "grid dimensions are not monotone"),
    ):
        checks.append((name, ok, "" if ok else detail))
    K, Kinv = m.action["K"], m.action["Kinv"]
    for name, mat, shift, target in (
        ("grid-move(A)", a_mat, lambda i, j: theta[j], lambda i, j: cell(i + 1, j - 1)),
        ("grid-move(Astar)", astar_mat, lambda i, j: theta_star[i],
         lambda i, j: cell(i - 1, j + 1)),
        ("grid-move(Kinv)", Kinv, lambda i, j: theta_star[i],
         lambda i, j: cell(i - 1, j + 1)),
        ("grid-move(K)", K, lambda i, j: theta[i], lambda i, j: reduce(
            subspace_sum, (cell(i - h, j + h) for h in range(1, i + 1)), zero)),
    ):
        k = reference_first_escape(
            mat, [shift(*c) for c in cells], [grid[c] for c in cells],
            [target(*c) for c in cells])
        checks.append((name, k is None,
                       "" if k is None else "grid move fails at ({},{})".format(*cells[k])))
    return checks


EVAL_6 = evaluation_module(EvalParams(6, 1, F(1)), qparam(2))
GRID_INPUTS = ("plain", "swapped flags", "A-flag twice", "A*-flag twice",
               "mirrored ladder")


@settings(max_examples=40, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)),
       st.sampled_from(GRID_INPUTS))
@example(EVAL_6, None, "plain")
def test_grid_checks_match_the_literal_ledger(m, seed, fed):
    # weight-from-flags and the eight grid checks, derived from direct sums
    # on a passing run, against every cell intersected, on irreducible
    # restrictions and on flags or weight spaces fed in wrongly
    if m.kind != UGEQ0:
        m = restrict_to_ugeq0(m, F(1))
    assume(burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE)
    m = conjugated(m, seed)
    ladder = m.weights
    a_mat, astar_mat = build_a_astar(m, CheckLog())
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, CheckLog())
    mirrored = WeightLadder(ladder.alpha, ladder.diameter, ladder.spaces[::-1])
    weights, grid_flags = {
        "plain": (ladder, (v, vstar)),
        "swapped flags": (ladder, (vstar, v)),
        "A-flag twice": (ladder, (v, v)),
        "A*-flag twice": (ladder, (vstar, vstar)),
        "mirrored ladder": (mirrored, (v, vstar)),
    }[fed]
    log = CheckLog()
    eigen_flags(m, a_mat, astar_mat, weights, log)
    build_w_grid(m, ladder, a_mat, astar_mat, *grid_flags, log)
    ledger = [(c.name, c.passed, c.detail) for c in log.entries if c.name in GRID_CHECKS]
    expected = reference_grid_checks(m, weights, a_mat, astar_mat, (v, vstar), grid_flags)
    assert ledger == expected
    event(fed)
    event("passing" if all(c.passed for c in log.entries) else "failing")


def reference_nears(spaces):
    """S_(i-1) + S_i + S_(i+1) for each i, summed literally by subspace_sum;
    the spaces off either end are left out."""
    return [reduce(subspace_sum, spaces[max(i - 1, 0):i + 2])
            for i in range(len(spaces))]


def reference_split_operator(spaces, eigenvalues, n):
    """reference_projector, or ValueError when the spaces do not decompose
    the space (no operator has them as eigenspaces at distinct eigenvalues)."""
    if sum(s.dim for s in spaces) != n:
        raise ValueError("the split spaces do not fill the space")
    return reference_projector(spaces, eigenvalues, n)


def reference_tridiag_checks(checks):
    """(name, pass, detail) of each tridiagonal check (name, mat, spaces):
    mat(spaces[i]) against the literal reference_nears, by the dense
    reference_first_escape."""
    out = []
    for name, mat, spaces in checks:
        i = reference_first_escape(mat, None, spaces, reference_nears(spaces))
        out.append((name, i is None,
                    "" if i is None else f"containment fails at index {i}"))
    return out


TRIDIAG_INPUTS = ("plain", "A* transposed", "L for A*", "W and W* swapped",
                  "W reversed", "last two W swapped",
                  "U reversed for W*")


@settings(max_examples=40, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)),
       st.sampled_from(TRIDIAG_INPUTS))
@example(EVAL_6, None, "last two W swapped")
@example(EVAL_6, 5, "A* transposed")
@example(EVAL_6, None, "U reversed for W*")
def test_tridiag_checks_match_the_literal_near_sums(m, seed, fed):
    # the four tridiag rows, tested against two cached running sums, against
    # S_(i-1) + S_i + S_(i+1) summed literally, on irreducible restrictions
    # and on an A* that breaks q-Serre or split spaces fed in wrongly. Swapped
    # spaces escape the head sum first; with U reversed for W*, B* is K/alpha,
    # block lower triangular on W (ladder(W):K-head), so it escapes the tail
    # sum only.
    if m.kind != UGEQ0:
        m = restrict_to_ugeq0(m, F(1))
    assume(burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE)
    m = conjugated(m, seed)
    ladder, n, q, d = m.weights, m.dim, m.q, m.weights.diameter
    a_mat, astar_mat = build_a_astar(m, CheckLog())
    astar_mat = {"A* transposed": astar_mat.transpose(),
                 "L for A*": m.action["L"]}.get(fed, astar_mat)
    log = CheckLog()
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, log)
    _, w, wstar = build_w_grid(m, ladder, a_mat, astar_mat, v, vstar, CheckLog())
    w, wstar = w.spaces, wstar.spaces
    if fed == "W and W* swapped":
        w, wstar = wstar, w
    elif fed == "W reversed":
        w = w[::-1]
    elif fed == "last two W swapped":
        w = w[:-2] + w[:-3:-1]
    elif fed == "U reversed for W*":
        wstar = ladder.spaces[::-1]
    expected = reference_tridiag_checks([
        ("tridiag(Astar,V)", astar_mat, v.spaces),
        ("tridiag(A,Vstar)", a_mat, vstar.spaces),
    ])
    b = [q.pow(2 * i - d) for i in range(d + 1)]
    operators, no_graph = [], []
    for check, spaces, values in (("decomposition(W)", w, b),
                                  ("decomposition(Wstar)", wstar, b[::-1])):
        try:
            operators.append(reference_split_operator(spaces, values, n))
        except ValueError:
            no_graph.append(check)
    if no_graph:  # the first split list with no operator names its check
        with pytest.raises(CheckFailedError) as info:
            build_b_bstar(m, ladder, a_mat, astar_mat, v, vstar,
                          Ladder(w), Ladder(wstar), log)
        assert info.value.check == no_graph[0]
        event("split operators raise")
    else:
        b_mat, bstar_mat = operators
        build_b_bstar(m, ladder, a_mat, astar_mat, v, vstar,
                      Ladder(w), Ladder(wstar), log)
        expected += reference_tridiag_checks([
            ("tridiag(B,Wstar)", b_mat, wstar),
            ("tridiag(Bstar,W)", bstar_mat, w),
        ])
    ledger = [(c.name, c.passed, c.detail) for c in log.entries
              if c.name.startswith("tridiag(")]
    assert ledger == expected
    event(fed)
    for _, passed, detail in ledger:
        if not passed:
            event("first escape " + ("at 0" if detail.endswith(" 0") else "above 0"))


def literal_heads(spaces):
    """spaces[0] + ... + spaces[i] for each i, each summed by subspace_sum."""
    return tuple(reduce(subspace_sum, spaces[:i + 1]) for i in range(len(spaces)))


def literal_tails(spaces):
    """spaces[i] + ... + spaces[d] for each i, each summed by subspace_sum."""
    return tuple(reduce(subspace_sum, spaces[i:]) for i in range(len(spaces)))


def reference_decomposition(spaces):
    """The failure detail of decomposition(...) from literal prefix sums, or
    "" when the spaces are nonzero, independent and fill the space."""
    if any(s.dim == 0 for s in spaces):
        return "a component is zero"
    size = 0
    for i, (s, running) in enumerate(zip(spaces, literal_heads(spaces))):
        size += s.dim
        if running.dim != size:
            return f"component {i} overlaps the preceding sum"
    n = spaces[0].ambient_dim
    return "" if size == n else f"components span dimension {size} of {n}"


def reference_sum_checks(weights, v, vstar, grid_v, grid_vstar):
    """(name, pass, detail) of the two flag matches on the flag spaces v and
    vstar, and of decomposition(W), decomposition(Wstar) and the four
    sum(...) checks on W and W* intersected from the flags grid_v and
    grid_vstar, with every running sum built literally."""
    u, d = weights.spaces, weights.diameter
    checks = []
    for name, ok, detail in (
        ("flag-tail-match", literal_tails(u) == literal_tails(v),
         "suffix sums of the A-flag do not match the weight-space suffix sums"),
        ("flag-head-match", literal_heads(u) == literal_heads(vstar),
         "prefix sums of the A*-flag do not match the weight-space prefix sums"),
    ):
        checks.append((name, ok, "" if ok else detail))
    v_head, v_tail = literal_heads(grid_v), literal_tails(grid_v)
    star_head, star_tail = literal_heads(grid_vstar), literal_tails(grid_vstar)
    w = [subspace_intersect(star_head[i], v_head[d - i]) for i in range(d + 1)]
    wstar = [subspace_intersect(star_tail[d - i], v_tail[i]) for i in range(d + 1)]
    for name, spaces in (("decomposition(W)", w), ("decomposition(Wstar)", wstar)):
        detail = reference_decomposition(spaces)
        checks.append((name, not detail, detail))
    for name, ok, detail in (
        ("sum(W-tail)", literal_tails(w) == v_head[::-1],
         "suffix sums of W do not match prefix sums of the A-flag"),
        ("sum(W-head)", literal_heads(w) == star_head,
         "prefix sums of W do not match prefix sums of the A*-flag"),
        ("sum(Wstar-tail)", literal_tails(wstar) == v_tail,
         "suffix sums of W* do not match suffix sums of the A-flag"),
        ("sum(Wstar-head)", literal_heads(wstar) == star_tail[::-1],
         "prefix sums of W* do not match suffix sums of the A*-flag"),
    ):
        checks.append((name, ok, "" if ok else detail))
    return checks


SUM_CHECKS = ("flag-tail-match", "flag-head-match",
              "decomposition(W)", "decomposition(Wstar)",
              "sum(W-tail)", "sum(W-head)", "sum(Wstar-tail)", "sum(Wstar-head)")
CERTIFIED_SUM_INPUTS = GRID_INPUTS + ("A-flag escapes U", "W component zeroed",
                                      "W component repeated")


@settings(max_examples=40, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)),
       st.sampled_from(CERTIFIED_SUM_INPUTS))
@example(EVAL_6, None, "plain")
@example(EVAL_6, 3, "plain")
@example(EVAL_6, None, "W component repeated")
@example(EVAL_6, 3, "W component repeated")
def test_certified_sums_match_the_running_sums(m, seed, fed):
    # The flag matches, both decompositions and the four sum checks, decided
    # by containment plus dimension when the spaces are certified direct,
    # against every running sum built literally; and every head and tail
    # sum the ladders hand out, certified or not, is the literal one. With
    # the A-flag of A^T the flag escapes U; a zeroed or repeated component
    # leaves W undecided, so its sums are built.
    if m.kind != UGEQ0:
        m = restrict_to_ugeq0(m, F(1))
    assume(burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE)
    m = conjugated(m, seed)
    ladder = m.weights
    a_mat, astar_mat = build_a_astar(m, CheckLog())
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, CheckLog())
    _, w, _ = build_w_grid(m, ladder, a_mat, astar_mat, v, vstar, CheckLog())
    weights = (WeightLadder(ladder.alpha, ladder.diameter, ladder.spaces[::-1])
               if fed == "mirrored ladder" else ladder)
    flag_a = a_mat.transpose() if fed == "A-flag escapes U" else a_mat
    log = CheckLog()
    v, vstar = eigen_flags(m, flag_a, astar_mat, weights, log)
    repeated = (w.spaces[0],) + w.spaces[:1] + w.spaces[2:]
    grid_flags = {
        "swapped flags": (vstar, v),
        "A-flag twice": (v, v),
        "A*-flag twice": (vstar, vstar),
        "W component zeroed": (v, Ladder((Subspace.zero(m.dim),) + vstar.spaces[1:])),
        "W component repeated": (Ladder(repeated[::-1]), Ladder(repeated)),
    }.get(fed, (v, vstar))
    _, w, wstar = build_w_grid(m, ladder, a_mat, astar_mat, *grid_flags, log)
    ledger = [(c.name, c.passed, c.detail) for c in log.entries if c.name in SUM_CHECKS]
    expected = reference_sum_checks(
        weights, v.spaces, vstar.spaces, grid_flags[0].spaces, grid_flags[1].spaces)
    assert ledger == expected
    for handed_out in (v, vstar, w, wstar):
        assert handed_out.head == literal_heads(handed_out.spaces)
        assert handed_out.tail == literal_tails(handed_out.spaces)
    event(fed)
    event("passing" if all(passed for _, passed, _ in ledger) else "failing")


@settings(max_examples=30, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)))
@example(restrict_to_ugeq0(tensor_product(
    evaluation_module(EvalParams(2, 1, F(1)), qparam(F(3, 2))),
    evaluation_module(EvalParams(3, 1, F(3)), qparam(F(3, 2))),
), F(-2, 3)), None)
def test_split_operators_are_block_triangular_on_the_weight_ladder(m, seed):
    # B - K/alpha maps U_i into U_0 + ... + U_(i-1), and B* - alpha K^-1 maps
    # it into U_(i+1) + ... + U_d: the diagonal blocks of B, B* against the
    # weight ladder are those of K/alpha, alpha K^-1
    if m.kind != UGEQ0:
        m = restrict_to_ugeq0(m, F(1))
    assume(burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE)
    m = conjugated(m, seed)
    _, trace = extend(m, 1, 1)
    alpha, u, n = trace.alpha, trace.weight_spaces, m.dim
    zero = Subspace.zero(n)
    lower = trace.b_mat - m.action["K"].scale(1 / alpha)
    upper = trace.bstar_mat - m.action["Kinv"].scale(alpha)
    for i, space in enumerate(u):
        below = reduce(subspace_sum, u[:i], zero)
        above = reduce(subspace_sum, u[i + 1:], zero)
        assert reference_contains(below, image(lower, space)), i
        assert reference_contains(above, image(upper, space)), i
    event(f"diameter {trace.diameter}")
    event("B - K/alpha nonzero" if lower != Matrix.zero(n, n) else "B = K/alpha")


@st.composite
def triangular_matrices(draw):
    """A diagonal, upper or lower triangular matrix, dim <= 4, whose diagonal
    entries come from a pool of at most three values (so they repeat),
    with zero and the hard fractions among the candidates."""
    n = draw(st.integers(min_value=0, max_value=4))
    entry = st.one_of(st.just(F(0)), hard_fractions, fractions)
    pool = draw(st.lists(entry, min_size=1, max_size=3))
    diagonal = [draw(st.sampled_from(pool)) for _ in range(n)]
    shape = draw(st.sampled_from(["diagonal", "upper", "lower"]))
    off = {"diagonal": lambda i, j: False, "upper": lambda i, j: j > i,
           "lower": lambda i, j: j < i}[shape]
    rows = [[diagonal[i] if i == j else draw(entry) if off(i, j) else F(0)
             for j in range(n)] for i in range(n)]
    event(shape)
    return Matrix.from_entries(n, n, [x for row in rows for x in row]), diagonal


@settings(max_examples=100, deadline=None)
@given(triangular_matrices(), st.integers(0, 2**16))
def test_eigenvalues_match_characteristic_roots(case, seed):
    # the sorted diagonal of a triangular matrix, and the general path on the
    # same matrix conjugated by unit_lu, both equal the roots of char_poly
    m, diagonal = case
    assert eigenvalues(m) == rational_roots(char_poly(m)) == sorted(diagonal)
    p = unit_lu(m.rows, seed)
    dense = p.inverse() @ m @ p
    assert eigenvalues(dense) == rational_roots(char_poly(dense)) == sorted(diagonal)


@settings(max_examples=150, deadline=None)
@given(triangular_matrices(), st.data())
def test_diagonal_kernels_match_the_elimination(case, data):
    # kernels of a diagonal matrix are read off its diagonal; they must equal
    # _null_space's on the same input, entry for entry and in pivot order,
    # for shifts on the diagonal (repeated, zero, negative) and off it
    m, diagonal = case
    n = m.rows
    off = any(m.at(i, j) for i in range(n) for j in range(n) if i != j)
    assert m.diagonal_entries == (None if off else tuple(diagonal))
    event("off-diagonal entries" if off else "no off-diagonal entry")
    shift = data.draw(st.one_of(st.sampled_from(diagonal + [F(0)]), wide_fractions))
    event("shift on the diagonal" if shift in diagonal else "shift off the diagonal")
    for got, rows, size in ((kernel(m, shift), m.int_rows, m.cols),
                            (left_kernel(m, shift), m.int_cols, m.rows)):
        expected = linalg._null_space(m, rows, size, shift)
        assert list(got.pivot_rows.items()) == list(expected.pivot_rows.items())


@st.composite
def coordinate_cases(draw):
    """A span of some coordinate vectors, or of the same columns of unit_lu
    (a dense span), with a vector and an operator that often stay inside it:
    a combination of its spanning vectors, perhaps plus a unit vector, and P
    D P^-1 for a diagonal D, perhaps plus one entry, shifted by an entry of
    D, 0 or a fraction. The support may be empty or everything."""
    n = draw(st.integers(min_value=1, max_value=5))
    support = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    seed = draw(st.none() | st.integers(0, 2**16))
    p = Matrix.identity(n) if seed is None else unit_lu(n, seed)
    target = span(n, [matrix_column(p, j) for j in support])
    inner = sorted(draw(st.sets(st.sampled_from(support)))) if support else []
    space = span(n, [matrix_column(p, j) for j in inner])
    if draw(st.booleans()):
        space = span(n, [[draw(fractions) for _ in range(n)]])
    entry = st.one_of(st.just(F(0)), fractions)
    diagonal = [draw(entry) for _ in range(n)]
    op = p @ Matrix.diagonal(diagonal) @ p.inverse()
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = op + Matrix.from_sparse(n, n, [{j: F(1)} if k == i else {} for k in range(n)])
    shift = draw(st.one_of(st.sampled_from(diagonal), st.just(F(0)), fractions))
    w = [F(0)] * n
    for j in support:
        c = draw(fractions)
        w = [x + c * y for x, y in zip(w, matrix_column(p, j))]
    if draw(st.booleans()):
        w[draw(st.integers(0, n - 1))] += draw(fractions)
    event("coordinate" if seed is None else "conjugated")
    return target, space, op, shift, w


@settings(max_examples=200, deadline=None)
@given(coordinate_cases())
def test_coordinate_containment_matches_a_rank_test(case):
    # a coordinate span decides containment by support, and the whole space
    # holds every image; both must agree with w in S <=> dim(S + w) = dim S
    target, space, op, shift, w = case
    n = target.ambient_dim
    units = all(sum(map(bool, row)) == 1
                for row in reference_rref(matrix_columns(target.basis)))
    assert target.is_coordinate == units

    def inside(vectors):
        return len(reference_rref(matrix_columns(target.basis) + vectors)) == target.dim

    expected = inside([w])
    event("w contained" if expected else "w escapes")
    assert target.contains(span(n, [w])) == expected
    moved = matrix_columns(op.shift(shift) @ space.basis)
    expected = inside(moved)
    event("image contained" if expected else "image escapes")
    assert target.contains_image(op, space, shift) == expected


@st.composite
def formal_sums(draw):
    """A formal sum over X, Y, Z with square matrices of one size assigned.
    Terms pick their words from a small pool, so words repeat (sometimes
    with cancelling coefficients), and the empty word is always in the pool."""
    n = draw(st.integers(min_value=1, max_value=3))
    square = st.lists(fractions, min_size=n * n, max_size=n * n)
    assignment = {g: Matrix.from_entries(n, n, tuple(draw(square))) for g in "XYZ"}
    letters = st.sampled_from("XYZ")
    pool = [()] + draw(
        st.lists(st.lists(letters, max_size=4).map(tuple), min_size=1, max_size=5)
    )
    words = draw(
        st.lists(st.tuples(fractions, st.sampled_from(pool)), min_size=1, max_size=8)
    )
    return tuple(words), assignment


@settings(max_examples=80, deadline=None)
@given(formal_sums())
def test_prefix_sharing_evaluation_matches_naive(case):
    words, assignment = case
    assert evaluate_word(words, assignment) == naive_evaluate(words, assignment)


@st.composite
def planned_sums(draw):
    """(lhs, rhs, assignment): formal sums over X, Y, Z, whose matrices are
    scaled by different rationals so that their `den` differ. Words of
    length 0-6 are drawn, and more are glued from a pool of halves, so halves
    repeat across words; words repeat, and some cancel in lhs - rhs."""
    n = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(mostly_zero, fractions)
    assignment = {
        g: Matrix.from_entries(n, n, tuple(
            scale * v for v in draw(st.lists(entry, min_size=n * n, max_size=n * n))
        ))
        for g, scale in zip("XYZ", (F(1), F(2, 5), F(3, 7)))
    }
    word = st.lists(st.sampled_from("XYZ"), max_size=6).map(tuple)
    halves = draw(st.lists(st.lists(st.sampled_from("XYZ"), min_size=1, max_size=3)
                           .map(tuple), min_size=1, max_size=3))
    glued = st.tuples(st.sampled_from(halves), st.sampled_from(halves)).map(
        lambda pair: pair[0] + pair[1]
    )
    pool = [()] + draw(st.lists(st.one_of(word, glued), min_size=1, max_size=6))
    terms = st.lists(st.tuples(wide_fractions, st.sampled_from(pool)), max_size=6)
    lhs, rhs = draw(terms), draw(terms)
    for coeff, w in draw(st.lists(st.sampled_from(lhs), max_size=2)) if lhs else []:
        rhs.append((coeff, w))  # cancels against its lhs copy
    assume(lhs or rhs)
    return tuple(lhs), tuple(rhs), assignment


@settings(max_examples=120, deadline=None)
@given(planned_sums())
def test_compiled_evaluation_matches_naive(case):
    lhs, rhs, assignment = case
    relation = RelationWord("r", lhs, rhs)
    difference = lhs + tuple((-c, w) for c, w in rhs)
    expected = naive_evaluate(difference, assignment)
    bound = bind_relations([relation])
    plan, (sum_,), (coefficients,) = bound.plan, bound.plan.sums, bound.coefficients
    assert bind_relations([relation]).plan is plan
    # one product per distinct half, every product used by a later one or a word
    assert len(set(plan.halves)) == len(plan.halves)
    used = {k for pair in plan.halves for k in pair}
    used |= {k for _, left, right in sum_ for k in (left, right) if k is not None}
    assert used >= set(range(len(plan.letters) + len(plan.halves)))
    assert len({w for w, _, _ in sum_}) == len(sum_) == len(coefficients)
    assert all(numerator for numerator, _ in coefficients)
    (got,) = evaluate_word(bound, assignment)
    event("zero residual" if got.is_zero() else "nonzero residual")
    assert got == expected == evaluate_word(difference, assignment)
    assert_exact_equal(got, expected)
    log, reference = CheckLog(), CheckLog()
    check_relations(log, "test", [relation], assignment)
    reference.matrix_zero("r", "test", expected)
    assert log.entries == reference.entries


def test_relation_plans_share_halves_and_fuse_the_last_product(q2):
    # x^3 y, x^2 y x, x y x^2, y x^3 split into the halves xx, xy, yx and
    # four fused products; k e k^-1 into e k^-1 and one fused product
    def products(relation):
        plan = bind_relations([relation]).plan
        return len(plan.halves), sum(right is not None for *_, right in plan.sums[0])

    assert products(q_serre("x", "y", q2)) == (3, 4)
    weights = [r for r in relations_for(AFFINE_FULL, q2) if r.name.startswith("weight")]
    assert len(weights) == 8
    assert {products(r) for r in weights} == {(1, 1)}
    unit, = (r for r in relations_for(UGEQ0, q2) if r.name == "unit(K Kinv)")
    assert products(unit) == (0, 1)
    bound = bind_relations([unit])
    assert (bound.coefficients[0][-1], bound.plan.sums[0][-1][0]) == ((-1, 1), ())


@st.composite
def relation_lists(draw):
    """(relations, the same relations at another alpha, assignment): one to
    four relations over X, Y, Z whose words come from one pool, part of
    them glued from a pool of halves, so words and halves repeat within and
    across relations. Some words repeat with cancelling coefficients, so
    their merged coefficient is 0. Each relation of the second list has the
    first's coefficients times a nonzero factor of its own: the same words,
    so the same shape, with other coefficients."""
    n = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(mostly_zero, fractions)
    assignment = {
        g: Matrix.from_entries(n, n, tuple(
            scale * v for v in draw(st.lists(entry, min_size=n * n, max_size=n * n))
        ))
        for g, scale in zip("XYZ", (F(1), F(2, 5), F(3, 7)))
    }
    word = st.lists(st.sampled_from("XYZ"), max_size=5).map(tuple)
    halves = draw(st.lists(st.lists(st.sampled_from("XYZ"), min_size=1, max_size=3)
                           .map(tuple), min_size=1, max_size=3))
    glued = st.tuples(st.sampled_from(halves), st.sampled_from(halves)).map(
        lambda pair: pair[0] + pair[1]
    )
    pool = [()] + draw(st.lists(st.one_of(word, glued), min_size=1, max_size=6))
    terms = st.lists(st.tuples(wide_fractions, st.sampled_from(pool)), max_size=5)
    first, second = [], []
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        lhs, rhs = draw(terms), draw(terms)
        for coeff, w in draw(st.lists(st.sampled_from(lhs), max_size=2)) if lhs else []:
            rhs.append((coeff, w))  # cancels against its lhs copy
        factor = draw(st.sampled_from([F(2), F(-3, 7), F(5, 2**31 - 1)]))
        first.append(RelationWord(f"r{k}", tuple(lhs), tuple(rhs)))
        second.append(RelationWord(f"r{k}", *(tuple((factor * c, w) for c, w in side)
                                               for side in (lhs, rhs))))
    return first, second, assignment


@settings(max_examples=120, deadline=None)
@given(relation_lists())
def test_list_program_matches_naive_relation_by_relation(case):
    # one program per list shape, each half product made once for the whole
    # list, and one exact residual per relation; the second list hits the
    # first's plan and must be evaluated with its own coefficients
    first, second, assignment = case
    plan = bind_relations(first).plan
    assert bind_relations(second).plan is plan
    assert len(set(plan.halves)) == len(plan.halves)
    if len(plan.halves) < sum(len(bind_relations([rel]).plan.halves) for rel in first):
        event("a half shared across relations")
    for relations in (first, second):
        expected = [naive_evaluate(rel.difference, assignment) for rel in relations]
        got = evaluate_word(bind_relations(relations), assignment)
        assert len(got) == len(relations)
        for residual, reference in zip(got, expected):
            assert_exact_equal(residual, reference)
        for rel in relations:
            if len(rel.merged[0]) < len({w for _, w in rel.difference}):
                event("a zero merged coefficient")
        event("a nonzero residual" if any(not r.is_zero() for r in got)
              else "all residuals zero")
        log, reference_log = CheckLog(), CheckLog()
        check_relations(log, "test", relations, assignment)
        for rel, residual in zip(relations, expected):
            reference_log.matrix_zero(rel.name, "test", residual)
        assert log.entries == reference_log.entries


SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
EVALUATED_OUTPUT_RELATIONS = [
    "commute(K0,K1)", "weight(K1,e1p)", "weight(K1,e1m)", "weight(K1,e0p)", "weight(K1,e0m)",
]
# The sign, as a function of the type (eps0, eps1), of each output relation
# extend derives, times its source's residual: the lemma in the extension
# module docstring. Its rows of `_PREMISES` carry no sign, since only a
# passing source, a zero residual, derives anything.
OUTPUT_SIGNS = {
    "unit(K0 K0inv)": lambda e0, e1: 1,
    "unit(K0inv K0)": lambda e0, e1: 1,
    "unit(K1 K1inv)": lambda e0, e1: 1,
    "unit(K1inv K1)": lambda e0, e1: 1,
    "weight(K0,e0p)": lambda e0, e1: 1,
    "weight(K0,e1p)": lambda e0, e1: 1,
    "serre(e0p,e1p)": lambda e0, e1: 1,
    "serre(e1p,e0p)": lambda e0, e1: 1,
    "weight(K0,e0m)": lambda e0, e1: e0,
    "weight(K0,e1m)": lambda e0, e1: e1,
    "bracket(e0p,e0m)": lambda e0, e1: -e0,
    "bracket(e1p,e1m)": lambda e0, e1: -e1,
    "commute(e0p,e1m)": lambda e0, e1: -e1,
    "commute(e0m,e1p)": lambda e0, e1: e0,
    "serre(e0m,e1m)": lambda e0, e1: e0 * e1,
    "serre(e1m,e0m)": lambda e0, e1: e0 * e1,
}


@st.composite
def lowering_inputs(draw):
    """R, L, K, Kinv, r and l: square matrices of dim 2 or 3 with nonzero
    entries, which satisfy none of the relations, at a drawn q and alpha."""
    n = draw(st.integers(min_value=2, max_value=3))
    nonzero = st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 5]),
                        st.integers(min_value=1, max_value=3))
    action = {g: Matrix.from_entries(n, n, tuple(draw(st.lists(
        nonzero, min_size=n * n, max_size=n * n)))) for g in ("R", "L", "K", "Kinv", "r", "l")}
    q = qparam(draw(st.sampled_from([F(2), F(3, 2), F(-1, 3)])))
    alpha = draw(st.sampled_from([F(1), F(3), F(-2, 7), F(-5, 3)]))
    return action, q, alpha


@settings(max_examples=40, deadline=None)
@given(lowering_inputs())
def test_output_copies_are_a_sign_times_their_source(case):
    # on matrices where no relation holds, each of the 16 output relations
    # that extend derives has, literally, its sign times its source's
    # residual (its one premise in `_PREMISES`) on the assembled action, for
    # every type; the other 5 are evaluated
    action, q, alpha = case
    sources = {**{rel.name: rel for rel in relations_for(UGEQ0, q)},
               **{rel.name: rel for rel in _lowering_relations(q, alpha)}}
    output = {rel.name: rel for rel in relations_for(AFFINE_FULL, q)}
    assert set(OUTPUT_SIGNS) == {name for name in _PREMISES if name in output}
    assert [name for name in output if name not in OUTPUT_SIGNS] == EVALUATED_OUTPUT_RELATIONS
    residuals = {name: evaluate_word(sources[_PREMISES[name][0]].difference, action)
                 for name in OUTPUT_SIGNS}
    assume(not any(residual.is_zero() for residual in residuals.values()))
    for eps0, eps1 in SIGN_PAIRS:
        full = assemble(action, action["r"], action["l"], alpha, F(eps0), F(eps1))
        for name, sign in OUTPUT_SIGNS.items():
            assert len(_PREMISES[name]) == 1
            got = evaluate_word(output[name].difference, full)
            assert_exact_equal(got, sign(eps0, eps1) * residuals[name])


@settings(max_examples=25, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)),
       st.sampled_from([F(1), F(-2, 7)]))
def test_output_report_with_copies_matches_the_literal_check(m, seed, alpha):
    # the assembled module's report, 16 of its entries derived, against
    # every relation evaluated on its matrices, for each of the four types,
    # in the standard basis and conjugated into a dense one
    m = conjugated(m, seed)
    r = m if m.kind == UGEQ0 else restrict_to_ugeq0(m, alpha)
    assume(burnside_irreducible(r).verdict == ABSOLUTELY_IRREDUCIBLE)
    output = {rel.name for rel in relations_for(AFFINE_FULL, r.q)}
    for eps0, eps1 in SIGN_PAIRS:
        full, trace = extend(r, eps0, eps1)
        passed = {c.name for c in r.relations.entries + trace.checks if c.passed}
        assert len(derivable(_PREMISES, passed) & output) == 16
        literal = check_presentation(AFFINE_FULL, replace(full))
        assert full.relations.to_dict() == literal.to_dict()
        assert full.relations.text_table() == literal.text_table()
        assert [c.name for c in full.relations.entries] == [
            rel.name for rel in relations_for(AFFINE_FULL, full.q)]


@settings(max_examples=25, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)),
       st.sampled_from(SIGN_PAIRS), st.sampled_from([F(1), F(3), F(-2, 7), F(-5, 3)]))
def test_derived_moves_hold_literally(m, seed, signs, alpha):
    # every move extend derives from checks already passed (`_PREMISES`)
    # holds: first_escape on the run's own operator, shifts, spaces and
    # targets finds no escape; and the stages handed no premises log the
    # same checks as extend. In the standard basis and conjugated into a
    # dense one, twisted to each of the four types, at drawn alpha.
    m = conjugated(m, seed)
    if m.kind != UGEQ0:
        m = restrict_to_ugeq0(twist_full(m, *signs), alpha)
    assume(burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE)
    derived = []

    def recorded(log, anchor, moves, names=frozenset(), **detail):
        derived.extend(move for move in moves if move[0] in names)
        return _moves_into(log, anchor, moves, names, **detail)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qaffine.extension, "_moves_into", recorded)
        _, trace = extend(m, *signs)
    moves = [name for name in _PREMISES if name.startswith(("move", "tridiag", "ladder"))]
    assert len(moves) == 20 and sorted(move[0] for move in derived) == sorted(moves)
    for name, mat, shifts, spaces, targets in derived:
        for target in targets():
            assert first_escape(mat, shifts, spaces, target) is None, name
    log = CheckLog(strict=True)
    ladder = m.weights
    a_mat, astar_mat = build_a_astar(m, log)
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, log)
    _, w, wstar = build_w_grid(m, ladder, a_mat, astar_mat, v, vstar, log)
    build_b_bstar(m, ladder, a_mat, astar_mat, v, vstar, w, wstar, log)
    assert trace.checks[1:1 + len(log.entries)] == log.entries
    event(f"diameter {trace.diameter}")


def audited_run(m, signs, alpha):
    """restrict_to_ugeq0 (when m is full, twisted to the type signs, with
    its report at hand, as when read from a file) and extend of a fresh copy
    of m: the restriction's report, extend's ledger, its output matrices and
    the output's relation report, or the error that stopped the run."""
    m = replace(m)
    if m.kind == AFFINE_FULL:
        m = twist_full(m, *signs)
        m.relations
        m = restrict_to_ugeq0(m, alpha)
    run = [[c.to_dict() for c in m.relations.entries]]
    try:
        full, trace = extend(m, *signs)
    except QAffineError as err:
        return run + [(type(err).__name__, str(err))]
    return run + [[c.to_dict() for c in trace.checks], full.action, full.relations.to_dict()]


@settings(max_examples=40, deadline=None)
@given(small_eval_tensors(), st.one_of(st.none(), st.integers(0, 2**16)),
       st.sampled_from(SIGN_PAIRS), st.sampled_from([F(1), F(3), F(-2, 7), F(-5, 3)]))
def test_literal_tables_match_the_default_run(m, seed, signs, alpha):
    # with both derivation tables emptied nothing is derived, and every
    # check is evaluated by its definition: the restriction's report,
    # extend's ledger (name, anchor, verdict, residual entries and detail of
    # each entry), its output matrices and relation report are the default
    # run's. In the standard basis and conjugated into a dense one, twisted
    # to each of the four types, at drawn alpha; reducible input stops both
    # runs with the same error.
    m = conjugated(m, seed)
    runs = []
    for tables in (nullcontext, literal_tables):
        with tables():
            runs.append(audited_run(m, signs, alpha))
    assert runs[0] == runs[1]
    event("extended" if len(runs[0]) == 4 else "stopped")


@st.composite
def coordinate_moves(draw):
    """An operator of mostly zero entries whose diagonal comes from a pool
    of at most three values, a ladder of coordinate spaces (none, some or
    all of the unit vectors), two lists of coordinate targets (zero, whole
    or drawn), and shifts None or drawn from the pool (on the diagonal), 0
    and fractions (mostly off it)."""
    n = draw(st.integers(min_value=1, max_value=5))
    pool = draw(st.lists(st.one_of(st.just(F(0)), fractions), min_size=1, max_size=3))
    op = Matrix.from_rows([
        [draw(st.sampled_from(pool)) if i == j else draw(mostly_zero) for j in range(n)]
        for i in range(n)
    ])
    length = draw(st.integers(min_value=1, max_value=4))

    def coordinate():
        units = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        return Subspace(n, {i: {i: 1} for i in sorted(units)})

    def target():
        kind = draw(st.sampled_from(["zero", "full", "drawn", "drawn"]))
        return {"zero": lambda: Subspace.zero(n), "full": lambda: full_space(n),
                "drawn": coordinate}[kind]()

    spaces = [coordinate() for _ in range(length)]
    targets = [[target() for _ in range(length)] for _ in range(2)]
    shift = st.one_of(st.sampled_from(pool), st.just(F(0)), wide_fractions)
    shifts = draw(st.none() | st.lists(shift, min_size=length, max_size=length))
    return op, shifts, spaces, targets


@settings(max_examples=200, deadline=None)
@given(coordinate_moves())
def test_coordinate_moves_match_the_image_columns(case):
    # the scan of op's integer columns at the source pivots must agree with
    # forming the image columns and testing each one, per target, and so
    # must the first escape index, for one target list and for two
    op, shifts, spaces, targets = case

    def inside(target, i):
        shift = F(0) if shifts is None else shifts[i]
        columns = linalg._image_columns(op, spaces[i], shift)
        return all(target._holds(w) for w in columns)

    for i, space in enumerate(spaces):
        shift = F(0) if shifts is None else shifts[i]
        if shift and any(shift == op.at(k, k) for k in space.pivot_rows):
            event("shift on the diagonal")
        for t in targets:
            expected = inside(t[i], i)
            event("contained" if expected else "escapes")
            assert linalg._coordinate_move(op, space, shift, t[i]) == expected
            assert t[i].contains_image(op, space, shift) == expected

    def reference(lists):
        return next((i for i in range(len(spaces))
                     if not all(inside(t[i], i) for t in lists)), None)

    expected = reference(targets[:1])
    assert first_escape(op, shifts, spaces, targets[0]) == expected
    assert expected == reference_first_escape(op, shifts, spaces, targets[0])
    both = reference(targets)
    event("no escape" if both is None else f"first escape at {both}")
    assert first_escape(op, shifts, spaces, tuple(zip(*targets))) == both


# -- sparse products against dense references -----------------------------------

mostly_zero = st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), fractions)


def dense_product(a, b):
    """Every entry as the full sum over the inner index, zeros included."""
    return Matrix.from_entries(a.rows, b.cols, tuple(
        sum((a.at(i, t) * b.at(t, j) for t in range(a.cols)), F(0))
        for i in range(a.rows)
        for j in range(b.cols)
    ))


def dense_evaluate(words, assignment):
    """Each term multiplied out from the identity, summed entry by entry."""
    n = next(iter(assignment.values())).rows
    total = [F(0)] * (n * n)
    for coeff, word in words:
        product = Matrix.identity(n)
        for gen in word:
            product = dense_product(product, assignment[gen])
        total = [t + coeff * v for t, v in zip(total, product.entries)]
    return Matrix.from_entries(n, n, tuple(total))


def assert_exact_equal(got, expected):
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert got.entries == expected.entries
    assert all(type(v) is F for v in got.entries)


@st.composite
def product_pairs(draw):
    """Rectangular factors of mostly zero rationals, 0 rows and 0 columns
    allowed; sometimes the right factor is built from the left's kernel, so
    the whole product cancels to zero."""
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a = Matrix.from_entries(rows, inner, tuple(draw(st.lists(
        mostly_zero, min_size=rows * inner, max_size=rows * inner
    ))))
    null = kernel(a)
    if null.dim and draw(st.booleans()):
        coeffs = [[draw(fractions) for _ in range(null.dim)] for _ in range(cols)]
        b = from_columns(inner, [matrix_apply(null.basis, c) for c in coeffs])
    else:
        b = Matrix.from_entries(inner, cols, tuple(draw(st.lists(
            mostly_zero, min_size=inner * cols, max_size=inner * cols
        ))))
    return a, b


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_sparse_matmul_matches_dense_product(pair):
    a, b = pair
    product = a @ b
    event("zero product" if product.is_zero() else "nonzero product")
    assert_exact_equal(product, dense_product(a, b))


@st.composite
def cancelling_sums(draw):
    """Formal sums over mostly zero matrices: N is strictly upper triangular,
    so N^n = 0, and Y = X^2 + cX commutes with X, so XY - YX = 0. Words
    repeat, some with coefficients that sum to zero, and the pool always
    holds the empty word. Entries and coefficients sometimes have large
    coprime denominators."""
    n = draw(st.integers(min_value=1, max_value=4))
    coefficient = draw(st.sampled_from([fractions, wide_fractions]))
    entry = draw(st.sampled_from([mostly_zero, st.one_of(mostly_zero, hard_fractions)]))
    x = Matrix.from_entries(n, n, tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n))))
    y = x @ x + draw(coefficient) * x
    upper = [
        draw(entry) if j > i else F(0) for i in range(n) for j in range(n)
    ]
    assignment = {"N": Matrix.from_entries(n, n, tuple(upper)), "X": x, "Y": y}
    pool = [(), ("N",) * n, ("X", "Y"), ("Y", "X")] + draw(
        st.lists(st.lists(st.sampled_from("NXY"), max_size=4).map(tuple), max_size=4)
    )
    words = draw(
        st.lists(st.tuples(coefficient, st.sampled_from(pool)), min_size=1, max_size=8)
    )
    c = draw(coefficient)
    cancelling = [(c, ("X", "Y")), (-c, ("Y", "X"))]
    for coeff, word in draw(st.lists(st.sampled_from(words), max_size=3)):
        cancelling += [(coeff, word), (-coeff, word)]
    terms = draw(st.permutations(words + cancelling))
    return tuple(terms), assignment


BIG, TINY = F(2**61 - 1, 3), F(-7, 1000003)
HARD_X = Matrix.from_rows([[BIG, 0], [TINY, 1]])
HARD_Y = Matrix.from_rows([[F(5, 2**31 - 1), -1], [0, TINY]])


@settings(max_examples=150, deadline=None)
@given(cancelling_sums())
@example((((TINY, ("X", "Y")), (BIG, ("Y",)), (F(-1, 3), ()), (F(1), ("Y", "X", "X"))),
          {"X": HARD_X, "Y": HARD_Y}))
@example((((TINY, ("X",)), (-TINY, ("X",)), (BIG, ("X", "Y")), (-BIG, ("X", "Y"))),
          {"X": HARD_X, "Y": HARD_Y}))
def test_sparse_evaluation_matches_dense_reference(case):
    words, assignment = case
    got = evaluate_word(words, assignment)
    event("zero residual" if got.is_zero() else "nonzero residual")
    assert_exact_equal(got, dense_evaluate(words, assignment))


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


# -- the one sparse format against dense references ------------------------------


@st.composite
def dense_pairs(draw):
    """(cols, a, b): two lists of rows of mostly zero rationals, cols entries
    each, 0 rows and 0 columns allowed, some rows all zero; b is sometimes
    a, its negative or a multiple of it, so sums and differences cancel."""
    rows = draw(st.integers(min_value=0, max_value=5))
    square = draw(st.booleans())
    cols = rows if square else draw(st.integers(min_value=0, max_value=5))

    def dense():
        return [
            [F(0)] * cols if draw(st.integers(min_value=0, max_value=3)) == 0
            else draw(st.lists(mostly_zero, min_size=cols, max_size=cols))
            for _ in range(rows)
        ]

    a = dense()
    kind = draw(st.sampled_from(["fresh", "same", "negated", "scaled"]))
    if kind == "fresh":
        b = dense()
    else:
        c = {"same": F(1), "negated": F(-1), "scaled": draw(fractions)}[kind]
        b = [[c * x for x in row] for row in a]
    return cols, a, b


def flat(dense):
    return [x for row in dense for x in row]


def columns_of(dense, cols):
    return [[row[j] for row in dense] for j in range(cols)]


def canonical(dense):
    """The nonzero rows a dense list of rows must be stored as."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in dense)


def assert_canonical(m):
    assert len(m.sparse_rows) == m.rows
    for row in m.sparse_rows:
        columns = [j for j, _ in row]
        assert all(0 <= a < b < m.cols for a, b in zip(columns, columns[1:]))
        assert all(0 <= j < m.cols for j in columns)
        assert all(type(v) is F and v != 0 for _, v in row)


@settings(max_examples=150, deadline=None)
@given(dense_pairs())
def test_constructors_and_views_match_dense(case):
    cols, dense, _ = case
    rows = len(dense)
    built = [
        Matrix.from_entries(rows, cols, flat(dense)),
        from_columns(rows, columns_of(dense, cols)),
    ]
    if rows:
        built.append(Matrix.from_rows(dense))
    m = built[0]
    for other in built:
        assert (other.rows, other.cols) == (rows, cols)
        assert other.sparse_rows == canonical(dense)
        assert_canonical(other)
        assert other == m and hash(other) == hash(m)
    assert m.entries == tuple(flat(dense))
    assert all(type(x) is F for x in m.entries)
    assert m.to_rows() == dense
    for i in range(rows):
        assert m.row(i) == tuple(dense[i])
        assert [m.at(i, j) for j in range(cols)] == dense[i]
    assert matrix_columns(m) == [tuple(c) for c in columns_of(dense, cols)]
    assert [matrix_column(m, j) for j in range(cols)] == matrix_columns(m)
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t.sparse_rows == canonical(columns_of(dense, cols))
    assert_canonical(t)
    assert t.transpose() == m
    scaled = [[m.den * x for x in row] for row in dense]
    assert m.int_cols == t.int_rows == canonical(columns_of(scaled, cols))
    assert all(type(v) is int for column in m.int_cols for _, v in column)
    assert m.is_zero() == (not any(flat(dense)))
    event("zero" if m.is_zero() else "nonzero")


@settings(max_examples=150, deadline=None)
@given(dense_pairs(), fractions)
def test_sparse_arithmetic_matches_dense(case, c):
    cols, a, b = case
    rows = len(a)
    ma, mb = (Matrix.from_entries(rows, cols, flat(d)) for d in (a, b))
    got = {"+": ma + mb, "-": ma - mb, "neg": -ma, "scale": ma.scale(c)}
    expected = {
        "+": [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)],
        "-": [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)],
        "neg": [[-x for x in r] for r in a],
        "scale": [[c * x for x in r] for r in a],
    }
    if rows == cols:
        got["shift"] = ma.shift(c)
        expected["shift"] = [
            [x - c if i == j else x for j, x in enumerate(r)] for i, r in enumerate(a)
        ]
        trace = ma.trace()
        assert type(trace) is F
        assert trace == sum((a[i][i] for i in range(rows)), F(0))
    for op, dense in expected.items():
        m = got[op]
        assert (m.rows, m.cols) == (rows, cols), op
        assert m.sparse_rows == canonical(dense), op
        assert_canonical(m)
        assert m.is_zero() == (not any(flat(dense))), op
    event("difference cancels" if any(flat(a)) and got["-"].is_zero() else "no cancel")


@settings(max_examples=150, deadline=None)
@given(dense_pairs())
def test_equality_and_hash_match_dense(case):
    cols, a, b = case
    rows = len(a)
    ma, mb = (Matrix.from_entries(rows, cols, flat(d)) for d in (a, b))
    # b again, by a route whose intermediate entries cancel
    detour = (ma + mb) - ma
    assert detour == mb and hash(detour) == hash(mb)
    for m in (mb, detour):
        assert (ma == m) == (a == b)
        if a == b:
            assert hash(ma) == hash(m)
    transposed_zero = Matrix.zero(cols, rows)
    assert (Matrix.zero(rows, cols) == transposed_zero) == (rows == cols)
    event("equal" if a == b else "different")


def reference_module_json(m):
    """The module file from dense rows: every entry of every row through str."""
    doc = {
        "format_version": FORMAT_VERSION,
        "presentation": m.kind,
        "q": str(m.q.q),
        "dim": m.dim,
        "action": {g: [[str(v) for v in m.action[g].row(i)] for i in range(m.dim)]
                   for g in ALPHABETS[m.kind]},
        "provenance": m.provenance,
    }
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=40, deadline=None)
@given(small_eval_tensors(), st.sampled_from([None, (-1, 1), (1, -1), (-1, -1)]),
       st.one_of(st.none(), st.integers(0, 2**16)))
def test_module_file_matches_the_dense_writer(m, twist, seed):
    # the sparse writer against dense rows, on plain, sign-twisted or
    # Borel-rescaled modules, in the standard basis or a conjugated dense one
    if twist is not None:
        m = twist_full(m, *twist) if m.kind != UGEQ0 else twist_borel(m, twist[0] * 3)
    m = conjugated(m, seed)
    text = module_to_json(m)
    assert text == reference_module_json(m)
    assert module_from_dict(json.loads(text)).action == m.action
    event(f"{m.kind}, {'plain' if twist is None else 'twisted'}, "
          f"{'standard' if seed is None else 'conjugated'} basis")
