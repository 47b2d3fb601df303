import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import direct_sum, full_space, span
from qaffine import analysis
from qaffine.analysis import (
    ABSOLUTELY_IRREDUCIBLE,
    COMPOSITION,
    NOT_IRREDUCIBLE,
    WORD_SPAN,
    _norton_theta,
    _word_span,
    burnside_irreducible,
    finite_decompose,
    spin,
    verify_raising_powers,
)
from qaffine.errors import CheckFailedError
from qaffine.factory import (
    EvalParams,
    build_module,
    evaluation_module,
    restrict_to_ugeq0,
    tensor_product,
)
from qaffine.linalg import Matrix, image, kernel, kronecker, subspace_sum
from qaffine.modfile import write_module
from qaffine.presentations import AFFINE_FULL
from qaffine.scalars import qparam

P = 2**61 - 1


def unit_vector(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


# -- spin ---------------------------------------------------------------------


def test_spin_irreducible_reaches_everything(v111):
    for i in range(2):
        assert spin({i: 1}, v111) == full_space(2)


def test_spin_one_dimensional(q2):
    m = evaluation_module(EvalParams(0, 1, 1), q2)
    assert spin({0: F(3)}, m) == full_space(1)


def test_spin_finds_proper_submodule(tensor_14):
    # v_0 x w_0 generates the 3-dimensional component of the critical tensor
    result = spin({0: 1}, tensor_14)
    assert result.dim == 3
    assert result.contains(span(4, [[F(0), F(1), F(2), F(0)]]))


def test_spin_monotone(tensor_14):
    big = spin({0: 1}, tensor_14)
    assert big.contains(span(4, [unit_vector(4, 3)]))
    inner = spin({3: 1}, tensor_14)
    assert big.contains(inner)


def test_spin_zero_vector_rejected(v111):
    for seed in ({}, {0: F(0), 1: 0}):
        with pytest.raises(ValueError):
            spin(seed, v111)


def test_spin_index_out_of_range_rejected(v111):
    for seed in ({2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            spin(seed, v111)


# -- burnside ------------------------------------------------------------------


def test_burnside_one_dimensional(q2):
    m = evaluation_module(EvalParams(0, 1, 1), q2)
    report = burnside_irreducible(m)
    assert report.word_span_dim == 1
    assert report.verdict == ABSOLUTELY_IRREDUCIBLE
    assert report.witness is None


def test_burnside_irreducible_tensor(tensor_13):
    report = burnside_irreducible(tensor_13)
    assert report.word_span_dim == 16
    assert report.verdict == ABSOLUTELY_IRREDUCIBLE


def test_burnside_reducible_tensor_with_witness(tensor_14):
    report = burnside_irreducible(tensor_14)
    assert report.verdict == NOT_IRREDUCIBLE
    assert report.word_span_dim < 16
    assert report.witness is not None
    witness = report.witness
    assert 0 < witness.dim < 4
    for g, mat in tensor_14.action.items():
        assert witness.contains(image(mat, witness)), g


def test_burnside_invariant_under_conjugation(tensor_14):
    p = Matrix.from_rows(
        [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 1]]
    )
    p_inv = p.inverse()
    conj = build_module(
        AFFINE_FULL,
        tensor_14.q,
        {g: p_inv @ mat @ p for g, mat in tensor_14.action.items()},
        "conjugated",
    )
    a = burnside_irreducible(tensor_14)
    b = burnside_irreducible(conj)
    assert (a.word_span_dim, a.verdict) == (b.word_span_dim, b.verdict)


# -- Norton's certificate and the exact fallback --------------------------------


def eval_tensor(q, *params):
    factors = [evaluation_module(EvalParams(*p), q) for p in params]
    module = factors[0]
    for other in factors[1:]:
        module = tensor_product(module, other)
    return module


def test_certificate_matches_exact_span(tensor_13, q2):
    roundtrip_dim8 = restrict_to_ugeq0(
        eval_tensor(q2, (1, 1, 1), (1, 1, 3), (1, 1, 9)), 1
    )
    for m in (tensor_13, roundtrip_dim8):
        n = m.dim
        report = burnside_irreducible(m)
        assert report.certificate == "norton"
        assert report.verdict == ABSOLUTELY_IRREDUCIBLE
        assert report.word_span_dim == _word_span(m) == n * n
        assert report.witness is None


def test_reducible_burnside_never_reads_dense_entries(tensor_14, monkeypatch):
    # the word span, the spins and the witness search close sparse vectors
    # under sparse matrices; no word is ever formed as n^2 dense entries
    def refuse(self):
        raise AssertionError("Matrix.entries read")

    monkeypatch.setattr(Matrix, "entries", property(refuse))
    report = burnside_irreducible(tensor_14)
    assert report.verdict == NOT_IRREDUCIBLE
    assert report.word_span_dim == 13 and report.witness.dim == 3


def test_word_span_eliminates_over_integers(tensor_14, monkeypatch):
    # the maps and the seed are read as integers, so the echelon that closes
    # the word span holds only int entries, although the generators do not
    closures = []

    def recording(*args):
        closures.append(closure(*args))
        return closures[-1]

    closure = analysis._closure
    monkeypatch.setattr(analysis, "_closure", recording)
    action = tensor_14.action.values()
    assert any(v.denominator > 1 for g in action for _, _, v in g.nonzero_entries())
    assert _word_span(tensor_14) == 13
    [acc] = closures
    assert acc.dim == 13
    assert all(type(x) is int for row in acc._pivots.values() for x in row.values())


def test_word_span_reads_integer_columns(q2, matrix_copies, monkeypatch):
    # the rows of g^T (x) I come from g's integer columns, with no transposed
    # Matrix and no Kronecker product: the closure gets the same rows as
    # from kronecker(g^T, I).int_rows
    m = tensor_product(*(evaluation_module(EvalParams(1, 1, a), q2) for a in (1, F(1, 4))))
    given = []

    def recording(seeds, columns, ambient):
        given.append(columns)
        return closure(seeds, columns, ambient)

    closure = analysis._closure
    monkeypatch.setattr(analysis, "_closure", recording)
    assert _word_span(m) == 13
    assert matrix_copies == []
    identity = Matrix.identity(m.dim)
    [columns] = given
    assert columns == [list(kronecker(m.action[g].transpose(), identity).int_rows)
                       for g in sorted(m.action)]

def test_reducible_tensor_takes_exact_fallback(tensor_14):
    report = burnside_irreducible(tensor_14)
    assert report.certificate == "composition"
    assert report.word_span_dim == _word_span(tensor_14) == 13
    assert report.verdict == NOT_IRREDUCIBLE
    # the first candidate, e_0, spins to the 3-dimensional component
    assert report.witness == spin({0: 1}, tensor_14)
    assert report.witness.dim == 3


def test_spin_unit_rows_fill_dense_tensor_14(dense_tensor_14):
    m, _ = dense_tensor_14
    assert [spin({i: 1}, m).dim for i in range(4)] == [4, 4, 4, 4]


def test_witness_from_eigenspace_row(tensor_14, dense_tensor_14):
    # no unit row of the conjugated module lies in its 3-dim submodule, so
    # the witness is spun from a kernel row of a shifted generator
    m, p_inv = dense_tensor_14
    plain = burnside_irreducible(tensor_14)
    report = burnside_irreducible(m)
    assert report.witness == image(p_inv, plain.witness)
    assert report.witness.dim == 3
    assert report.word_span_dim == 13


def test_prime_in_denominator_skips_certificate(tensor_14):
    d = Matrix.diagonal([1, P, 1, 1])
    d_inv = d.inverse()
    conj = build_module(
        AFFINE_FULL,
        tensor_14.q,
        {g: d_inv @ mat @ d for g, mat in tensor_14.action.items()},
        "conjugated by diag(1, p, 1, 1)",
    )
    assert any(
        x.denominator % P == 0
        for mat in conj.action.values()
        for x in mat.entries
    )
    plain = burnside_irreducible(tensor_14)
    report = burnside_irreducible(conj)
    assert report.certificate == "composition"
    assert (report.word_span_dim, report.verdict) == (
        plain.word_span_dim,
        plain.verdict,
    )
    # d fixes e_0, so the witness is the d^-1 image of the unconjugated one
    assert report.witness == image(d_inv, plain.witness)


def test_unlucky_prime_decided_exactly(q2):
    # R = e0p = p * em vanishes mod p, so the words reduced mod p only reach
    # the upper triangular 2 x 2 matrices, while the rational span is all of
    # M_2; Norton's criterion is decided over Q
    m = restrict_to_ugeq0(evaluation_module(EvalParams(1, 1, P), q2), 1)
    assert any(x != 0 and x % P == 0 for x in m.action["R"].entries)
    report = burnside_irreducible(m)
    assert report.certificate == "norton"
    assert report.verdict == ABSOLUTELY_IRREDUCIBLE
    assert report.word_span_dim == 4
    assert report.witness is None


def test_dim16_certificate_time_bound(q2):
    m = restrict_to_ugeq0(eval_tensor(q2, (3, 1, 1), (3, 1, 11)), 1)
    start = time.perf_counter()
    report = burnside_irreducible(m)
    elapsed = time.perf_counter() - start
    assert report.verdict == ABSOLUTELY_IRREDUCIBLE
    assert report.word_span_dim == 256
    assert report.certificate == "norton"
    assert elapsed < 10, f"dim-16 Burnside test took {elapsed:.1f} s"


def test_dim27_certificate_time_bound():
    m = eval_tensor(qparam(F(3, 2)), (2, 1, 1), (2, 1, 3), (2, 1, 5))
    start = time.perf_counter()
    report = burnside_irreducible(m)
    elapsed = time.perf_counter() - start
    assert (report.verdict, report.certificate) == (ABSOLUTELY_IRREDUCIBLE, "norton")
    assert report.word_span_dim == 729
    assert elapsed < 0.5, f"dim-27 Burnside test took {elapsed:.2f} s"


def test_dim16_reducible_word_span_time_bound(run_snippet):
    # V3(1) (x) V3(q^2) is reducible, so Norton's criterion cannot decide;
    # the witness's two factors, of dims 15 and 1, give the word span 241
    # of 256 by the composition lemma, with no closure in F^256
    seconds, verdict, span_dim, witness_dim = run_snippet(
        """
        import json, time
        from fractions import Fraction as F
        from qaffine.analysis import burnside_irreducible
        from qaffine.factory import EvalParams, evaluation_module, tensor_product
        from qaffine.scalars import qparam

        q = qparam(F(2))
        m = tensor_product(
            evaluation_module(EvalParams(3, 1, F(1)), q),
            evaluation_module(EvalParams(3, 1, F(4)), q),
        )
        start = time.perf_counter()
        report = burnside_irreducible(m)
        seconds = time.perf_counter() - start
        print(json.dumps(
            [seconds, report.verdict, report.word_span_dim, report.witness.dim]
        ))
        """,
        timeout=60,
    )
    assert (verdict, span_dim, witness_dim) == (NOT_IRREDUCIBLE, 241, 15)
    assert seconds < 8, f"dim-16 reducible Burnside test took {seconds:.1f} s"


def test_composition_closes_no_word_span(tensor_14, q2, monkeypatch):
    # a 3 + 1 and a 15 + 1 composition series: the span is counted from the
    # two Norton-certified factors, never by the closure in F^(n^2)
    def refuse(m):
        raise AssertionError("_word_span called")

    monkeypatch.setattr(analysis, "_word_span", refuse)
    rt16 = eval_tensor(q2, (3, 1, 1), (3, 1, 4))
    for m, span_dim, witness_dim in ((tensor_14, 13, 3), (rt16, 241, 15)):
        report = burnside_irreducible(m)
        assert report.certificate == COMPOSITION
        assert report.verdict == NOT_IRREDUCIBLE
        assert (report.word_span_dim, report.witness.dim) == (span_dim, witness_dim)


def rotation_module(v111, second):
    """A 2-dim module of v111's presentation with two generators: the
    rotation J, which has no rational eigenvalue, and `second`."""
    action = {"J": Matrix.from_rows([[0, -1], [1, 0]]), "M": Matrix.from_rows(second)}
    return replace(v111, action=action, provenance="rotation")


@pytest.mark.parametrize("case, verdict, span_dim, witness_dim", [
    ("equal dims of certified factors", NOT_IRREDUCIBLE, 108, 6),
    ("three factors", NOT_IRREDUCIBLE, 44, 6),
    ("split three factors", NOT_IRREDUCIBLE, 14, 1),
    ("irreducible over Q only", NOT_IRREDUCIBLE, 2, None),
    ("no rational eigenvalue", ABSOLUTELY_IRREDUCIBLE, 4, None),
])
def test_composition_premise_failures_take_word_span(
    case, verdict, span_dim, witness_dim, v111, q2
):
    # v111 (+) v111, equal dims without a one-dim eigenspace, is
    # test_no_one_dimensional_eigenspace_takes_word_span
    if case == "equal dims of certified factors":
        m = eval_tensor(q2, (2, 1, 1), (3, 1, 32))  # V2 (x) V3(q^5): 6 + 6
    elif case == "three factors":
        m = eval_tensor(q2, (1, 1, 1), (1, 1, 4), (1, 1, F(1, 4)))
    elif case == "split three factors":
        m = direct_sum(*(evaluation_module(EvalParams(d, 1, a), q2)
                         for d, a in ((0, 1), (1, 3), (2, 5))))
    elif case == "irreducible over Q only":
        m = rotation_module(v111, [[1, 0], [0, 1]])  # the words span I and J
    else:
        m = rotation_module(v111, [[0, 2], [1, 0]])  # I, J, M, J M span M_2
    report = burnside_irreducible(m)
    assert (report.certificate, report.verdict) == (WORD_SPAN, verdict)
    assert report.word_span_dim == _word_span(m) == span_dim
    if witness_dim is None:
        assert report.witness is None
    else:
        assert report.witness.dim == witness_dim


def test_dense_rt16_burnside_time_bound(run_snippet, tmp_path, q2):
    # rt16 = eval(3,1,1) (x) eval(3,1,4) conjugated by unit_lu(16, 1): every
    # unit row spins to V, the first eigenspace row to the dim-15 submodule,
    # and the two factors give the span (the closure did not end in 600 s)
    from test_properties import unit_lu

    m = eval_tensor(q2, (3, 1, 1), (3, 1, 4))
    p = unit_lu(16, 1)
    p_inv = p.inverse()
    path = tmp_path / "dense_rt16.json"
    write_module(replace(m, action={g: p_inv @ a @ p for g, a in m.action.items()}), path)
    seconds, certificate, span_dim, witness_dim = run_snippet(
        f"""
        import json, time
        from qaffine.analysis import burnside_irreducible
        from qaffine.modfile import read_module

        m = read_module({str(path)!r}, validate=False)
        start = time.perf_counter()
        report = burnside_irreducible(m)
        seconds = time.perf_counter() - start
        print(json.dumps(
            [seconds, report.certificate, report.word_span_dim, report.witness.dim]
        ))
        """,
        timeout=60,
    )
    assert (certificate, span_dim, witness_dim) == ("composition", 241, 15)
    assert seconds < 5, f"dense dim-16 reducible Burnside test took {seconds:.1f} s"


def dual_spin_dim(theta, m):
    # the V* half of Norton's criterion, by repeated subspace sums: the
    # kernel of theta^T closed under the transposed generators
    space = kernel(theta.transpose())
    while True:
        grown = space
        for g in m.action.values():
            grown = subspace_sum(grown, image(g.transpose(), space))
        if grown == space:
            return space.dim
        space = grown


def assert_exact_fallback(m, certificate="word-span"):
    report = burnside_irreducible(m)
    assert report.certificate == certificate
    assert report.verdict == NOT_IRREDUCIBLE
    assert report.word_span_dim == _word_span(m) < m.dim**2
    return report


def test_norton_proper_spin_falls_back(tensor_14):
    # theta = K0 - q^-2 I; its kernel vector spins to the 3-dim submodule
    mat, lam, null = _norton_theta(tensor_14)
    [row] = null.pivot_rows.values()
    assert spin(row, tensor_14).dim == 3
    assert dual_spin_dim(mat.shift(lam), tensor_14) == 4
    assert_exact_fallback(tensor_14, "composition")


def test_norton_proper_dual_spin_falls_back(v111, q2):
    # V1(1) (x) V1(q^-2): the kernel vector of theta spins to all of V, but
    # the one of theta^T spins to a proper submodule of V*; the spin of V
    # alone would wrongly certify this module
    m = tensor_product(v111, evaluation_module(EvalParams(1, 1, F(1, 4)), q2))
    mat, lam, null = _norton_theta(m)
    [row] = null.pivot_rows.values()
    assert spin(row, m).dim == 4
    assert dual_spin_dim(mat.shift(lam), m) == 3
    report = assert_exact_fallback(m, "composition")
    assert report.word_span_dim == 13


def test_no_one_dimensional_eigenspace_takes_word_span(v111):
    # v111 (+) v111: every eigenspace of every generator is at least 2-dim
    double = build_module(
        AFFINE_FULL,
        v111.q,
        {
            g: Matrix.from_rows(
                [list(r) + [0, 0] for r in mat.to_rows()]
                + [[0, 0] + list(r) for r in mat.to_rows()]
            )
            for g, mat in v111.action.items()
        },
        "v111 + v111",
    )
    assert _norton_theta(double) is None
    report = assert_exact_fallback(double)
    assert report.word_span_dim == 4
    assert report.witness is not None and report.witness.dim == 2


def test_spin_full_space_on_certified_modules(tensor_13):
    for i in range(4):
        assert spin({i: 1}, tensor_13) == full_space(4)


# -- raising-power isomorphisms ---------------------------------------------------


def test_raising_powers_vacuous_on_diameter_zero(q2):
    m = evaluation_module(EvalParams(0, 1, 1), q2)
    checks = verify_raising_powers(m)
    assert all(c.passed for c in checks)


def test_raising_powers_on_v111(v111):
    checks = verify_raising_powers(v111)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "iso(e0p^1: U0 -> U1)" in names


def test_raising_powers_on_six_dimensional(v111, q2):
    big = tensor_product(v111, evaluation_module(EvalParams(2, 1, 5), q2))
    checks = verify_raising_powers(big)
    assert all(c.passed for c in checks)
    assert len(checks) == 8  # j in {0, 1}, four parts each


def test_raising_powers_find_each_lowering_kernel_once(monkeypatch, q2):
    from conftest import _count_calls
    from qaffine import analysis, linalg, weights

    m = evaluation_module(EvalParams(4, 1, 5), q2)
    ladder = weights.analyze_full(m)  # the weight ladder's kernels are not counted
    monkeypatch.setattr(analysis, "analyze_full", lambda module: ladder)
    kernels = _count_calls(monkeypatch, linalg, "kernel", lambda mat: mat)
    checks = verify_raising_powers(m)
    assert all(c.passed for c in checks) and len(checks) == 12  # j in {0, 1, 2}
    lowering = [kernels.count(m.action[g]) for g in ("e0m", "e1m")]
    assert lowering == [1, 1]
    assert len(kernels) == 8  # the two lowering matrices and six raising powers


def test_raising_powers_pass_on_certified_modules(v111, tensor_13, q2):
    # everything the word-span test certifies also passes the power suite
    for m in (v111, tensor_13, evaluation_module(EvalParams(3, -1, 2), q2)):
        assert burnside_irreducible(m).verdict == ABSOLUTELY_IRREDUCIBLE
        assert all(c.passed for c in verify_raising_powers(m))


def test_raising_powers_failure_names_check(v111, q2):
    action = dict(v111.action)
    action["e0p"] = Matrix.zero(2, 2)
    # relations fail, but the weight analysis still sees a clean ladder
    bad = build_module(AFFINE_FULL, q2, action, "no raising", validate=False)
    with pytest.raises(CheckFailedError) as info:
        verify_raising_powers(bad)
    assert info.value.check.startswith("iso(e0p")


# -- finite decomposition ------------------------------------------------------------


def test_decompose_evaluation_module(v111):
    assert finite_decompose(v111, 1) == [(0, 2)]
    assert finite_decompose(v111, 0) == [(0, 2)]


def test_decompose_one_dimensional(q2):
    m = evaluation_module(EvalParams(0, 1, 1), q2)
    assert finite_decompose(m, 1) == [(0, 1)]


def test_decompose_tensor(tensor_13):
    assert finite_decompose(tensor_13, 1) == [(0, 3), (1, 1)]


def test_decompose_critical_tensor(tensor_14):
    # reducibility as an affine module does not change the finite shape
    assert finite_decompose(tensor_14, 1) == [(0, 3), (1, 1)]


def test_decompose_dimension_accounting(v212, v111):
    six = tensor_product(v212, v111)
    summands = finite_decompose(six, 1)
    assert sum(dim for _, dim in summands) == 6
    assert summands == [(0, 4), (1, 2)]


def test_decompose_bad_index(v111):
    with pytest.raises(ValueError):
        finite_decompose(v111, 2)
