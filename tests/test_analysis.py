import time
from fractions import Fraction as F

import pytest

from qaffine.analysis import (
    ABSOLUTELY_IRREDUCIBLE,
    MODULUS,
    NOT_IRREDUCIBLE,
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
from qaffine.linalg import Matrix, Subspace, image
from qaffine.presentations import AFFINE_FULL


def unit_vector(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


# -- spin ---------------------------------------------------------------------


def test_spin_irreducible_reaches_everything(v111):
    for i in range(2):
        assert spin(unit_vector(2, i), v111).generated == Subspace.full(2)


def test_spin_one_dimensional(q2):
    m = evaluation_module(EvalParams(0, 1, 1), q2)
    assert spin([F(3)], m).generated == Subspace.full(1)


def test_spin_finds_proper_submodule(tensor_14):
    # v_0 x w_0 generates the 3-dimensional component of the critical tensor
    result = spin(unit_vector(4, 0), tensor_14)
    assert result.generated.dim == 3
    assert result.generated.contains_vector([F(0), F(1), F(2), F(0)])


def test_spin_monotone(tensor_14):
    big = spin(unit_vector(4, 0), tensor_14).generated
    assert big.contains_vector(unit_vector(4, 3))
    inner = spin(unit_vector(4, 3), tensor_14).generated
    assert big.contains(inner)


def test_spin_zero_vector_rejected(v111):
    with pytest.raises(ValueError):
        spin([F(0), F(0)], v111)


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


# -- the modular certificate and the exact fallback -----------------------------


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
        assert (report.prime, report.modular_rank) == (MODULUS, n * n)
        assert report.verdict == ABSOLUTELY_IRREDUCIBLE
        assert report.word_span_dim == _word_span(m) == n * n
        assert report.witness is None


def test_reducible_tensor_takes_exact_fallback(tensor_14):
    report = burnside_irreducible(tensor_14)
    assert report.prime == MODULUS
    assert report.modular_rank is not None and report.modular_rank < 16
    assert report.word_span_dim == _word_span(tensor_14) == 13
    assert report.verdict == NOT_IRREDUCIBLE
    # the first candidate, e_0, spins to the 3-dimensional component
    assert report.witness == spin(unit_vector(4, 0), tensor_14).generated
    assert report.witness.dim == 3


def test_prime_in_denominator_skips_certificate(tensor_14):
    d = Matrix.diagonal([1, MODULUS, 1, 1])
    d_inv = d.inverse()
    conj = build_module(
        AFFINE_FULL,
        tensor_14.q,
        {g: d_inv @ mat @ d for g, mat in tensor_14.action.items()},
        "conjugated by diag(1, p, 1, 1)",
    )
    assert any(
        x.denominator % MODULUS == 0
        for mat in conj.action.values()
        for x in mat.entries
    )
    plain = burnside_irreducible(tensor_14)
    report = burnside_irreducible(conj)
    assert (report.prime, report.modular_rank) == (MODULUS, None)
    assert (report.word_span_dim, report.verdict) == (
        plain.word_span_dim,
        plain.verdict,
    )
    # d fixes e_0, so the witness is the d^-1 image of the unconjugated one
    assert report.witness == image(d_inv, plain.witness)


def test_unlucky_prime_decided_exactly(q2):
    # R = e0p = p * em vanishes mod p, so the reduced words only reach the
    # upper triangular 2 x 2 matrices, while the rational span is all of M_2
    m = restrict_to_ugeq0(evaluation_module(EvalParams(1, 1, MODULUS), q2), 1)
    assert any(x != 0 and x % MODULUS == 0 for x in m.action["R"].entries)
    report = burnside_irreducible(m)
    assert report.modular_rank == 3
    assert report.verdict == ABSOLUTELY_IRREDUCIBLE
    assert report.word_span_dim == 4
    assert report.witness is None


def test_dim16_certificate_time_bound(q2):
    m = restrict_to_ugeq0(eval_tensor(q2, (3, 1, 1), (3, 1, 11)), 1)
    start = time.perf_counter()
    report = burnside_irreducible(m)
    elapsed = time.perf_counter() - start
    assert report.verdict == ABSOLUTELY_IRREDUCIBLE
    assert report.word_span_dim == report.modular_rank == 256
    assert elapsed < 10, f"dim-16 Burnside test took {elapsed:.1f} s"


def test_spin_full_space_on_certified_modules(tensor_13):
    for i in range(4):
        assert spin(unit_vector(4, i), tensor_13).generated == Subspace.full(4)


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
