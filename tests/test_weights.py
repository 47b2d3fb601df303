import re
import time
from fractions import Fraction as F

import pytest
from conftest import column_space, full_space, matrix_column

from qaffine.errors import WeightLadderError
from qaffine.factory import (
    EvalParams,
    build_module,
    evaluation_module,
    restrict_to_borel,
    restrict_to_ugeq0,
    tensor_product,
    twist_full,
)
from qaffine.linalg import Matrix
from qaffine.presentations import AFFINE_BOREL, AFFINE_FULL, UGEQ0
from qaffine.scalars import qparam
from qaffine.weights import analyze_borel, analyze_full, analyze_ugeq0, k_ladder


def ugeq0_module(q, K_rows, R_rows=None, L_rows=None, validate=True):
    n = len(K_rows)
    K = Matrix.from_rows(K_rows)
    action = {
        "K": K,
        "Kinv": K.inverse(),
        "R": Matrix.from_rows(R_rows) if R_rows else Matrix.zero(n, n),
        "L": Matrix.from_rows(L_rows) if L_rows else Matrix.zero(n, n),
    }
    return build_module(UGEQ0, q, action, "handmade", validate=validate)


# -- analyze_ugeq0 ---------------------------------------------------------------


def test_one_dimensional(q2):
    m = ugeq0_module(q2, [[7]])
    wl = analyze_ugeq0(m)
    assert wl.alpha == 7
    assert wl.diameter == 0
    assert wl.spaces[0] == full_space(1)


def test_restricted_v111(v111):
    # K = diag(2, 1/2) on (v_0, v_1), so the ladder starts at v_1
    wl = analyze_ugeq0(restrict_to_ugeq0(v111, 1))
    assert (wl.alpha, wl.diameter) == (1, 1)
    assert matrix_column(wl.spaces[0].basis, 0) == (F(0), F(1))
    assert matrix_column(wl.spaces[1].basis, 0) == (F(1), F(0))


def test_restricted_tensor(tensor_13):
    wl = analyze_ugeq0(restrict_to_ugeq0(tensor_13, 1))
    assert (wl.alpha, wl.diameter) == (1, 2)
    assert [s.dim for s in wl.spaces] == [1, 2, 1]


def test_gapped_spectrum_rejected(q2):
    message = (
        "eigenvalues of K do not form a single q^2-ladder: "
        "2 ladder bottoms among ['1', '16']"
    )
    with pytest.raises(WeightLadderError, match=re.escape(message)):
        analyze_ugeq0(ugeq0_module(q2, [[1, 0], [0, 16]]))


def test_irrational_spectrum_rejected(q2):
    m = ugeq0_module(q2, [[0, 1], [2, 0]], validate=False)
    message = "K has eigenvalues outside the rationals (0 of 2 found)"
    with pytest.raises(WeightLadderError, match=re.escape(message)):
        analyze_ugeq0(m)


def test_non_semisimple_rejected(q2):
    m = ugeq0_module(q2, [[1, 1], [0, 1]], validate=False)
    with pytest.raises(WeightLadderError, match="^K does not act semisimply$"):
        analyze_ugeq0(m)


def test_wrong_direction_raising_rejected(q2):
    # R maps the top weight space down: the containment check must fail
    m = ugeq0_module(q2, [[1, 0], [0, 4]], R_rows=[[0, 1], [0, 0]], validate=False)
    message = "^R does not map weight space 1 into weight space 2$"
    with pytest.raises(WeightLadderError, match=message):
        analyze_ugeq0(m)


def test_kind_guard(v111):
    message = "^expected a ugeq0 module, got affine_full$"
    with pytest.raises(WeightLadderError, match=message):
        analyze_ugeq0(v111)


# -- analyze_full -----------------------------------------------------------------


def test_full_type_of_evaluation_modules(q2):
    for eps in (1, -1):
        for a in (1, F(3, 2)):
            m = evaluation_module(EvalParams(1, eps, a), q2)
            wd = analyze_full(m)
            assert (wd.eps0, wd.eps1, wd.diameter) == (eps, eps, 1)


def test_full_twisted_type(v111):
    wd = analyze_full(twist_full(v111, -1, 1))
    assert (wd.eps0, wd.eps1) == (-1, 1)


def test_full_trivial(q2):
    m = evaluation_module(EvalParams(0, 1, 1), q2)
    wd = analyze_full(m)
    assert (wd.eps0, wd.eps1, wd.diameter) == (1, 1, 0)


def test_full_tensor_weights(tensor_13):
    wd = analyze_full(tensor_13)
    assert [s.dim for s in wd.spaces] == [1, 2, 1]
    assert (wd.eps0, wd.eps1, wd.diameter) == (1, 1, 2)


def test_full_non_sign_ladder_rejected(q2, v111):
    # scale K0/K0inv by 3: the ladder midpoint is no longer a sign
    action = dict(v111.action)
    action["K0"] = 3 * action["K0"]
    action["K0inv"] = F(1, 3) * action["K0inv"]
    bad = build_module(AFFINE_FULL, q2, action, "scaled", validate=False)
    message = "^K0 ladder is not centered at a sign: alpha = 3$"
    with pytest.raises(WeightLadderError, match=message):
        analyze_full(bad)


def test_full_nonscalar_central_product_rejected(q2, v111, v113):
    # mix K1 from a different module so K0 K1 is not scalar
    action = dict(v111.action)
    action["K1"] = Matrix.diagonal([2, 2])
    action["K1inv"] = Matrix.diagonal([F(1, 2), F(1, 2)])
    bad = build_module(AFFINE_FULL, q2, action, "mixed", validate=False)
    with pytest.raises(WeightLadderError, match="^K0 K1 does not act as a scalar$"):
        analyze_full(bad)


@pytest.mark.parametrize("borel", [False, True])
def test_k1_wrong_on_one_weight_space_rejected(q2, v212, borel):
    # K0 and K1 are diagonal on the weight basis; scaling K1 on the middle
    # weight space alone makes it the next space's eigenvalue there
    m = restrict_to_borel(v212) if borel else v212
    action = dict(m.action)
    scale = Matrix.diagonal([1, 4, 1])
    action["K1"] = scale @ m.action["K1"]
    action["K1inv"] = scale.inverse() @ m.action["K1inv"]
    bad = build_module(m.kind, q2, action, "K1 off on U1", validate=False)
    analyze = analyze_borel if borel else analyze_full
    with pytest.raises(WeightLadderError, match="^K0 K1 does not act as a scalar$"):
        analyze(bad)


def test_uniqueness_under_basis_permutation(tensor_13):
    perm = Matrix.from_rows(
        [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    perm_inv = perm.inverse()
    conj = {g: perm_inv @ mat @ perm for g, mat in tensor_13.action.items()}
    moved = build_module(AFFINE_FULL, tensor_13.q, conj, "permuted")
    wd = analyze_full(tensor_13)
    wd_moved = analyze_full(moved)
    assert (wd.eps0, wd.eps1, wd.diameter) == (
        wd_moved.eps0,
        wd_moved.eps1,
        wd_moved.diameter,
    )
    for s, s_moved in zip(wd.spaces, wd_moved.spaces):
        assert column_space(perm_inv @ s.basis) == s_moved


def test_full_non_sign_pair_rejected(q2, v111):
    # scale K1/K1inv by 3: K0 K1 is the scalar 3, not a sign
    action = dict(v111.action)
    action["K1"] = 3 * action["K1"]
    action["K1inv"] = F(1, 3) * action["K1inv"]
    bad = build_module(AFFINE_FULL, q2, action, "K1 scaled", validate=False)
    message = "^K0 K1 scalar is not a sign pair: gamma = 3$"
    with pytest.raises(WeightLadderError, match=message):
        analyze_full(bad)


def test_full_raising_direction_rejected(q2, v111):
    action = dict(v111.action)
    action["e0p"] = action["e0m"]
    bad = build_module(AFFINE_FULL, q2, action, "e0p lowers", validate=False)
    message = "^e0p does not map weight space 1 into weight space 2$"
    with pytest.raises(WeightLadderError, match=message):
        analyze_full(bad)


@pytest.mark.parametrize(
    "analyzer, wrong_kind, message",
    [
        (analyze_full, "ugeq0", "expected an affine_full module, got ugeq0"),
        (analyze_borel, "full", "expected an affine_borel module, got affine_full"),
    ],
)
def test_kind_guards(v111, analyzer, wrong_kind, message):
    m = restrict_to_ugeq0(v111, 1) if wrong_kind == "ugeq0" else v111
    with pytest.raises(WeightLadderError, match=f"^{message}$"):
        analyzer(m)


# -- analyze_borel ------------------------------------------------------------------


def test_borel_restriction_type(v111):
    wb = analyze_borel(restrict_to_borel(v111))
    assert (wb.alpha, wb.beta, wb.diameter) == (1, 1, 1)
    assert wb.alpha * wb.beta == 1


def test_borel_one_dimensional(q2):
    c = F(5, 3)
    action = {
        "e0p": Matrix.zero(1, 1),
        "e1p": Matrix.zero(1, 1),
        "K0": Matrix.from_rows([[c]]),
        "K0inv": Matrix.from_rows([[1 / c]]),
        "K1": Matrix.from_rows([[1 / c]]),
        "K1inv": Matrix.from_rows([[c]]),
    }
    m = build_module("affine_borel", q2, action, "1-dim borel")
    wb = analyze_borel(m)
    assert (wb.alpha, wb.beta) == (c, 1 / c)
    assert wb.alpha * wb.beta == 1


def test_borel_twisted_gamma(v111):
    wb = analyze_borel(restrict_to_borel(twist_full(v111, -1, 1)))
    assert wb.alpha * wb.beta == -1


def test_borel_nonscalar_central_product_rejected(q2, v111):
    action = dict(restrict_to_borel(v111).action)
    action["K1"] = Matrix.diagonal([2, 3])
    action["K1inv"] = Matrix.diagonal([F(1, 2), F(1, 3)])
    bad = build_module(AFFINE_BOREL, q2, action, "mixed", validate=False)
    with pytest.raises(WeightLadderError, match="^K0 K1 does not act as a scalar$"):
        analyze_borel(bad)


def test_borel_lowering_direction_rejected(q2, v111):
    b = restrict_to_borel(v111)
    action = dict(b.action)
    action["e1p"] = b.action["e0p"]
    bad = build_module(AFFINE_BOREL, q2, action, "e1p raises", validate=False)
    message = "^e1p does not map weight space 0 into weight space -1$"
    with pytest.raises(WeightLadderError, match=message):
        analyze_borel(bad)


# -- k_ladder edge cases --------------------------------------------------------------


def test_k_ladder_rejects_singular(q2):
    with pytest.raises(WeightLadderError, match="^K is singular$"):
        k_ladder(Matrix.diagonal([0, 1]), q2)


def test_k_ladder_sorted_output(q2):
    zeta, spaces = k_ladder(Matrix.diagonal([2, F(1, 2)]), q2)
    assert zeta == F(1, 2)
    assert [s.dim for s in spaces] == [1, 1]


# -- large types and large modules, time-bounded ---------------------------------------


@pytest.mark.parametrize("alpha", ["1000000007", "1000000007/1000000009"])
def test_large_prime_type_is_read_quickly(run_snippet, alpha):
    result = run_snippet(
        f"""
        import json, time
        from fractions import Fraction
        from qaffine.factory import EvalParams, evaluation_module, restrict_to_ugeq0
        from qaffine.scalars import qparam
        from qaffine.weights import analyze_ugeq0

        start = time.perf_counter()
        module = evaluation_module(EvalParams(1, 1, 1), qparam(2))
        ladder = analyze_ugeq0(restrict_to_ugeq0(module, Fraction("{alpha}")))
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, str(ladder.alpha), ladder.diameter]))
        """
    )
    seconds, found_alpha, diameter = result
    assert (found_alpha, diameter) == (alpha, 1)
    assert seconds < 2.0


def test_dim27_triple_tensor_ladder_time_bound():
    q = qparam(F(3, 2))
    factors = [evaluation_module(EvalParams(2, 1, a), q) for a in (1, 3, 5)]
    module = tensor_product(tensor_product(factors[0], factors[1]), factors[2])
    start = time.perf_counter()
    wd = analyze_full(module)
    assert time.perf_counter() - start < 3.0
    assert module.dim == 27
    assert (wd.eps0, wd.eps1, wd.diameter) == (1, 1, 6)
    assert [s.dim for s in wd.spaces] == [1, 3, 6, 7, 6, 3, 1]
