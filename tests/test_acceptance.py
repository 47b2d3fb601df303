"""Acceptance suite.

Each test prints one pass/fail line (visible with pytest -s) and records its
wall-clock time; the final test checks the whole suite's time budget. Every
numeric assertion here is an exact equality on rationals; there are no
tolerances anywhere.
"""

import random
import time
from fractions import Fraction as F

from qaffine.analysis import (
    ABSOLUTELY_IRREDUCIBLE,
    NOT_IRREDUCIBLE,
    burnside_irreducible,
    spin,
    verify_raising_powers,
)
from qaffine.extension import extend
from qaffine.factory import (
    EvalParams,
    build_module,
    evaluation_module,
    restrict_to_ugeq0,
    tensor_product,
    twist_full,
)
from qaffine.linalg import Matrix, image, kernel, subspace_intersect
from qaffine.presentations import AFFINE_FULL, UGEQ0, check_presentation
from qaffine.scalars import qparam
from qaffine.weights import analyze_full

TIMINGS: dict[int, float] = {}
MAX_DIM_SEEN = 0


def _finish(criterion: int, started: float, passed: bool, detail: str):
    elapsed = time.perf_counter() - started
    TIMINGS[criterion] = elapsed
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.2f}s)")
    assert passed, f"criterion {criterion} failed: {detail}"


def _note_dim(n: int):
    global MAX_DIM_SEEN
    MAX_DIM_SEEN = max(MAX_DIM_SEEN, n)


def test_criterion_1_relation_suite():
    started = time.perf_counter()
    q = qparam(2)
    all_ok = True
    slowest = 0.0
    count = 0
    for d in (0, 1, 2, 3):
        for eps in (1, -1):
            for a in (F(1), F(2), F(3, 2)):
                t0 = time.perf_counter()
                m = evaluation_module(EvalParams(d, eps, a), q)
                report = check_presentation(AFFINE_FULL, m)
                per_module = time.perf_counter() - t0
                slowest = max(slowest, per_module)
                _note_dim(m.dim)
                count += 1
                ok = (
                    report.passed
                    and len(report.entries) == 21
                    and all(not e.residual_entries for e in report.entries)
                    and per_module < 1.0
                )
                all_ok = all_ok and ok
    _finish(
        1, started, all_ok,
        f"all 21 defining relations exactly zero on {count} evaluation modules, "
        f"slowest {slowest:.3f}s",
    )


def test_criterion_2_round_trip():
    started = time.perf_counter()
    q = qparam(2)
    v111 = evaluation_module(EvalParams(1, 1, 1), q)
    modules = {
        "V(1,1,1)": v111,
        "V(2,1,2)": evaluation_module(EvalParams(2, 1, 2), q),
        "V(1,1,1)xV(1,1,3)": tensor_product(
            v111, evaluation_module(EvalParams(1, 1, 3), q)
        ),
        "twist(V(1,1,1),-1,1)": twist_full(v111, -1, 1),
    }
    all_ok = True
    for name, module in modules.items():
        _note_dim(module.dim)
        wd = analyze_full(module)
        for alpha in (F(1), F(5)):
            t0 = time.perf_counter()
            restricted = restrict_to_ugeq0(module, alpha)
            full, _ = extend(restricted, wd.eps0, wd.eps1)
            per_case = time.perf_counter() - t0
            exact = all(full.action[g] == module.action[g] for g in module.action)
            all_ok = all_ok and exact and per_case < 10.0
    _finish(
        2, started, all_ok,
        "restrict-then-extend reproduces all 8 generator matrices exactly "
        "for 4 modules x 2 alphas",
    )


def test_criterion_3_pipeline_ledger():
    started = time.perf_counter()
    q = qparam(2)
    module = evaluation_module(EvalParams(2, 1, 2), q)
    _note_dim(module.dim)
    restricted = restrict_to_ugeq0(module, 1)
    t0 = time.perf_counter()
    _, trace = extend(restricted, 1, 1)
    per_run = time.perf_counter() - t0
    names = set(trace.check_names())
    required = {
        # split-pair identities against K and the q-Serre pair
        "weyl(Kinv,A)", "weyl(K,Astar)", "serre(A,Astar)", "serre(Astar,A)",
        # eigenflag decompositions, the weight-space recovery and tridiagonality
        "eigendecomp(A)", "eigendecomp(Astar)", "weight-from-flags",
        "tridiag(Astar,V)", "tridiag(A,Vstar)",
        # grid boundary rows/columns and vanishing below the antidiagonal
        "grid-boundary(row)", "grid-boundary(col)", "grid-vanishing",
        # both split decompositions, their ladder moves and the four sum identities
        "decomposition(W)", "decomposition(Wstar)",
        "ladder(W):A-up", "ladder(W):Astar-down", "ladder(W):Kinv-down",
        "ladder(W):K-head", "ladder(Wstar):A-up", "ladder(Wstar):Astar-down",
        "ladder(Wstar):K-up", "ladder(Wstar):Kinv-tail",
        "sum(W-tail)", "sum(W-head)", "sum(Wstar-tail)", "sum(Wstar-head)",
        # the four Weyl pairings of B, B* with A, A*
        "weyl(A,B)", "weyl(B,Astar)", "weyl(Astar,Bstar)", "weyl(Bstar,A)",
        # one-step moves of B, B* on all three ladders
        "move(B,V)", "move(B,Vstar)", "move(Bstar,V)", "move(Bstar,Vstar)",
        "move(B,U)", "move(Bstar,U)",
        # Weyl pairings of B, B* with K^{±1}
        "weyl(B,Kinv)", "weyl(Bstar,K)",
        # q-Serre for the split operators
        "serre(B,Bstar)", "serre(Bstar,B)",
        # reconstruction of B, B* from the lowering operators
        "reconstruct(B)", "reconstruct(Bstar)",
        # the full commutation suite of r, l with R, L, K
        "weight(r)", "weight(l)", "commutator(r,L)", "commutator(l,R)",
        "commute(l,L)", "commute(r,R)",
        "serre(R,L)", "serre(L,R)", "serre(r,l)", "serre(l,r)",
    }
    missing = required - names
    failed = [c.name for c in trace.checks if not c.passed]
    residuals = [
        c.name for c in trace.checks if c.residual_entries
    ]
    grid_zero = all(
        trace.w_grid[(i, j)].dim == 0
        for i in range(3)
        for j in range(3)
        if i + j < 2
    )
    ok = (
        not missing
        and not failed
        and not residuals
        and grid_zero
        and per_run < 10.0
    )
    _finish(
        3, started, ok,
        f"{len(trace.checks)} named checks all exactly zero "
        f"(missing={sorted(missing)}, failed={failed})",
    )


def test_criterion_4_irreducibility_boundary():
    started = time.perf_counter()
    q = qparam(2)
    v111 = evaluation_module(EvalParams(1, 1, 1), q)
    t0 = time.perf_counter()
    good = burnside_irreducible(
        tensor_product(v111, evaluation_module(EvalParams(1, 1, 3), q))
    )
    time_good = time.perf_counter() - t0
    t0 = time.perf_counter()
    critical = tensor_product(v111, evaluation_module(EvalParams(1, 1, 4), q))
    bad = burnside_irreducible(critical)
    time_bad = time.perf_counter() - t0
    _note_dim(4)
    witness_ok = False
    if bad.witness is not None and 0 < bad.witness.dim < 4:
        witness_ok = all(
            bad.witness.contains(image(mat, bad.witness))
            for mat in critical.action.values()
        )
        for row in bad.witness.pivot_rows.values():
            generated = spin(row, critical)
            witness_ok = witness_ok and bad.witness.contains(generated)
    ok = (
        good.word_span_dim == 16
        and good.verdict == ABSOLUTELY_IRREDUCIBLE
        and bad.verdict == NOT_IRREDUCIBLE
        and witness_ok
        and time_good < 5.0
        and time_bad < 5.0
    )
    _finish(
        4, started, ok,
        f"word span 16 at ratio 3; ratio q^2 gives span {bad.word_span_dim} "
        f"with a spin-verified invariant witness of dim "
        f"{bad.witness.dim if bad.witness else '-'}",
    )


def test_criterion_5_raising_power_suite():
    started = time.perf_counter()
    q = qparam(2)
    module = tensor_product(
        evaluation_module(EvalParams(1, 1, 1), q),
        evaluation_module(EvalParams(2, 1, 5), q),
    )
    _note_dim(module.dim)
    wd = analyze_full(module)
    t0 = time.perf_counter()
    checks = verify_raising_powers(module)
    per_run = time.perf_counter() - t0
    shape_ok = (
        module.dim == 6
        and wd.diameter == 3
        and [s.dim for s in wd.spaces] == [1, 2, 2, 1]
    )
    # the rank of e0p from weight space 1 to weight space 2 must be exactly 2
    mid_image = image(module.action["e0p"], wd.spaces[1])
    rank_ok = mid_image.dim == 2 and mid_image == wd.spaces[2]
    # part (ii) for j=1 as an exact subspace equality, recomputed directly
    ker_power = subspace_intersect(
        kernel(module.action["e0p"].power(2)), wd.spaces[1]
    )
    ker_lower = subspace_intersect(kernel(module.action["e0m"]), wd.spaces[1])
    kernel_ok = ker_power == ker_lower
    suite_ok = len(checks) == 8 and all(c.passed for c in checks)
    ok = shape_ok and rank_ok and kernel_ok and suite_ok and per_run < 5.0
    _finish(
        5, started, ok,
        "isomorphism and kernel-match checks pass for j in {0,1} on the "
        "6-dimensional module (weight dims 1,2,2,1)",
    )


def test_criterion_6_conjugation_equivariance():
    started = time.perf_counter()
    q = qparam(2)
    module = evaluation_module(EvalParams(2, 1, 2), q)
    restricted = restrict_to_ugeq0(module, 1)
    _note_dim(module.dim)
    reference, _ = extend(restricted, 1, 1)
    rng = random.Random(20260808)
    all_ok = True
    for _trial in range(3):
        t0 = time.perf_counter()
        n = module.dim
        lower = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        upper = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i):
                lower[i][j] = F(rng.randint(-2, 2))
                upper[j][i] = F(rng.randint(-2, 2))
        p = Matrix.from_rows(lower) @ Matrix.from_rows(upper)
        p_inv = p.inverse()
        conjugated = build_module(
            UGEQ0,
            q,
            {g: p_inv @ mat @ p for g, mat in restricted.action.items()},
            "conjugated",
        )
        full, _ = extend(conjugated, 1, 1)
        exact = all(
            full.action[g] == p_inv @ reference.action[g] @ p
            for g in reference.action
        )
        all_ok = all_ok and exact and (time.perf_counter() - t0) < 10.0
    _finish(
        6, started, all_ok,
        "extension commutes exactly with 3 unimodular basis changes",
    )


def test_criterion_7_degenerate_case():
    started = time.perf_counter()
    q = qparam(2)
    trivial = build_module(
        UGEQ0,
        q,
        {
            "R": Matrix.zero(1, 1),
            "L": Matrix.zero(1, 1),
            "K": Matrix.from_rows([[F(7)]]),
            "Kinv": Matrix.from_rows([[F(1, 7)]]),
        },
        "trivial(alpha=7)",
    )
    _note_dim(1)
    all_ok = True
    for eps0 in (1, -1):
        for eps1 in (1, -1):
            full, trace = extend(trivial, eps0, eps1)
            wd = analyze_full(full)
            ok = (
                trace.b_mat == Matrix.identity(1)
                and trace.bstar_mat == Matrix.identity(1)
                and trace.r_mat.is_zero()
                and trace.l_mat.is_zero()
                and (wd.eps0, wd.eps1) == (eps0, eps1)
            )
            all_ok = all_ok and ok
    _finish(
        7, started, all_ok,
        "diameter-0 pipeline gives identity split operators, zero lowering "
        "operators and all four sign types",
    )


def test_criterion_8_total_runtime():
    started = time.perf_counter()
    total = sum(TIMINGS.values())
    ok = total < 120.0 and set(TIMINGS) == {1, 2, 3, 4, 5, 6, 7} and \
        MAX_DIM_SEEN <= 18
    _finish(
        8, started, ok,
        f"criteria 1-7 took {total:.2f}s total, largest module dimension "
        f"{MAX_DIM_SEEN}",
    )
