"""Round trips away from the defaults: other q values, mixed sign tensors,
negative and fractional type scalars, and larger dimensions."""

from fractions import Fraction as F

import pytest

from qaffine.extension import extend
from qaffine.factory import (
    EvalParams,
    evaluation_module,
    restrict_to_ugeq0,
    tensor_product,
)
from qaffine.scalars import qparam
from qaffine.weights import analyze_full, analyze_ugeq0


def assert_round_trip(module, alpha):
    wd = analyze_full(module)
    restricted = restrict_to_ugeq0(module, alpha)
    assert analyze_ugeq0(restricted).alpha == alpha
    full, trace = extend(restricted, wd.eps0, wd.eps1)
    for g in module.action:
        assert full.action[g] == module.action[g]
    assert trace.diameter == wd.diameter
    return trace


@pytest.mark.parametrize("qv", [3, F(1, 2), -2, F(3, 2)])
def test_round_trip_other_q(qv):
    q = qparam(qv)
    module = tensor_product(
        evaluation_module(EvalParams(1, 1, 1), q),
        evaluation_module(EvalParams(1, -1, F(5, 3)), q),
    )
    wd = analyze_full(module)
    assert (wd.eps0, wd.eps1) == (-1, -1)  # signs multiply across the tensor
    assert_round_trip(module, F(2, 7))


@pytest.mark.parametrize("alpha", [F(-1), F(-3, 2), F(7, 5)])
def test_round_trip_unusual_alpha(q2, alpha):
    module = evaluation_module(EvalParams(2, 1, 2), q2)
    assert_round_trip(module, alpha)


def test_round_trip_dim8_triple_tensor(q2):
    module = tensor_product(
        tensor_product(
            evaluation_module(EvalParams(1, 1, 1), q2),
            evaluation_module(EvalParams(1, 1, 3), q2),
        ),
        evaluation_module(EvalParams(1, 1, 9), q2),
    )
    trace = assert_round_trip(module, F(1))
    assert trace.diameter == 3
    assert [s.dim for s in trace.weight_spaces] == [1, 3, 3, 1]


def test_round_trip_dim9(q2):
    module = tensor_product(
        evaluation_module(EvalParams(2, 1, 1), q2),
        evaluation_module(EvalParams(2, 1, 7), q2),
    )
    trace = assert_round_trip(module, F(5))
    assert trace.diameter == 4
    assert [s.dim for s in trace.weight_spaces] == [1, 2, 3, 2, 1]


def test_round_trip_dim12(q2):
    module = tensor_product(
        evaluation_module(EvalParams(2, 1, 1), q2),
        evaluation_module(EvalParams(3, 1, 7), q2),
    )
    trace = assert_round_trip(module, F(1))
    assert trace.diameter == 5
    assert [s.dim for s in trace.weight_spaces] == [1, 2, 3, 3, 2, 1]


def test_large_diameter_build_verify_restrict(run_snippet, tmp_path):
    # eval(80) at q = 2: K0 is diagonal and e0p, e1p, e0m, e1m are triangular,
    # so the weight ladder reads its 81 eigenvalues off the diagonal (root
    # isolation on the characteristic polynomial kept the build alone
    # running past 200 s)
    steps = [
        ["build", "eval", "--d", "80", "--eps", "1", "--a", "1", "-o", "e80.json"],
        ["verify", "e80.json"],
        ["restrict", "e80.json", "--alpha", "1", "-o", "r80.json"],
    ]
    runs = run_snippet(
        f"""
        import contextlib, io, json, os, time
        from qaffine.cli import main

        os.chdir({str(tmp_path)!r})
        runs = []
        for args in {steps!r}:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = main(args)
            runs.append([args[0], code, time.perf_counter() - start,
                         out.getvalue().splitlines()[-1]])
        print(json.dumps(runs))
        """,
        timeout=120,
    )
    for verb, code, seconds, _ in runs:
        assert code == 0, verb
        assert seconds < 10.0, f"{verb} took {seconds:.2f} s"
    last = {verb: line for verb, _, _, line in runs}
    assert last["verify"] == "ALL PASS"
    assert last["restrict"].endswith("type=1 diameter=80")
