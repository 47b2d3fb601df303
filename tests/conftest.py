import json
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine import EvalParams, evaluation_module, qparam, tensor_product
from qaffine.linalg import Matrix, SpanAccumulator, Subspace


@pytest.fixture(scope="session")
def q2():
    return qparam(2)


@pytest.fixture(scope="session")
def v111(q2):
    return evaluation_module(EvalParams(1, 1, 1), q2)


@pytest.fixture(scope="session")
def v113(q2):
    return evaluation_module(EvalParams(1, 1, 3), q2)


@pytest.fixture(scope="session")
def v114(q2):
    return evaluation_module(EvalParams(1, 1, 4), q2)


@pytest.fixture(scope="session")
def v212(q2):
    return evaluation_module(EvalParams(2, 1, 2), q2)


@pytest.fixture(scope="session")
def tensor_13(v111, v113):
    return tensor_product(v111, v113)


@pytest.fixture(scope="session")
def tensor_14(v111, v114):
    return tensor_product(v111, v114)


@pytest.fixture(scope="session")
def dense_tensor_14(tensor_14):
    """tensor_14 conjugated by P = unit_lu(4, 1), the seeded L U of the dense
    CI modules (each generator g acts as P^-1 g P), and P^-1, which maps
    each submodule of tensor_14 onto the matching one."""
    from test_properties import unit_lu

    p = unit_lu(4, 1)
    p_inv = p.inverse()
    action = {g: p_inv @ a @ p for g, a in tensor_14.action.items()}
    return replace(tensor_14, action=action), p_inv


def direct_sum(*modules):
    """The block-diagonal module of modules of one presentation and q: each
    generator acts on the i-th block as on modules[i]."""
    n = sum(m.dim for m in modules)
    action = {}
    for g in modules[0].action:
        rows, offset = [], 0
        for m in modules:
            rows += [{offset + j: v for j, v in row} for row in m.action[g].sparse_rows]
            offset += m.dim
        action[g] = Matrix.from_sparse(n, n, rows)
    provenance = " (+) ".join(m.provenance for m in modules)
    return replace(modules[0], dim=n, action=action, provenance=provenance)


def column_space(m):
    """The column space of m as a canonical Subspace: its integer columns
    inserted in order into one echelon."""
    acc = SpanAccumulator(m.rows)
    for column in m.int_cols:
        acc.insert(dict(column))
    return acc.to_subspace()


def span(ambient, vectors):
    """The span of dense vectors as a canonical Subspace: each inserted in
    turn into one echelon."""
    acc = SpanAccumulator(ambient)
    for v in vectors:
        acc.insert(dict(enumerate(v)))
    return acc.to_subspace()


def matrix_column(m, j):
    """Column j of a Matrix, as a tuple of Fractions."""
    return tuple(m.at(i, j) for i in range(m.rows))


def matrix_columns(m):
    """The columns of a Matrix, as tuples of Fractions."""
    return [tuple(col) for col in m.transpose().to_rows()]


def matrix_apply(m, v):
    """The product of a Matrix and a dense vector, skipping zero entries of
    the matrix and of v."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum((a * v[j] for j, a in row if v[j]), Fraction(0)) for row in m.sparse_rows)


def full_space(n):
    """The whole space F^n as a Subspace: the unit rows."""
    return Subspace(n, {i: {i: 1} for i in range(n)})


@contextmanager
def literal_tables():
    """Both derivation tables emptied (`extension._PREMISES` and
    `factory._RESTRICTED_RELATIONS`), so that `report.derivable` grants
    nothing and every check is evaluated by its definition."""
    from qaffine import extension, factory

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extension, "_PREMISES", {})
        patch.setattr(factory, "_RESTRICTED_RELATIONS", {})
        yield


def naive_evaluate(words, assignment):
    """A formal sum evaluated word by word with Matrix products and sums, as
    a reference for `evaluate_word`."""
    n = next(iter(assignment.values())).rows
    total = Matrix.zero(n, n)
    for coeff, word in words:
        product = Matrix.identity(n)
        for gen in word:
            product = product @ assignment[gen]
        total = total + coeff * product
    return total


@pytest.fixture(scope="session")
def run_snippet():
    """Run Python code in a fresh interpreter with qaffine importable and
    return the JSON it prints last. Code that hangs fails the test when the
    subprocess timeout expires instead of stalling the suite."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(code: str, timeout: float = 30):
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    return run


def _count_calls(monkeypatch, home, name, record):
    """Wrap the function `name` of module `home` at every qaffine module that
    binds it; each call appends record(*args) to the returned list."""
    original = getattr(home, name)
    calls = []

    def counting(*args):
        calls.append(record(*args))
        return original(*args)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "qaffine" and (
            getattr(module, name, None) is original
        ):
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture()
def matrix_copies(monkeypatch):
    """(method, caller) for each Matrix.shift and Matrix.transpose call, in
    order; the caller is the innermost named function, past comprehensions."""
    calls = []
    for name in ("shift", "transpose"):
        def counting(*args, name=name, original=getattr(Matrix, name)):
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            calls.append((name, frame.f_code.co_name))
            return original(*args)

        monkeypatch.setattr(Matrix, name, counting)
    return calls


@pytest.fixture()
def full_analyses(monkeypatch):
    """The kind of every module given to weights.analyze_full, in order."""
    from qaffine import weights

    return _count_calls(monkeypatch, weights, "analyze_full", lambda m: m.kind)


@pytest.fixture()
def relation_checks(monkeypatch):
    """The presentation kind of every defining-relation evaluation, in order:
    check_presentation is wrapped at each qaffine module that binds it. A
    call whose third argument derives every relation evaluates none, so it
    is not listed."""
    from qaffine import presentations

    kinds = []

    def evaluated(kind, data, derived=frozenset()):
        if {rel.name for rel in presentations.relations_for(kind, data.q)} - derived:
            kinds.append(kind)

    _count_calls(monkeypatch, presentations, "check_presentation", evaluated)
    return kinds


@pytest.fixture()
def char_polys(monkeypatch):
    """The dimension of every matrix given to linalg.char_poly, in order."""
    from qaffine import linalg

    return _count_calls(monkeypatch, linalg, "char_poly", lambda m: m.rows)
