import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from qaffine import cli
from qaffine.cli import main
from qaffine.errors import CheckFailedError
from qaffine.factory import EvalParams, evaluation_module, tensor_product
from qaffine.linalg import Subspace
from qaffine.modfile import write_module


@pytest.fixture()
def v111_file(tmp_path, v111):
    path = tmp_path / "v111.json"
    write_module(v111, path)
    return path


def test_build_eval(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["build", "eval", "--d", "1", "--eps", "1", "--a", "1",
                 "-o", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "type=(1,1)" in stdout and "diameter=1" in stdout
    doc = json.loads(out.read_text())
    assert doc["presentation"] == "affine_full"
    assert doc["dim"] == 2


def test_build_finite(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["build", "finite", "--d", "0", "--eps", "-1",
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["action"]["k"] == [["-1"]]


def test_build_tensor(tmp_path, v111_file):
    out = tmp_path / "t.json"
    assert main(["build", "tensor", str(v111_file), str(v111_file),
                 "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 4


def test_verify_pass_with_report(tmp_path, v111_file, capsys):
    report = tmp_path / "rep.json"
    assert main(["verify", str(v111_file), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["pass"] is True
    assert len(doc["checks"]) >= 21
    assert all(c["residual_nonzero_entries"] == [] for c in doc["checks"])


def test_parser_is_built_once_per_process(tmp_path, v111_file, capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["verify", str(v111_file)]) == 0
    assert main(["--q", "3", "verify", str(v111_file)]) == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_consecutive_verifies_share_no_report(tmp_path, v111_file, v113):
    other = tmp_path / "v113.json"
    write_module(v113, other)
    report = tmp_path / "rep.json"
    assert main(["verify", str(v111_file), "--report", str(report)]) == 0
    report.unlink()
    assert main(["verify", str(other)]) == 0
    assert not report.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v111.json", "v113.json"]


def test_consecutive_extends_share_no_trace(tmp_path, v111_file):
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    trace = tmp_path / "t.json"
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "--trace", str(trace), "-o", str(tmp_path / "e1.json")]) == 0
    trace.unlink()
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "-o", str(tmp_path / "e2.json")]) == 0
    assert not trace.exists()
    assert (tmp_path / "e1.json").read_text() == (tmp_path / "e2.json").read_text()


def test_verify_corrupted_names_relation(tmp_path, v111_file, capsys):
    doc = json.loads(v111_file.read_text())
    doc["action"]["e0p"][0][0] = "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "weight(K0,e0p)" in out


def test_verify_parse_error(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("[]")
    assert main(["verify", str(bad)]) == 2


def test_deeply_nested_json_is_parse_error(tmp_path, capsys):
    # json.loads raises RecursionError beyond the interpreter's depth limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 1500 + "]" * 1500)
    assert main(["verify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["build", "eval", "--d", "1", "--eps", "1", "--a", "1", "-o", "{missing}/m.json"],
    ["verify", "{module}", "--report", "{missing}/r.json"],
    ["roundtrip", "{module}", "--report", "{missing}/r.json"],
    ["extend", "{restricted}", "--eps0", "1", "--eps1", "1", "-o", "{tmp}/e.json",
     "--trace", "{missing}/t.json"],
])
def test_unwritable_output_is_parse_error(tmp_path, v111_file, capsys, argv):
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    capsys.readouterr()
    paths = {"missing": tmp_path / "missing", "module": v111_file,
             "restricted": restricted, "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'missing'}")
    assert err.count("\n") == 1


def test_failed_trace_write_leaves_no_module(tmp_path, v111_file, capsys):
    # the trace is written before the module, so exit 2 leaves no -o file
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    capsys.readouterr()
    out = tmp_path / "e2.json"
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "-o", str(out), "--trace", str(tmp_path / "missing" / "t.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field", ["dim", "format_version"])
def test_json_true_field_is_parse_error(tmp_path, field, capsys):
    path = tmp_path / "one.json"
    assert main(["build", "finite", "--d", "0", "--eps", "1", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc[field] = True
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    """``python -m qaffine``: build, restrict, extend --trace, roundtrip."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    steps = [
        ["build", "eval", "--d", "1", "--eps", "1", "--a", "3", "-o", "m.json"],
        ["restrict", "m.json", "--alpha", "2", "-o", "r.json"],
        ["extend", "r.json", "--eps0", "1", "--eps1", "1", "--trace", "t.json",
         "-o", "e.json"],
        ["roundtrip", "m.json", "--alpha", "2"],
    ]
    for argv in steps:
        done = subprocess.run(
            [sys.executable, "-m", "qaffine", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (argv, done.stderr)
    checks = json.loads((tmp_path / "t.json").read_text())["checks"]
    assert len(checks) == 71
    assert all(c["pass"] for c in checks)
    assert "ALL PASS" in done.stdout


def test_verify_q_unit_rejected(tmp_path, v111_file):
    doc = json.loads(v111_file.read_text())
    doc["q"] = "1"
    bad = tmp_path / "q1.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2


def test_session_q_mismatch_is_parse_error(v111_file):
    assert main(["--q", "3", "verify", str(v111_file)]) == 2


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_exponent_scalar_is_parse_error(tmp_path, v111_file, command):
    doc = json.loads(v111_file.read_text())
    doc["action"]["K0"][0][0] = "1e10000000"
    bad = tmp_path / "exp.json"
    bad.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main([command, str(bad)]) == 2
    assert time.perf_counter() - start < 1.0


def test_restrict_and_extend_round_trip(tmp_path, v111_file, capsys):
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "--alpha", "1",
                 "-o", str(restricted)]) == 0
    assert "type=1" in capsys.readouterr().out
    extended = tmp_path / "e.json"
    trace = tmp_path / "trace.json"
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "--trace", str(trace), "-o", str(extended)]) == 0
    assert json.loads(extended.read_text())["action"] == \
        json.loads(v111_file.read_text())["action"]
    trace_doc = json.loads(trace.read_text())
    assert trace_doc["summary"]["pass"] is True
    assert len(trace_doc["checks"]) == 71


def test_extend_analyzes_its_output_once(tmp_path, v111_file, full_analyses):
    # extend certifies the output type and diameter; the summary line reuses
    # that analysis instead of running it again
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    full_analyses.clear()
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "-o", str(tmp_path / "e.json")]) == 0
    assert full_analyses == ["affine_full"]


def test_roundtrip_analyzes_input_and_output_once(v111_file, full_analyses):
    # the input's type signs come from one analysis, which the restriction
    # reuses through ModuleData.weights; the output gets its own
    assert main(["roundtrip", str(v111_file), "--alpha", "2"]) == 0
    assert full_analyses == ["affine_full", "affine_full"]


def test_extend_evaluates_relations_twice(tmp_path, v111_file, relation_checks):
    # once when the file is read and once on the assembled output; the
    # input-relations entry reuses the first
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    relation_checks.clear()
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "-o", str(tmp_path / "e.json")]) == 0
    assert relation_checks == ["ugeq0", "affine_full"]


def test_restrict_evaluates_relations_once(tmp_path, v111_file, relation_checks):
    assert main(["restrict", str(v111_file), "-o", str(tmp_path / "r.json")]) == 0
    assert relation_checks == ["affine_full"]


def test_roundtrip_evaluates_relations_twice(v111_file, relation_checks, monkeypatch):
    # the file when it is read and the assembled output: the restriction's
    # six relations are derived from the read report, and each check is one
    # relation list
    from qaffine import presentations

    lists = []
    evaluate_word = presentations.evaluate_word

    def recorded(words, assignment):
        lists.append(len(words.plan.sums))
        return evaluate_word(words, assignment)

    monkeypatch.setattr(presentations, "evaluate_word", recorded)
    assert main(["roundtrip", str(v111_file), "--alpha", "2"]) == 0
    assert relation_checks == ["affine_full", "affine_full"]
    # read, A and A*, B and B*, the lowering suite, the output (16 of its 21
    # relations derived from checks already made)
    assert lists == [21, 4, 8, 10, 5]


def test_corrupted_raising_generator_reports_residuals(tmp_path, capsys):
    # one entry of e0p changed: verify exits 3 and each failing relation
    # names its first residual entry and how many more there are
    factors = [tmp_path / f"e{a}.json" for a in (1, 11)]
    for path, a in zip(factors, (1, 11)):
        assert main(["build", "eval", "--d", "3", "--eps", "1", "--a", str(a),
                     "-o", str(path)]) == 0
    t16 = tmp_path / "t16.json"
    assert main(["build", "tensor", *map(str, factors), "-o", str(t16)]) == 0
    doc = json.loads(t16.read_text())
    assert doc["action"]["e0p"][0][1] == "462"
    doc["action"]["e0p"][0][1] = "463"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 3
    failing = [line for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    assert failing == [
        "bracket(e0p,e0m)  FAIL    residual[0,0]=1/11 (+2 more)",
        "commute(e0p,e1m)  FAIL    residual[0,2]=5/2 (+1 more)",
        "serre(e0p,e1p)    FAIL    residual[0,2]=546315/8 (+8 more)",
        "serre(e1p,e0p)    FAIL    residual[2,0]=-105/4096 (+6 more)",
    ]


BAD_FULL = "error: construction of 'eval(d=1,eps=1,a=1)' violates unit(K0 K0inv)\n"
BAD_UGEQ0 = (
    "error: construction of 'restrict_ugeq0(eval(d=1,eps=1,a=1), alpha=1)' "
    "violates unit(K Kinv)\n"
)


@pytest.mark.parametrize("argv, stderr", [
    (["build", "tensor", "{good}", "{bad}", "-o", "{out}"], BAD_FULL),
    (["restrict", "{bad}", "-o", "{out}"], BAD_FULL),
    (["extend", "{bad}", "--eps0", "1", "--eps1", "1", "-o", "{out}"], BAD_UGEQ0),
    (["roundtrip", "{bad}", "--report", "{out}"], BAD_FULL),
])
def test_relation_violating_file_stops_at_read(
    tmp_path, v111_file, capsys, argv, stderr
):
    # the derived modules are not checked again, so a bad file must be
    # rejected where it is read: exit 3, nothing written, the relation named
    good = v111_file
    if argv[0] == "extend":
        good = tmp_path / "r.json"
        assert main(["restrict", str(v111_file), "-o", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["action"]["K" if argv[0] == "extend" else "K0"][0][0] = "3"
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    paths = {"good": good, "bad": bad, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == 3
    assert not out.exists()
    assert capsys.readouterr().err == stderr


def test_restrict_to_borel(tmp_path, v111_file):
    out = tmp_path / "b.json"
    assert main(["restrict", str(v111_file), "--target", "borel",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["presentation"] == "affine_borel"


def test_restrict_requires_full_module(tmp_path, v111_file):
    restricted = tmp_path / "r.json"
    main(["restrict", str(v111_file), "-o", str(restricted)])
    assert main(["restrict", str(restricted), "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("verb, options, required, given", [
    ("restrict", ["-o", "x.json"], "an affine_full", "ugeq0"),
    ("extend", ["--eps0", "1", "--eps1", "1", "-o", "x.json"], "a ugeq0", "affine_full"),
    ("roundtrip", [], "an affine_full", "ugeq0"),
])
def test_verbs_name_the_kind_they_require(
    tmp_path, v111_file, capsys, verb, options, required, given
):
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    capsys.readouterr()
    path = restricted if given == "ugeq0" else v111_file
    options = [str(tmp_path / o) if o.endswith(".json") else o for o in options]
    assert main([verb, str(path), *options]) == 2
    assert capsys.readouterr().err == (
        f"error: {verb} requires {required} module, got {given}\n"
    )
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["--q", "-3/2", "build", "eval", "--d", "1", "--eps", "1", "--a", "2"],
    ["build", "eval", "--d", "1", "--eps", "-1", "--a", "-1/5"],
    ["restrict", "FILE", "--alpha", "-2/7"],
], ids=["q", "a", "alpha"])
def test_negative_fraction_after_a_space(tmp_path, v111_file, capsys, argv):
    # argparse reads "-p/q" after a space as an option string, so main joins
    # it to its flag: the spaced form and the "=" form give the same bytes,
    # and "--eps -1", a negative number to argparse, is left as it is
    out = tmp_path / "out.json"
    argv = [str(v111_file) if a == "FILE" else a for a in argv] + ["-o", str(out)]
    k = next(i for i, a in enumerate(argv) if a.startswith("-") and "/" in a)
    joined = argv[:k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1:]
    results = []
    for form in (argv, joined):
        code = main(form)
        results.append((code, capsys.readouterr(), out.read_bytes()))
        out.unlink()
    assert results[0] == results[1]
    assert results[0][0] == 0 and not results[0][1].err


@pytest.mark.parametrize("verb", ["restrict", "roundtrip"])
@pytest.mark.parametrize("option", ["--a", "--al", "--alph"])
def test_negative_fraction_after_an_abbreviation(tmp_path, v111_file, capsys, verb, option):
    # argparse takes a unique prefix of --alpha for it, and so does the
    # joining of a fraction after a space: same bytes as "--alpha=-2/7"
    out = tmp_path / "out.json"
    extra = ["-o", str(out)] if verb == "restrict" else ["--report", str(out)]
    results = []
    for form in ([option, "-2/7"], ["--alpha=-2/7"]):
        code = main([verb, str(v111_file), *form, *extra])
        results.append((code, capsys.readouterr(), out.read_bytes()))
        out.unlink()
    assert results[0] == results[1]
    assert results[0][0] == 0 and not results[0][1].err


def test_negative_fraction_with_zero_denominator(tmp_path, v111_file, capsys):
    out = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "--alpha", "-1/0", "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: not an exact rational: '-1/0'"]
    assert not out.exists()


def test_extend_reducible_exits_4(tmp_path, q2):
    from qaffine.factory import build_module
    from qaffine.linalg import Matrix

    m = build_module(
        "ugeq0",
        q2,
        {
            "R": Matrix.zero(2, 2),
            "L": Matrix.zero(2, 2),
            "K": Matrix.identity(2),
            "Kinv": Matrix.identity(2),
        },
        "reducible",
    )
    path = tmp_path / "red.json"
    write_module(m, path)
    assert main(["extend", str(path), "--eps0", "1", "--eps1", "1",
                 "-o", str(tmp_path / "out.json")]) == 4


def test_pipeline_failure_exits_5(tmp_path, v111_file, monkeypatch):
    import qaffine.cli as cli

    def boom(module, eps0, eps1):
        raise CheckFailedError("weyl(A,B)")

    monkeypatch.setattr(cli, "extend", boom)
    restricted = tmp_path / "r.json"
    main(["restrict", str(v111_file), "-o", str(restricted)])
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "-o", str(tmp_path / "out.json")]) == 5


@pytest.mark.parametrize("alpha", ["1", "5"])
def test_roundtrip_command(tmp_path, v111_file, alpha, capsys):
    report = tmp_path / "rt.json"
    assert main(["roundtrip", str(v111_file), "--alpha", alpha,
                 "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["summary"]["pass"] is True
    assert len(doc["checks"]) == 8


def test_roundtrip_failure_reports_residual_detail(tmp_path, v111_file, monkeypatch):
    from dataclasses import replace
    from fractions import Fraction

    from qaffine.linalg import Matrix

    real_extend = cli.extend

    def perturbed(module, eps0, eps1):
        full, trace = real_extend(module, eps0, eps1)
        rows = full.action["e0p"].to_rows()
        rows[0][1] += Fraction(1, 3)
        action = {**full.action, "e0p": Matrix.from_rows(rows)}
        return replace(full, action=action), trace

    monkeypatch.setattr(cli, "extend", perturbed)
    report = tmp_path / "rt.json"
    assert main(["roundtrip", str(v111_file), "--report", str(report)]) == 5
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    bad = checks["roundtrip(e0p)"]
    assert bad["pass"] is False
    assert bad["residual_nonzero_entries"] == [[0, 1, "1/3"]]
    assert bad["detail"] == "1 nonzero residual entries"
    assert all(c["pass"] and c["detail"] == ""
               for name, c in checks.items() if name != "roundtrip(e0p)")


def test_roundtrip_negative_type(tmp_path, q2, v111):
    from qaffine.factory import twist_full

    tw = twist_full(v111, -1, -1)
    path = tmp_path / "tw.json"
    write_module(tw, path)
    assert main(["roundtrip", str(path)]) == 0


def test_analyze_reports_verdict(tmp_path, v111, v114, capsys):
    from qaffine.factory import tensor_product

    t = tensor_product(v111, v114)
    path = tmp_path / "t14.json"
    write_module(t, path)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "NotIrreducible" in out
    assert "proper invariant subspace" in out


def test_analyze_irreducible(tmp_path, v111_file, capsys):
    assert main(["analyze", str(v111_file)]) == 0
    assert "AbsolutelyIrreducible" in capsys.readouterr().out


@pytest.fixture()
def dense_views(monkeypatch):
    """The name of each dense view read, in order: Subspace.basis is wrapped
    to record it. Matrix has no dense column view (only the test helpers
    `matrix_column` and `matrix_columns` build one), so the package reads
    no other."""
    reads = []
    basis = Subspace.basis.func

    def counting_basis(self):
        reads.append("basis")
        return basis(self)

    monkeypatch.setattr(Subspace, "basis", property(counting_basis))
    return reads


@pytest.mark.parametrize("verb, module", [
    ("roundtrip", "t16"), ("roundtrip", "eval40"),
    ("analyze", "rt16"), ("analyze", "dense_t14"),
])
def test_irreducibility_test_reads_no_dense_view(
    tmp_path, q2, dense_tensor_14, dense_views, verb, module
):
    # the Norton spins, the word span and the witness search are seeded with
    # echelon rows, so no basis matrix or dense column is built
    def ev(d, a):
        return evaluation_module(EvalParams(d, 1, a), q2)

    modules = {
        "t16": lambda: tensor_product(ev(3, 1), ev(3, 11)),
        "eval40": lambda: ev(40, 1),
        "rt16": lambda: tensor_product(ev(3, 1), ev(3, 4)),
        "dense_t14": lambda: dense_tensor_14[0],
    }
    path = tmp_path / f"{module}.json"
    write_module(modules[module](), path)
    assert main([verb, str(path)]) == 0
    assert dense_views == []


@pytest.mark.parametrize("module", ["t16", "eval40"])
def test_roundtrip_builds_no_shifted_or_transposed_copy(
    tmp_path, q2, matrix_copies, module
):
    # the weight ladder, the eigenflags and every image move take their
    # eigenvalue shifts and columns from the integer views: only R and L of
    # the lowering suite are shifted, and only B, B* read off their graphs
    # are transposed
    def ev(d, a):
        return evaluation_module(EvalParams(d, 1, a), q2)

    modules = {
        "t16": lambda: tensor_product(ev(3, 1), ev(3, 11)),
        "eval40": lambda: ev(40, 1),
    }
    path = tmp_path / f"{module}.json"
    write_module(modules[module](), path)
    assert main(["roundtrip", str(path), "--alpha", "1"]) == 0
    assert sorted(matrix_copies) == (
        [("shift", "_lowering_suite")] * 2 + [("transpose", "from_graph")] * 2
    )


def test_analyze_spins_from_integer_columns(tmp_path, q2, matrix_copies):
    # dense rt16: the Norton spins and the witness search read each
    # generator's integer columns and take eigenvalue shifts into the
    # kernels, so only char_poly builds a shifted matrix; the blocks of the
    # composition factors are built by their rows and the splitting system
    # reads g_Q's integer columns, so nothing is transposed
    from test_properties import unit_lu

    rt16 = tensor_product(*(evaluation_module(EvalParams(3, 1, a), q2) for a in (1, 4)))
    p = unit_lu(16, 1)
    p_inv = p.inverse()
    action = {g: p_inv @ a @ p for g, a in rt16.action.items()}
    path = tmp_path / "dense_rt16.json"
    write_module(replace(rt16, action=action), path)
    matrix_copies.clear()
    assert main(["analyze", str(path)]) == 0
    assert [call for call in matrix_copies if call[0] == "transpose"] == []
    assert {caller for name, caller in matrix_copies if name == "shift"} == {"char_poly"}


def test_build_invalid_parameter_exits_2(tmp_path):
    out = tmp_path / "m.json"
    assert main(["build", "eval", "--d", "1", "--eps", "1", "--a", "0",
                 "-o", str(out)]) == 2
    assert main(["build", "eval", "--d", "-1", "--eps", "1", "--a", "1",
                 "-o", str(out)]) == 2


def test_session_q_flag_sets_build_parameter(tmp_path):
    out = tmp_path / "m3.json"
    assert main(["--q", "3", "build", "eval", "--d", "1", "--eps", "1",
                 "--a", "1", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["q"] == "3"


def test_dim48_roundtrip_time_bound(run_snippet, tmp_path):
    # eval(3,1,1) (x) eval(3,1,11) (x) eval(2,1,37) at q = 2: the flags, the
    # split spaces, the W grid and the change of basis for B, B* all run
    # through the sparse echelon form (about 9-12 s with dense elimination)
    path = tmp_path / "t48.json"
    seconds, last = run_snippet(
        f"""
        import contextlib, io, json, time
        from fractions import Fraction as F
        from qaffine.cli import main
        from qaffine.factory import EvalParams, evaluation_module, tensor_product
        from qaffine.modfile import write_module
        from qaffine.scalars import qparam

        q = qparam(F(2))
        a, b, c = (evaluation_module(EvalParams(d, 1, F(x)), q)
                   for d, x in ((3, 1), (3, 11), (2, 37)))
        write_module(tensor_product(tensor_product(a, b), c), {str(path)!r})
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            main(["roundtrip", {str(path)!r}, "--alpha", "1"])
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, out.getvalue().splitlines()[-1]]))
        """,
        timeout=120,
    )
    assert last == "ALL PASS"
    assert seconds < 10.0, f"dim-48 roundtrip took {seconds:.2f} s"


def write_reducible(path, d, restrict=False):
    """Python that writes rt16 (x) eval(d,1,37) at q = 2 to path, rt16 =
    eval(3,1,1) (x) eval(3,1,4), or with restrict its U>=0 restriction of
    type alpha = 1."""
    return f"""
        from fractions import Fraction as F
        from qaffine.factory import (
            EvalParams, evaluation_module, restrict_to_ugeq0, tensor_product)
        from qaffine.modfile import write_module
        from qaffine.scalars import qparam

        q = qparam(F(2))
        a, b, c = (evaluation_module(EvalParams(d, 1, F(x)), q)
                   for d, x in ((3, 1), (3, 4), ({d}, 37)))
        m = tensor_product(tensor_product(a, b), c)
        write_module(restrict_to_ugeq0(m, 1) if {restrict} else m, {str(path)!r})
        """


@pytest.mark.parametrize("d, detail", [
    (1, "word span 964 of 1024; proper invariant subspace of dim 30"),
    (2, "word span 2169 of 2304; proper invariant subspace of dim 45"),
], ids=["rt32", "rt48"])
def test_reducible_analyze_time_bound(run_snippet, tmp_path, d, detail):
    # rt32 and rt48 have a dim-30 (dim-45) submodule and a dim-2 (dim-3)
    # quotient, both Norton-certified: the span is counted from them, not
    # closed in F^1024 (13 s) or F^2304 (322 s)
    path = tmp_path / "rt.json"
    seconds, status, lines = run_snippet(write_reducible(path, d) + f"""
        import contextlib, io, json, time
        from qaffine.cli import main

        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            status = main(["analyze", {str(path)!r}])
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, status, out.getvalue().splitlines()]))
        """, timeout=60)
    assert status == 0
    assert f"irreducibility: NotIrreducible ({detail})" in lines
    assert seconds < 5, f"analyze of rt{16 * (d + 1)} took {seconds:.2f} s"


def test_reducible_extend_time_bound(run_snippet, tmp_path):
    # the U>=0 restriction of rt32 is refused with exit 4 once the word span
    # is counted, with no module written
    path, out = tmp_path / "rr32.json", tmp_path / "rx32.json"
    seconds, status, error = run_snippet(write_reducible(path, 1, restrict=True) + f"""
        import contextlib, io, json, time
        from qaffine.cli import main

        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            status = main(["extend", {str(path)!r}, "--eps0", "1", "--eps1", "1",
                           "-o", {str(out)!r}])
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, status, err.getvalue()]))
        """, timeout=60)
    assert status == 4
    assert "word span dimension is 964 of 1024" in error
    assert not out.exists()
    assert seconds < 5, f"extend of rt32's restriction took {seconds:.2f} s"
