import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qaffine import cli
from qaffine.cli import main
from qaffine.errors import CheckFailedError
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


def test_extend_analyzes_its_output_once(tmp_path, v111_file, monkeypatch):
    # extend certifies the output type and diameter; the summary line reuses
    # that analysis instead of running it again
    from qaffine import extension, weights

    original = weights.analyze_full
    calls = []

    def counting(m):
        calls.append(m.kind)
        return original(m)

    for module in (cli, extension, weights):
        monkeypatch.setattr(module, "analyze_full", counting)
    restricted = tmp_path / "r.json"
    assert main(["restrict", str(v111_file), "-o", str(restricted)]) == 0
    calls.clear()
    assert main(["extend", str(restricted), "--eps0", "1", "--eps1", "1",
                 "-o", str(tmp_path / "e.json")]) == 0
    assert calls == ["affine_full"]


def test_restrict_to_borel(tmp_path, v111_file):
    out = tmp_path / "b.json"
    assert main(["restrict", str(v111_file), "--target", "borel",
                 "-o", str(out)]) == 0
    assert json.loads(out.read_text())["presentation"] == "affine_borel"


def test_restrict_requires_full_module(tmp_path, v111_file):
    restricted = tmp_path / "r.json"
    main(["restrict", str(v111_file), "-o", str(restricted)])
    assert main(["restrict", str(restricted), "-o", str(tmp_path / "x.json")]) == 2


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
