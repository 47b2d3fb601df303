"""Tests of the benchmark itself: span arithmetic, the answer key, and the
seeded input generator. Run with `python -m pytest bench -q` from the
repository root."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import answer_key as key
import spans
import workloads
from qaffine import analysis, cli, modfile


def test_self_time_on_nested_spans():
    # a [0, 10] > b [1, 4], c [5, 9] > b [6, 7]; d [10, 15] > d [11, 12]
    synthetic = [
        ["a", 0.0, 10.0, -1, "i0"],
        ["b", 1.0, 4.0, 0, "i0"],
        ["c", 5.0, 9.0, 0, "i0"],
        ["b", 6.0, 7.0, 2, "i0"],
        ["d", 10.0, 15.0, -1, "i1"],
        ["d", 11.0, 12.0, 4, "i1"],
    ]
    t = spans.layer_times(synthetic)
    assert t["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert t["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert t["c"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    # recursion: only the outermost d counts towards the total
    assert t["d"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert spans.item_breakdown(synthetic, "c", "b") == {"i0": (4.0, 1.0)}


def test_instrument_records_and_restores(tmp_path):
    original = cli.read_module
    item = workloads.warmup_items("catalogue")[0]
    wl = workloads.Workload("catalogue", tmp_path)
    rec = spans.SpanRecorder()
    with spans.instrument(rec):
        assert cli.read_module is not original
        assert wl.run(item) == []
    assert cli.read_module is original
    times = spans.layer_times(rec.spans)
    assert times["cli.main"]["calls"] == 2  # verify, then verify of the bad copy
    assert times["modfile.read_module"]["calls"] >= 3
    assert rec.counts["modfile.bytes_written"] > 0
    assert rec.counts["linalg.max_bits"] > 0


def test_q_string_criterion():
    q = Fraction(2)
    for m, n, expected in ((1, 1, {2}), (1, 2, {3}), (2, 2, {2, 4})):
        found = {
            k for k in range(1, 8)
            if not key.tensor_irreducible(((m, 1, Fraction(1)), (n, 1, q**k)), q)
        }
        assert found == expected
        for k in range(1, 8):  # the criterion is symmetric in b/a -> a/b
            assert key.tensor_irreducible(((m, 1, Fraction(1)), (n, 1, q**-k)), q) \
                == (k not in expected)
    assert key.is_q_power(Fraction(-8, 27), Fraction(3, 2))
    assert not key.is_q_power(Fraction(5, 3), Fraction(3, 2))
    with pytest.raises(ValueError):
        key.tensor_irreducible(((1, -1, Fraction(1)), (1, 1, Fraction(4))), q)


def test_generator_is_deterministic():
    for w in ("roundtrip", "reducible", "catalogue"):
        assert workloads.generate(w, 5) == workloads.generate(w, 5)
        assert workloads.generate(w, 5) != workloads.generate(w, 6)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_inputs_have_known_verdicts(seed):
    for name in ("roundtrip", "reducible"):
        for item in workloads.generate(name, seed):
            if item.dim > 8:
                continue
            factors, twist = item.spec[0], item.spec[1]
            module = workloads.build_tensor(factors, item.q, twist)
            verdict = analysis.burnside_irreducible(module).verdict
            expected = key.tensor_irreducible(factors, item.q)
            assert expected == (name == "roundtrip")
            assert (verdict == analysis.ABSOLUTELY_IRREDUCIBLE) == expected, item


def test_answer_key_flags_a_wrong_output_matrix(tmp_path):
    factors = ((1, 1, Fraction(1)), (1, -1, Fraction(3)))
    path = tmp_path / "m.json"
    modfile.write_module(workloads.build_tensor(factors, Fraction(2)), path)
    doc = json.loads(path.read_text())
    wrong = json.loads(path.read_text())
    wrong["action"]["e0m"][1][0] = "1/7"
    assert key.action_mismatches(doc, doc) == []
    assert key.action_mismatches(doc, wrong) == [
        f"e0m[1][0] = '1/7', expected {doc['action']['e0m'][1][0]!r}"
    ]
    assert key.trace_problems({"checks": [{"name": "x", "pass": True}] * 70})


def test_answer_key_flags_a_wrong_exit_code(tmp_path):
    item = workloads.warmup_items("reducible")[0]
    wl = workloads.Workload("reducible", tmp_path)
    wl.prepare([item])
    assert wl.run(item) == []
    # An irreducible restriction in place of the reducible one: extend now
    # succeeds, which the key must report.
    irreducible = workloads.build_tensor(
        ((1, 1, Fraction(1)), (1, 1, Fraction(3))), item.q)
    modfile.write_module(
        workloads.factory.restrict_to_ugeq0(irreducible, 1), wl.restrictions[item.index])
    problems = wl.run(item)
    assert "extend exited 0, expected 4" in problems
    assert "extend wrote a module for a reducible input" in problems


def test_corrupted_copy_fails_verify(tmp_path):
    path = tmp_path / "m.json"
    modfile.write_module(workloads.build_tensor(((2, 1, Fraction(5)),), Fraction(3, 2)), path)
    for s in range(5):
        bad, _ = key.corrupt(path.read_text(), random.Random(s))
        (tmp_path / "bad.json").write_text(bad)
        assert workloads.run_cli(["verify", str(tmp_path / "bad.json")]) == key.EXIT_RELATION
