import json
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from qaffine.errors import ModuleFormatError, RelationError
from qaffine.factory import (
    EvalParams,
    evaluation_module,
    finite_module,
    restrict_to_borel,
    restrict_to_ugeq0,
    tensor_product,
)
from qaffine.modfile import (
    module_from_dict,
    module_to_dict,
    module_to_json,
    read_module,
    report_to_json,
    write_module,
)
from qaffine.presentations import ALPHABETS, check_presentation
from qaffine.report import CheckResult, VerificationReport
from qaffine.scalars import qparam


def test_serialize_parse_is_fixed_point(tensor_13):
    text = module_to_json(tensor_13)
    again = module_from_dict(json.loads(text))
    assert module_to_json(again) == text


def test_module_text_is_json_dumps_layout(q2, tensor_13):
    q = qparam("3/2")
    e = evaluation_module(EvalParams(2, 1, 3), q)
    modules = [
        tensor_13,
        restrict_to_borel(tensor_product(e, evaluation_module(EvalParams(1, -1, 5), q))),
        restrict_to_ugeq0(e, F(-3, 2)),
        finite_module(3, -1, q),
        evaluation_module(EvalParams(80, 1, 1), q2),
        replace(e, provenance='say "tensor(\\a, \\"b\\")" \\ q\u00b2 \u2265 0 \u2713 \U0001d53d'),
    ]
    assert {m.kind for m in modules} == set(ALPHABETS)
    for m in modules:
        assert module_to_json(m) == json.dumps(module_to_dict(m), indent=2) + "\n"



def test_report_text_is_json_dumps_layout(v111):
    odd = 'say "tensor(\\a, \\"b\\")" \\ q\u00b2 \u2265 0 \u2713 \U0001d53d'
    doc = json.loads(module_to_json(v111))
    doc["action"]["K0"][0][0] = "3"
    broken = module_from_dict(doc, validate=False)
    failing = check_presentation(broken.kind, broken)
    assert not failing.passed and any(e.residual_entries for e in failing.entries)
    reports = [
        check_presentation(v111.kind, v111),
        failing,
        VerificationReport(subject=odd),
        VerificationReport(odd, [
            CheckResult(odd, odd, False, ((0, 1, "-3/2"), (2, 0, odd)), odd),
            CheckResult("ok", "", True),
            CheckResult("bad", "anchor", False, (), "dimension 3 of 4"),
        ], {odd: odd, "pass": "overwritten in place", "q": "2"}),
    ]
    for report in reports:
        expected = {"format_version": 1, **report.to_dict()}
        assert report_to_json(report) == json.dumps(expected, indent=2) + "\n"


def test_file_round_trip(tmp_path, v111):
    path = tmp_path / "m.json"
    write_module(v111, path)
    loaded = read_module(path)
    assert loaded.kind == v111.kind
    assert loaded.q == v111.q
    assert loaded.action == v111.action


def test_rationals_serialized_as_strings(q2):
    m = evaluation_module(EvalParams(1, 1, F(3, 2)), q2)
    doc = module_to_dict(m)
    assert doc["q"] == "2"
    flat = [v for rows in doc["action"].values() for row in rows for v in row]
    assert all(isinstance(v, str) for v in flat)
    assert "3/2" in flat


def test_generator_order_is_alphabet_order(v111):
    doc = module_to_dict(v111)
    assert tuple(doc["action"]) == ALPHABETS[v111.kind]


def test_ugeq0_round_trip(tmp_path, v111):
    r = restrict_to_ugeq0(v111, F(5, 2))
    path = tmp_path / "r.json"
    write_module(r, path)
    assert read_module(path).action == r.action


def test_session_q_mismatch(tmp_path, v111):
    path = tmp_path / "m.json"
    write_module(v111, path)
    with pytest.raises(ModuleFormatError):
        read_module(path, session_q=qparam(3))
    assert read_module(path, session_q=qparam(2)).dim == 2


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ModuleFormatError):
        read_module(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ModuleFormatError):
        read_module(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format_version=99),
        lambda d: d.update(presentation="mystery"),
        lambda d: d.update(q="1"),
        lambda d: d.update(q=2),
        lambda d: d.update(dim="two"),
        lambda d: d.update(format_version=1.0),
        lambda d: d["action"].pop("e0p"),
        lambda d: d["action"]["e0p"][0].pop(),
        lambda d: d["action"]["e0p"][0].__setitem__(0, 0.5),
        lambda d: d.update(provenance=42),
    ],
)
def test_malformed_documents_rejected(v111, mutate):
    doc = json.loads(module_to_json(v111))
    mutate(doc)
    with pytest.raises(ModuleFormatError):
        module_from_dict(doc)


@pytest.mark.parametrize("field", ["dim", "format_version"])
def test_json_true_is_not_an_integer(q2, field):
    # bool is an int subclass and True == 1: a 1-dim module file with
    # "dim": true or "format_version": true used to load and re-serialize
    # the field as 1, so the file did not round-trip byte for byte
    doc = json.loads(module_to_json(finite_module(0, 1, q2)))
    assert doc["dim"] == 1 and doc["format_version"] == 1
    doc[field] = True
    with pytest.raises(ModuleFormatError, match=field):
        module_from_dict(doc)


@pytest.mark.parametrize("entry", ["1e10000000", "0.5", "1_000", "+1", "1/2.0"])
def test_non_rational_strings_rejected_fast(tmp_path, v111, entry):
    # "1e10000000" is 10 bytes that Fraction(str) turns into a 33-Mbit integer
    doc = json.loads(module_to_json(v111))
    doc["action"]["K0"][0][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    with pytest.raises(ModuleFormatError, match="not an exact rational"):
        read_module(path)
    assert time.perf_counter() - start < 1.0


def _entry_strings(doc):
    return [v for rows in doc["action"].values() for row in rows for v in row]


def test_each_distinct_entry_is_parsed_once(tmp_path, monkeypatch, q2):
    # one as_scalar call per distinct entry string other than "0", plus two
    # for q: the file's string and QParam's own coercion; validate=False
    # leaves out the relation check, so that only the parse is counted
    from conftest import _count_calls
    from qaffine import scalars

    path = tmp_path / "m.json"
    write_module(evaluation_module(EvalParams(3, 1, 5), q2), path)
    entries = _entry_strings(json.loads(path.read_text()))
    distinct = set(entries) - {"0"}
    calls = _count_calls(monkeypatch, scalars, "as_scalar", lambda value: value)
    module = read_module(path, validate=False)
    assert module.dim == 4
    assert len(calls) == len(distinct) + 2 < len(entries) + 2
    assert calls[:2] == ["2", 2] and sorted(calls[2:]) == sorted(distinct)
    # the memo lives for one read: a second read parses the same strings again
    read_module(path, validate=False)
    assert len(calls) == 2 * (len(distinct) + 2)


@pytest.mark.parametrize("entry", [0, 0.0, False, None, [], {}])
def test_non_string_entries_rejected(v111, entry):
    doc = json.loads(module_to_json(v111))
    assert doc["action"]["K0"][0][1] == "0"
    doc["action"]["K0"][0][1] = entry
    with pytest.raises(ModuleFormatError, match="rationals must be strings"):
        module_from_dict(doc)


@pytest.mark.parametrize("entry", ["0/7", "-0", "00", " 0"])
def test_other_spellings_of_zero_load_as_zero(v111, entry):
    doc = json.loads(module_to_json(v111))
    assert doc["action"]["K0"][0][1] == "0"
    doc["action"]["K0"][0][1] = entry
    doc["action"]["e0p"][1][1] = entry
    loaded = module_from_dict(doc)
    assert loaded.action == v111.action
    assert module_to_json(loaded) == module_to_json(v111)


def test_repeated_bad_entry_names_its_first_generator(v111):
    doc = json.loads(module_to_json(v111))
    for gen in ("K1", "e0p", "K0"):
        doc["action"][gen][0][1] = "1e5"
    with pytest.raises(ModuleFormatError) as info:
        module_from_dict(doc)
    assert str(info.value) == "action[e0p]: not an exact rational: '1e5'"


def test_relation_violation_named_on_load(v111):
    doc = json.loads(module_to_json(v111))
    doc["action"]["e0p"][0][0] = "1"
    with pytest.raises(RelationError) as info:
        module_from_dict(doc)
    assert info.value.relation.startswith("weight")


def test_validate_false_loads_broken_module(v111):
    doc = json.loads(module_to_json(v111))
    doc["action"]["e0p"][0][0] = "1"
    m = module_from_dict(doc, validate=False)
    assert m.action["e0p"].at(0, 0) == 1
