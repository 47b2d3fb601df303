import json
import time
from fractions import Fraction as F

import pytest

from qaffine.errors import ModuleFormatError, RelationError
from qaffine.factory import (
    EvalParams,
    evaluation_module,
    finite_module,
    restrict_to_ugeq0,
)
from qaffine.modfile import (
    module_from_dict,
    module_to_dict,
    module_to_json,
    read_module,
    write_module,
)
from qaffine.presentations import ALPHABETS
from qaffine.scalars import qparam


def test_serialize_parse_is_fixed_point(tensor_13):
    text = module_to_json(tensor_13)
    again = module_from_dict(json.loads(text))
    assert module_to_json(again) == text


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
