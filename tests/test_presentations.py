from fractions import Fraction as F

import pytest

from qaffine.errors import QAffineError
from qaffine.factory import build_module, restrict_to_ugeq0
from qaffine.linalg import Matrix
from qaffine.presentations import (
    AFFINE_BOREL,
    AFFINE_FULL,
    ALPHABETS,
    FINITE,
    UGEQ0,
    check_presentation,
    evaluate_word,
    formal_sum,
    relations_for,
    term,
)


def trivial_ugeq0(q, alpha=F(1)):
    action = {
        "R": Matrix.zero(1, 1),
        "L": Matrix.zero(1, 1),
        "K": Matrix.from_rows([[alpha]]),
        "Kinv": Matrix.from_rows([[1 / alpha]]),
    }
    return build_module(UGEQ0, q, action, f"trivial(alpha={alpha})")


# -- evaluate_word -------------------------------------------------------------


def test_evaluate_word_inverse_product(q2):
    k = Matrix.diagonal([2, F(1, 2)])
    assignment = {"K": k, "Kinv": k.inverse()}
    out = evaluate_word(formal_sum(term(1, "K", "Kinv")), assignment)
    assert out == Matrix.identity(2)


def test_evaluate_word_scaled_zero(q2):
    from qaffine.scalars import qint

    assignment = {"R": Matrix.zero(3, 3)}
    out = evaluate_word(formal_sum((qint(3, q2), ("R",))), assignment)
    assert out.is_zero()


def test_evaluate_word_weyl_identity_on_restriction(v111, q2):
    # q Kinv A - q^-1 A Kinv - (q - q^-1) 1 vanishes for A = K + R
    r = restrict_to_ugeq0(v111, 1)
    a_mat = r.action["K"] + r.action["R"]
    assignment = {"Kinv": r.action["Kinv"], "A": a_mat}
    words = formal_sum(
        (q2.q, ("Kinv", "A")),
        (-q2.pow(-1), ("A", "Kinv")),
        (-q2.weyl_denominator, ()),
    )
    assert evaluate_word(words, assignment).is_zero()


def test_evaluate_word_missing_generator():
    with pytest.raises(QAffineError):
        evaluate_word(formal_sum(term(1, "X")), {"Y": Matrix.identity(2)})


def test_evaluate_word_missing_generator_after_first_letter():
    words = formal_sum(term(2, "X"), term(1, "X", "X", "Y"), term(-1, "X", "Y"))
    with pytest.raises(QAffineError, match="'Y'"):
        evaluate_word(words, {"X": Matrix.identity(2)})


def test_evaluate_word_merges_cancelling_words():
    x = Matrix.from_rows([[1, 2], [3, 4]])
    words = formal_sum(term(3, "X", "X"), term(1), term(-3, "X", "X"))
    assert evaluate_word(words, {"X": x}) == Matrix.identity(2)


def test_evaluate_word_dimension_mismatch():
    with pytest.raises(QAffineError):
        evaluate_word(
            formal_sum(term(1, "X", "Y")),
            {"X": Matrix.identity(2), "Y": Matrix.identity(3)},
        )


# -- relation lists -------------------------------------------------------------


def test_affine_full_relation_census(q2):
    rels = relations_for(AFFINE_FULL, q2)
    names = [r.name for r in rels]
    assert len(rels) == 21
    assert sum(n.startswith("unit") for n in names) == 4
    assert names.count("commute(K0,K1)") == 1
    assert sum(n.startswith("weight") for n in names) == 8
    assert sum(n.startswith("bracket") for n in names) == 2
    assert sum(n.startswith("commute(e") for n in names) == 2
    assert sum(n.startswith("serre") for n in names) == 4


def test_other_relation_counts(q2):
    assert len(relations_for(UGEQ0, q2)) == 6
    assert len(relations_for(AFFINE_BOREL, q2)) == 11
    assert len(relations_for(FINITE, q2)) == 5


def test_relation_generators_stay_in_alphabet(q2):
    for kind in ALPHABETS:
        allowed = set(ALPHABETS[kind])
        for rel in relations_for(kind, q2):
            for _, word in rel.lhs + rel.rhs:
                assert set(word) <= allowed


# -- check_presentation ----------------------------------------------------------


def test_trivial_module_passes(q2):
    m = trivial_ugeq0(q2, F(7, 2))
    report = check_presentation(UGEQ0, m)
    assert report.passed
    assert all(not e.residual_entries for e in report.entries)


def test_evaluation_module_passes(v111):
    report = check_presentation(AFFINE_FULL, v111)
    assert report.passed
    assert len(report.entries) == 21


def test_corrupted_module_fails_with_residual(v111, q2):
    action = dict(v111.action)
    perturbed = action["e0p"] + Matrix.from_rows([[1, 0], [0, 0]])
    action["e0p"] = perturbed
    bad = build_module(AFFINE_FULL, q2, action, "corrupted", validate=False)
    report = check_presentation(AFFINE_FULL, bad)
    assert not report.passed
    failing = report.failing()
    assert any(e.residual_entries for e in failing)
    assert any(e.name.startswith("serre") for e in failing)


def test_alphabet_mismatch_raises(v111, q2):
    from qaffine.factory import ModuleData

    action = dict(v111.action)
    del action["e0p"]
    incomplete = ModuleData(AFFINE_FULL, 2, q2, action, "incomplete")
    with pytest.raises(QAffineError):
        check_presentation(AFFINE_FULL, incomplete)


def test_report_deterministic(v111):
    r1 = check_presentation(AFFINE_FULL, v111)
    r2 = check_presentation(AFFINE_FULL, v111)
    assert [e.name for e in r1.entries] == [e.name for e in r2.entries]
    assert r1.to_dict() == r2.to_dict()


def test_report_table_renders(v111):
    table = check_presentation(AFFINE_FULL, v111).text_table()
    assert "ALL PASS" in table
    assert "serre(e0p,e1p)" in table
