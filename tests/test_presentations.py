from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import naive_evaluate
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
    check_relations,
    evaluate_word,
    formal_sum,
    relations_for,
    term,
)
from qaffine.report import CheckLog


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


def test_check_relations_logs_derived_checks_in_place(q2, monkeypatch):
    # a relation named in derived is logged as passed under its own name and
    # this anchor, at its position, with nothing evaluated; the others are
    # one relation list, evaluated once, with the assignment checked once
    from qaffine import presentations

    k = Matrix.diagonal([2, F(1, 2)])
    action = {"R": Matrix.from_rows([[0, 0], [1, 0]]), "L": Matrix.from_rows([[0, 1], [0, 0]]),
              "K": k, "Kinv": k.inverse()}
    relations = relations_for(UGEQ0, q2)
    reference = CheckLog()
    check_relations(reference, "here", relations, action)
    assert reference.entries[4].name == "serre(R,L)" and reference.entries[4].passed
    lists = []
    evaluate_word = presentations.evaluate_word

    def recorded(words, assignment):
        lists.append(len(words.plan.sums))
        return evaluate_word(words, assignment)

    monkeypatch.setattr(presentations, "evaluate_word", recorded)
    log = CheckLog()
    check_relations(log, "here", relations, action, frozenset({"serre(R,L)"}))
    assert lists == [5]
    assert log.entries == reference.entries
    lists.clear()
    derived = CheckLog()
    check_relations(derived, "here", relations[4:5], action, {"serre(R,L)", "serre(e0p,e1p)"})
    assert lists == [] and derived.entries == reference.entries[4:5]


def test_evaluate_word_cancels_inside_a_chain_product():
    # Every entry of N N cancels between two nonzero products, so the last
    # product of A N N B, the halves A N times N B, adds only cancelling
    # terms into the residual.
    a = Matrix.from_rows([[1, 2, 0], [F(1, 2), 1, 3], [0, -1, 1]])
    n = Matrix.from_rows([[1, -1, 0], [1, -1, 0], [2, -2, 0]])
    b = Matrix.from_rows([[2, 0, 1], [1, F(1, 3), 0], [0, 1, 1]])
    assert (n @ n).is_zero()
    assignment = {"A": a, "N": n, "B": b, "C": a @ n @ b}
    words = formal_sum(
        term(1, "A", "N", "N", "B"), term(F(3, 2), "A", "N", "B"), term(-1), term(2, "N", "N")
    )
    out = evaluate_word(words, assignment)
    assert out == naive_evaluate(words, assignment)
    assert not out.is_zero()
    # the same chain, with A N B cancelled by C = A N B in the sum
    words = formal_sum(term(1, "A", "N", "N", "B"), term(1, "A", "N", "B"), term(-1, "C"))
    out = evaluate_word(words, assignment)
    assert out == naive_evaluate(words, assignment)
    assert out == Matrix.zero(3, 3)
    assert hash(out) == hash(Matrix.zero(3, 3))
    assert out.nonzero_entries() == []


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


@pytest.mark.parametrize("restricted", [False, True], ids=["affine_full", "ugeq0"])
def test_corrupted_k_entry_report_matches_naive_residuals(tensor_13, q2, restricted):
    # one entry of a K-type generator changed, as the benchmark's corrupted copies
    m = restrict_to_ugeq0(tensor_13, F(-3, 2)) if restricted else tensor_13
    k = "K" if restricted else "K0"
    action = dict(m.action)
    bump = Matrix.from_sparse(m.dim, m.dim, [{1: F(1, 2)} if i == 2 else {} for i in range(m.dim)])
    action[k] = action[k] + bump
    bad = build_module(m.kind, q2, action, "corrupted", validate=False)
    report = check_presentation(m.kind, bad)
    log = CheckLog(strict=False)
    for rel in relations_for(m.kind, q2):
        difference = rel.lhs + tuple((-c, w) for c, w in rel.rhs)
        residual = naive_evaluate(difference, action)
        log.matrix_zero(rel.name, f"defining relations ({m.kind})", residual)
    assert report.entries == log.entries
    assert not report.passed and report.failing()[0].name == f"unit({k} {k}inv)"


def test_second_check_binds_nothing(tensor_13, monkeypatch):
    # a presentation's relation list is merged and bound once per kind, q
    # and set of copied names: checking another module of the same kind at
    # the same q merges no relation and hashes no list shape
    from qaffine import presentations

    first = check_presentation(AFFINE_FULL, tensor_13)
    calls = []

    def counted(name):
        original = getattr(presentations, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for name in ("_merge", "_list_plan"):
        monkeypatch.setattr(presentations, name, counted(name))
    second = check_presentation(AFFINE_FULL, replace(tensor_13))
    assert calls == []
    assert second.to_dict() == first.to_dict()


def test_cancelling_residuals_share_one_zero(tensor_13):
    # every residual of a passing list is one zero matrix, built once
    from qaffine.presentations import bind_relations

    residuals = evaluate_word(
        bind_relations(relations_for(AFFINE_FULL, tensor_13.q)), tensor_13.action)
    assert len(residuals) == 21 and residuals[0].is_zero()
    assert all(residual is residuals[0] for residual in residuals)


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


def test_dim64_presentation_check_time_bound(run_snippet):
    # eval(3,1,1) (x) eval(3,1,11) (x) eval(3,1,7) has 64x64 generators that
    # are mostly zeros, as are the products in its degree-4 q-Serre words;
    # building it checks only the three finite modules the factors start from
    seconds, dim, passed, checks = run_snippet(
        """
        import json, time
        from fractions import Fraction as F
        from qaffine.factory import EvalParams, evaluation_module, tensor_product
        from qaffine.presentations import AFFINE_FULL, check_presentation
        from qaffine.scalars import qparam

        q = qparam(F(2))
        start = time.perf_counter()
        factors = [evaluation_module(EvalParams(3, 1, F(a)), q) for a in (1, 11, 7)]
        m = tensor_product(tensor_product(factors[0], factors[1]), factors[2])
        report = check_presentation(AFFINE_FULL, m)
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, m.dim, report.passed, len(report.entries)]))
        """,
        timeout=60,
    )
    assert (dim, passed, checks) == (64, True, 21)
    assert seconds < 1.5, f"dim-64 build and relation check took {seconds:.2f} s"


def test_dense_dim16_relation_check_time_bound(run_snippet, tmp_path, q2):
    # eval(3,1,1) (x) eval(3,1,11) conjugated by a unimodular L U: every
    # generator is dense, and each of the 21 relations is evaluated in int
    # over one common denominator (about 1.5 s with Fraction products)
    from dataclasses import replace

    from qaffine.factory import EvalParams, evaluation_module, tensor_product
    from qaffine.modfile import write_module
    from test_properties import unit_lu

    m = tensor_product(
        evaluation_module(EvalParams(3, 1, F(1)), q2),
        evaluation_module(EvalParams(3, 1, F(11)), q2),
    )
    p = unit_lu(16, 1)
    p_inv = p.inverse()
    dense = replace(m, action={g: p_inv @ a @ p for g, a in m.action.items()})
    path = tmp_path / "dense16.json"
    write_module(dense, path)
    seconds, passed, count = run_snippet(
        f"""
        import json, time
        from qaffine.modfile import read_module
        from qaffine.presentations import check_presentation

        m = read_module({str(path)!r}, validate=False)
        start = time.perf_counter()
        report = check_presentation(m.kind, m)
        seconds = time.perf_counter() - start
        print(json.dumps(
            [seconds, all(e.passed for e in report.entries), len(report.entries)]
        ))
        """,
    )
    assert passed and count == 21
    assert seconds < 0.5, f"dense dim-16 relation check took {seconds:.2f} s"
