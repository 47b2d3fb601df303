from dataclasses import replace
from fractions import Fraction as F

import pytest

from qaffine.errors import ModuleFormatError, RelationError
from qaffine.factory import (
    EvalParams,
    build_module,
    evaluation_module,
    finite_module,
    restrict_to_borel,
    restrict_to_ugeq0,
    tensor_product,
    twist_borel,
    twist_full,
)
from qaffine.linalg import Matrix
from qaffine.presentations import AFFINE_BOREL, AFFINE_FULL, UGEQ0, check_presentation
from qaffine.scalars import qparam
from qaffine.weights import analyze_full, analyze_ugeq0


# -- finite modules -------------------------------------------------------------


@pytest.mark.parametrize("eps", [1, -1])
def test_finite_d0(eps, q2):
    m = finite_module(0, eps, q2)
    assert m.dim == 1
    assert m.action["k"] == Matrix.from_rows([[eps]])
    assert m.action["ep"].is_zero() and m.action["em"].is_zero()


def test_finite_d1_matrices(q2):
    m = finite_module(1, 1, q2)
    assert m.action["k"] == Matrix.diagonal([F(1, 2), 2])
    assert m.action["ep"] == Matrix.from_rows([[0, 0], [1, 0]])
    assert m.action["em"] == Matrix.from_rows([[0, 1], [0, 0]])


def test_finite_d2_negative_sign(q2):
    m = finite_module(2, -1, q2)
    assert m.action["k"] == Matrix.diagonal([F(-1, 4), -1, -4])
    ep, em = m.action["ep"], m.action["em"]
    assert (ep.at(1, 0), ep.at(2, 1)) == (F(1), F(5, 2))
    assert (em.at(0, 1), em.at(1, 2)) == (F(-5, 2), F(-1))


def test_finite_invalid_parameters(q2):
    with pytest.raises(ModuleFormatError):
        finite_module(-1, 1, q2)
    with pytest.raises(ModuleFormatError):
        finite_module(1, 2, q2)


# -- evaluation modules ----------------------------------------------------------


@pytest.mark.parametrize("eps", [1, -1])
def test_evaluation_d0(eps, q2):
    m = evaluation_module(EvalParams(0, eps, 1), q2)
    assert m.dim == 1
    for g in ("e0p", "e1p", "e0m", "e1m"):
        assert m.action[g].is_zero()
    assert m.action["K0"] == Matrix.from_rows([[eps]])
    assert m.action["K1"] == Matrix.from_rows([[eps]])


def test_evaluation_d1(v111, q2):
    assert v111.action["K0"] == Matrix.diagonal([2, F(1, 2)])
    fin = finite_module(1, 1, q2)
    assert v111.action["e0p"] == fin.action["em"]
    assert v111.action["e1p"] == fin.action["ep"]
    assert check_presentation(AFFINE_FULL, v111).passed


def test_evaluation_parameter_scaling(v111, q2):
    m3 = evaluation_module(EvalParams(1, 1, 3), q2)
    assert m3.action["K0"] == v111.action["K0"]
    assert m3.action["e0p"] == 3 * v111.action["e0p"]
    assert m3.action["e0m"] == F(1, 3) * v111.action["e0m"]


def test_evaluation_zero_parameter_rejected():
    with pytest.raises(ModuleFormatError):
        EvalParams(1, 1, 0)


# -- tensor products ---------------------------------------------------------------


def test_tensor_unit_left_and_right(v111, q2):
    unit = evaluation_module(EvalParams(0, 1, 1), q2)
    right = tensor_product(v111, unit)
    left = tensor_product(unit, v111)
    for g in v111.action:
        assert right.action[g] == v111.action[g]
        assert left.action[g] == v111.action[g]


def test_tensor_dimension(v212, v111):
    assert tensor_product(v212, v111).dim == 6


def test_tensor_passes_relations(tensor_13):
    assert check_presentation(AFFINE_FULL, tensor_13).passed


def test_tensor_associative(v111, v113, q2):
    v5 = evaluation_module(EvalParams(1, 1, 5), q2)
    lhs = tensor_product(tensor_product(v111, v113), v5)
    rhs = tensor_product(v111, tensor_product(v113, v5))
    assert lhs.dim == rhs.dim == 8
    for g in lhs.action:
        assert lhs.action[g] == rhs.action[g]


def test_derived_constructors_evaluate_only_finite_roots(q2, relation_checks):
    # each evaluation module checks the finite module it starts from; the
    # coproduct, twists and restrictions are homomorphisms and check nothing
    a, b, c = (evaluation_module(EvalParams(1, 1, x), q2) for x in (1, 3, 5))
    m = tensor_product(tensor_product(a, b), c)
    restrict_to_borel(twist_full(m, -1, 1))
    twist_borel(restrict_to_ugeq0(m, 2), 3)
    assert m.dim == 8
    assert relation_checks == ["finite"] * 3


@pytest.mark.parametrize("q", [F(2), F(3, 2), F(-2)])
@pytest.mark.parametrize("eps", [1, -1])
def test_derived_constructors_satisfy_relations(q, eps):
    # the derived constructors return their output unchecked; this is the
    # check that the homomorphisms in their docstrings make it valid
    qp = qparam(q)
    a, b, c = (
        evaluation_module(EvalParams(d, eps, x), qp)
        for d, x in ((1, 1), (1, 3), (2, F(1, 2)))
    )
    ab = tensor_product(a, b)
    fulls = [a, ab, tensor_product(ab, c), tensor_product(c, ab)]
    derived = list(fulls)
    for m in fulls:
        derived += [twist_full(m, s0, s1) for s0 in (1, -1) for s1 in (1, -1)]
        derived.append(restrict_to_borel(m))
        for alpha in (1, -2, F(2, 3)):
            r = restrict_to_ugeq0(m, alpha)
            derived += [r, twist_borel(r, alpha)]
    for m in derived:
        assert check_presentation(m.kind, m).passed, m.provenance


def test_tensor_mismatches(v111, q2):
    q3 = qparam(3)
    other = evaluation_module(EvalParams(1, 1, 1), q3)
    with pytest.raises(ModuleFormatError):
        tensor_product(v111, other)
    fin = finite_module(1, 1, q2)
    with pytest.raises(ModuleFormatError):
        tensor_product(v111, fin)


# -- twists ---------------------------------------------------------------------


def test_twist_identity(v111):
    m = twist_full(v111, 1, 1)
    assert m.action == v111.action


def test_twist_changes_type(v111):
    wd = analyze_full(twist_full(v111, -1, 1))
    assert (wd.eps0, wd.eps1) == (-1, 1)


def test_twist_involution(v111):
    m = twist_full(twist_full(v111, -1, -1), -1, -1)
    assert m.action == v111.action


def test_twist_borel_identity_and_inverse(v111):
    r = restrict_to_ugeq0(v111, 1)
    assert twist_borel(r, 1).action == r.action
    again = twist_borel(twist_borel(r, F(3, 2)), F(2, 3))
    assert again.action == r.action


def test_twist_borel_scales_type(v111):
    r = restrict_to_ugeq0(v111, 1)
    assert analyze_ugeq0(twist_borel(r, 5)).alpha == 5
    with pytest.raises(ModuleFormatError):
        twist_borel(r, 0)


# -- restrictions ------------------------------------------------------------------


def test_restrict_trivial_module(q2):
    unit = evaluation_module(EvalParams(0, 1, 1), q2)
    r = restrict_to_ugeq0(unit, 1)
    assert r.action["R"].is_zero() and r.action["L"].is_zero()
    assert r.action["K"] == Matrix.from_rows([[1]])


def test_restrict_v111(v111):
    r = restrict_to_ugeq0(v111, 1)
    assert r.kind == UGEQ0
    assert r.action["K"] == Matrix.diagonal([2, F(1, 2)])
    assert r.action["R"] == v111.action["e0p"]
    assert r.action["L"] == v111.action["e1p"]
    assert check_presentation(UGEQ0, r).passed


def test_restrict_alpha_scales_k(v111):
    r5 = restrict_to_ugeq0(v111, 5)
    assert r5.action["K"] == Matrix.diagonal([10, F(5, 2)])
    assert analyze_ugeq0(r5).alpha == 5
    with pytest.raises(ModuleFormatError):
        restrict_to_ugeq0(v111, 0)


def test_restrict_negative_type_uses_sign(v111):
    # for a type (-1, 1) module, K = -alpha K0 so that the ladder is positive
    tw = twist_full(v111, -1, 1)
    r = restrict_to_ugeq0(tw, 1)
    assert analyze_ugeq0(r).alpha == 1


def test_restrict_then_twist_equals_direct(v111):
    via_twist = twist_borel(restrict_to_ugeq0(v111, F(1, 2)), 6)
    direct = restrict_to_ugeq0(v111, 3)
    assert via_twist.action == direct.action


def test_restrict_to_borel(v111):
    b = restrict_to_borel(v111)
    assert b.kind == AFFINE_BOREL
    assert set(b.action) == {"e0p", "e1p", "K0", "K0inv", "K1", "K1inv"}
    assert check_presentation(AFFINE_BOREL, b).passed
    # the central product acts as the product of the type signs
    assert b.action["K0"] @ b.action["K1"] == Matrix.identity(2)


def test_restrict_kind_guards(v111, q2):
    fin = finite_module(1, 1, q2)
    with pytest.raises(ModuleFormatError):
        restrict_to_ugeq0(fin, 1)
    with pytest.raises(ModuleFormatError):
        restrict_to_borel(fin)


@pytest.mark.parametrize("derive, name", [
    (lambda m: m, "analyze_full"),
    (restrict_to_borel, "analyze_borel"),
], ids=["eval", "borel-restriction"])
def test_weights_memoizes_the_analysis_of_the_presentation(
    q2, monkeypatch, derive, name
):
    from conftest import _count_calls
    from qaffine import weights

    module = derive(evaluation_module(EvalParams(2, 1, 3), q2))
    analyze = getattr(weights, name)
    calls = _count_calls(monkeypatch, weights, name, lambda m: m.kind)
    first = module.weights
    assert module.weights is first
    assert calls == [module.kind]
    assert first == analyze(module)


def _restriction_cases(q2):
    """Full modules with both type signs, the restriction types, and the
    same modules with one entry of e0p or K0inv (restricted generators) or
    of e1m (a forgotten one) changed: their relations fail, their ladders
    hold."""
    m = tensor_product(*(evaluation_module(EvalParams(1, 1, a), q2) for a in (1, 3)))
    for module in (m, twist_full(m, -1, 1)):
        for gen in (None, "e0p", "K0inv", "e1m"):
            action = dict(module.action)
            if gen is not None:  # the first nonzero entry, plus 1
                rows = [dict(r) for r in action[gen].sparse_rows]
                row = next(r for r in rows if r)
                row[min(row)] += 1
                action[gen] = Matrix.from_sparse(module.dim, module.dim, rows)
            for alpha in (F(1), F(-2, 7), F(3)):
                yield replace(module, action=action), alpha


def test_restriction_inherits_the_weight_ladder(q2, monkeypatch):
    # K = eps0 alpha K0 has K0's eigenspaces, as alpha q^(2i-d), and R, L
    # are e0p, e1p, whose moves analyze_full has checked: the restriction
    # reads the full module's ladder and analyzes nothing, and the ladder is
    # analyze_ugeq0's
    from conftest import _count_calls
    from qaffine import weights

    cases = list(_restriction_cases(q2))
    for full, _ in cases:
        full.weights
    calls = _count_calls(monkeypatch, weights, "analyze_ugeq0", lambda m: m.kind)
    restricted = [restrict_to_ugeq0(full, alpha) for full, alpha in cases]
    ladders = [r.weights for r in restricted]
    assert all(r.weights is ladder for r, ladder in zip(restricted, ladders))
    assert calls == []
    for r, ladder in zip(restricted, ladders):
        assert ladder == analyze_ugeq0(replace(r))


def test_restriction_copies_the_full_relation_report(q2, relation_checks, monkeypatch):
    # each ugeq0 relation of a restriction is a full relation with alpha
    # cancelled and eps0^2 = 1: when the full report is at hand each one
    # whose full relation passed there is derived (`_RESTRICTED_RELATIONS`),
    # and only those whose full relation failed are evaluated, as one list,
    # so the report is the literal one also where they fail; without it the
    # restriction evaluates its own
    from qaffine import presentations

    lists = []
    evaluate_word = presentations.evaluate_word

    def recorded(words, assignment):
        lists.append(len(words.plan.sums))
        return evaluate_word(words, assignment)

    monkeypatch.setattr(presentations, "evaluate_word", recorded)
    cases = list(_restriction_cases(q2))
    failing = set()
    for full, alpha in cases:
        full.relations
        relation_checks.clear()
        lists.clear()
        restricted = restrict_to_ugeq0(full, alpha)
        report = restricted.relations
        failed = [c.name for c in report.failing()]
        assert relation_checks == ([UGEQ0] if failed else [])
        assert lists == ([len(failed)] if failed else [])
        literal = check_presentation(UGEQ0, replace(restricted))
        assert report.to_dict() == literal.to_dict()
        assert report.text_table() == literal.text_table()
        failing |= {c.name for c in report.failing()}
        fresh = restrict_to_ugeq0(replace(full), alpha)
        relation_checks.clear()
        assert fresh.relations.to_dict() == literal.to_dict()
        assert relation_checks == [UGEQ0]
    assert failing == {"unit(K Kinv)", "unit(Kinv K)", "weight(K,L)", "serre(R,L)",
                       "serre(L,R)"}


def test_weights_of_a_finite_module_is_none(q2):
    assert finite_module(2, 1, q2).weights is None


def test_build_module_rejects_relation_violation(q2):
    action = {
        "R": Matrix.identity(1),
        "L": Matrix.zero(1, 1),
        "K": Matrix.from_rows([[2]]),
        "Kinv": Matrix.from_rows([[F(1, 2)]]),
    }
    with pytest.raises(RelationError) as info:
        build_module(UGEQ0, q2, action, "bad")
    assert info.value.relation == "weight(K,R)"
