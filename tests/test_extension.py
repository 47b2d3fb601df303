from contextlib import nullcontext
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import literal_tables, matrix_column, span
from test_golden import LEDGER, STAGE_FAILURES
from test_properties import EVALUATED_OUTPUT_RELATIONS, audited_run, unit_lu

import qaffine.extension
import qaffine.weights
from qaffine import linalg, presentations
from qaffine.cli import main
from qaffine.errors import CheckFailedError, IrreducibilityError, RelationError
from qaffine.extension import (
    ANCHOR_FLAGS,
    ANCHOR_LOWER,
    _PREMISES,
    _decomposes,
    _lowering_suite,
    _moves_into,
    _nears,
    build_a_astar,
    build_b_bstar,
    build_w_grid,
    eigen_flags,
    extend,
)
from qaffine.factory import (
    EvalParams,
    build_module,
    evaluation_module,
    restrict_to_ugeq0,
    tensor_product,
    twist_full,
)
from qaffine.linalg import Ladder, Matrix, Subspace, subspace_intersect
from qaffine.modfile import write_module
from qaffine.presentations import (
    AFFINE_FULL,
    UGEQ0,
    check_presentation,
    check_relations,
    q_serre,
    relations_for,
)
from qaffine.report import CheckLog, CheckResult, derivable
from qaffine.scalars import qparam
from qaffine.weights import WeightLadder, analyze_full, analyze_ugeq0

EXPECTED_CHECKS = {
    "input-relations",
    "weyl(Kinv,A)", "weyl(K,Astar)", "serre(A,Astar)", "serre(Astar,A)",
    "eigendecomp(A)", "eigendecomp(Astar)",
    "flag-tail-match", "flag-head-match", "weight-from-flags",
    "move(A,U)", "move(Astar,U)",
    "move(Kinv,V)", "move(K,V-tail)", "move(K,Vstar)", "move(Kinv,Vstar-head)",
    "tridiag(Astar,V)", "tridiag(A,Vstar)",
    "grid-boundary(row)", "grid-boundary(col)", "grid-vanishing",
    "grid-monotone",
    "grid-move(A)", "grid-move(Astar)", "grid-move(Kinv)", "grid-move(K)",
    "decomposition(W)", "decomposition(Wstar)",
    "ladder(W):A-up", "ladder(W):Astar-down", "ladder(W):Kinv-down",
    "ladder(W):K-head",
    "ladder(Wstar):A-up", "ladder(Wstar):Astar-down", "ladder(Wstar):K-up",
    "ladder(Wstar):Kinv-tail",
    "sum(W-tail)", "sum(W-head)", "sum(Wstar-tail)", "sum(Wstar-head)",
    "weyl(A,B)", "weyl(B,Astar)", "weyl(Astar,Bstar)", "weyl(Bstar,A)",
    "weyl(B,Kinv)", "weyl(Bstar,K)",
    "serre(B,Bstar)", "serre(Bstar,B)",
    "move(B,V)", "move(B,Vstar)", "move(Bstar,V)", "move(Bstar,Vstar)",
    "move(B,U)", "move(Bstar,U)",
    "tridiag(B,Wstar)", "tridiag(Bstar,W)",
    "reconstruct(B)", "reconstruct(Bstar)",
    "weight(r)", "weight(l)",
    "commutator(r,L)", "commutator(l,R)",
    "commute(l,L)", "commute(r,R)",
    "serre(R,L)", "serre(L,R)", "serre(r,l)", "serre(l,r)",
    "output-relations", "output-type", "output-diameter",
}


def trivial_ugeq0(q, alpha=F(7)):
    return build_module(
        UGEQ0,
        q,
        {
            "R": Matrix.zero(1, 1),
            "L": Matrix.zero(1, 1),
            "K": Matrix.from_rows([[alpha]]),
            "Kinv": Matrix.from_rows([[1 / alpha]]),
        },
        f"trivial(alpha={alpha})",
    )


# -- stage-level values on the diameter-1 module -----------------------------------


def test_split_pair_values(v111):
    r = restrict_to_ugeq0(v111, 1)
    log = CheckLog(strict=True)
    a_mat, astar_mat = build_a_astar(r, log)
    assert a_mat == Matrix.from_rows([[2, 1], [0, F(1, 2)]])
    assert astar_mat == Matrix.from_rows([[F(1, 2), 0], [1, 2]])
    assert all(c.passed for c in log.entries)


def test_flags_of_restricted_v111(v111):
    full, trace = extend(restrict_to_ugeq0(v111, 1), 1, 1)
    assert [s.dim for s in trace.v_spaces] == [1, 1]
    assert matrix_column(trace.v_spaces[0].basis, 0) == (F(1), F(-3, 2))
    assert matrix_column(trace.v_spaces[1].basis, 0) == (F(1), F(0))
    assert matrix_column(trace.vstar_spaces[0].basis, 0) == (F(0), F(1))
    assert matrix_column(trace.vstar_spaces[1].basis, 0) == (F(1), F(-2, 3))


def test_grid_vanishes_below_antidiagonal(v111):
    _, trace = extend(restrict_to_ugeq0(v111, 1), 1, 1)
    assert trace.w_grid[(0, 0)].dim == 0
    assert trace.w_grid[(1, 1)].dim == 2


def _eval_tensor(q, *params):
    factors = [evaluation_module(EvalParams(d, 1, F(a)), q) for d, a in params]
    out = factors[0]
    for f in factors[1:]:
        out = tensor_product(out, f)
    return out


GRID_MODULES = {
    8: ((1, 1), (1, 3), (1, 9)),
    12: ((2, 1), (3, 7)),
}


@pytest.mark.parametrize("alpha", [F(1), F(-2, 3)])
@pytest.mark.parametrize("q", [F(2), F(3, 2)])
@pytest.mark.parametrize("dim", sorted(GRID_MODULES))
def test_grid_equals_literal_intersections(dim, q, alpha):
    # in the standard basis and in a dense one, P^-1 g P with P = unit_lu
    m = _eval_tensor(qparam(q), *GRID_MODULES[dim])
    assert m.dim == dim
    r = restrict_to_ugeq0(m, alpha)
    p = unit_lu(dim, 1)
    p_inv = p.inverse()
    dense = build_module(
        UGEQ0, r.q, {g: p_inv @ mat @ p for g, mat in r.action.items()}, "dense"
    )
    for module in (r, dense):
        _, trace = extend(module, 1, 1)
        d = trace.diameter
        heads = Ladder(trace.v_spaces).head
        star_heads = Ladder(trace.vstar_spaces).head
        assert set(trace.w_grid) == {(i, j) for i in range(d + 1) for j in range(d + 1)}
        for (i, j), cell in trace.w_grid.items():
            assert cell == subspace_intersect(star_heads[i], heads[j]), (i, j)


def _grid_inputs(tensor_13):
    r = restrict_to_ugeq0(tensor_13, 1)
    ladder = analyze_ugeq0(r)
    a_mat, astar_mat = build_a_astar(r, CheckLog())
    v, vstar = eigen_flags(r, a_mat, astar_mat, ladder, CheckLog())
    return r, ladder, a_mat, astar_mat, v, vstar


def _counting_intersections(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return subspace_intersect(a, b)

    monkeypatch.setattr(qaffine.extension, "subspace_intersect", counted)
    return calls


def test_grid_intersects_only_the_split_spaces(tensor_13, monkeypatch):
    # On a passing run weight-from-flags and the eight grid checks follow from
    # direct sums: the only intersections are W_i and W*_i. Handed no
    # premises, the only containments of the grid stage are the eight
    # split-decomposition moves; handed the flag stage's checks, those moves
    # are inherited from the flags and no containment is made.
    r = restrict_to_ugeq0(tensor_13, 1)
    ladder = analyze_ugeq0(r)
    d = ladder.diameter
    a_mat, astar_mat = build_a_astar(r, CheckLog())
    calls = _counting_intersections(monkeypatch)
    flags = CheckLog(strict=True)
    v, vstar = eigen_flags(r, a_mat, astar_mat, ladder, flags)
    containments = []
    contains_image = Subspace.contains_image

    def counted(self, *args):
        containments.append(1)
        return contains_image(self, *args)

    monkeypatch.setattr(Subspace, "contains_image", counted)
    handed = frozenset(c.name for c in flags.entries)
    for passed, count in ((frozenset(), 8 * (d + 1)), (handed, 0)):
        calls.clear()
        containments.clear()
        log = CheckLog(strict=True)
        grid, _, _ = build_w_grid(r, ladder, a_mat, astar_mat, v, vstar, log, passed)
        assert len(calls) == 2 * (d + 1)
        assert len(containments) == count
        assert grid == {}
        assert len(log.entries) == 22 and all(c.passed for c in log.entries)


def test_grid_of_swapped_flags_reads_the_same_failures(tensor_13, monkeypatch):
    # With the flags swapped W still sums to both flags, but A no longer
    # moves it one step (ladder(W):A-up), so every grid cell is intersected.
    r, ladder, a_mat, astar_mat, v, vstar = _grid_inputs(tensor_13)
    d = ladder.diameter
    calls = _counting_intersections(monkeypatch)
    log = CheckLog()
    grid, _, _ = build_w_grid(r, ladder, a_mat, astar_mat, vstar, v, log)
    assert len(calls) == 2 * (d + 1) + (d + 1) ** 2
    for (i, j), cell in grid.items():
        assert cell == subspace_intersect(v.head[i], vstar.head[j])
    failing = [(c.name, c.detail) for c in log.entries if not c.passed]
    assert failing == STAGE_FAILURES["grid(swapped flags)"]


# Failing (name, detail) pairs of the grid stage given the A-flag as both
# flags, as logged when every grid cell was an intersection.
REPEATED_FLAG_FAILURES = [
    ("grid-vanishing", "a grid space below the antidiagonal is nonzero"),
    ("grid-move(Astar)", "grid move fails at (0,0)"),
    ("grid-move(Kinv)", "grid move fails at (0,0)"),
    ("grid-move(K)", "grid move fails at (0,0)"),
    ("decomposition(W)", "component 1 overlaps the preceding sum"),
    ("decomposition(Wstar)", "component 1 overlaps the preceding sum"),
    ("ladder(W):Astar-down", "containment fails at index 0"),
    ("ladder(W):Kinv-down", "containment fails at index 0"),
    ("ladder(W):K-head", "containment fails at index 0"),
    ("ladder(Wstar):Astar-down", "containment fails at index 0"),
    ("sum(W-tail)", "suffix sums of W do not match prefix sums of the A-flag"),
    ("sum(W-head)", "prefix sums of W do not match prefix sums of the A*-flag"),
    ("sum(Wstar-tail)", "suffix sums of W* do not match suffix sums of the A-flag"),
    ("sum(Wstar-head)", "prefix sums of W* do not match suffix sums of the A*-flag"),
]


def test_grid_of_repeated_flag_takes_the_literal_path(tensor_13, monkeypatch):
    r, ladder, a_mat, astar_mat, v, _ = _grid_inputs(tensor_13)
    d = ladder.diameter
    calls = _counting_intersections(monkeypatch)
    log = CheckLog()
    grid, _, _ = build_w_grid(r, ladder, a_mat, astar_mat, v, v, log)
    # W and W* first, then every grid cell
    assert len(calls) == 2 * (d + 1) + (d + 1) ** 2
    for (i, j), cell in grid.items():
        assert cell == subspace_intersect(v.head[i], v.head[j])
    failing = [(c.name, c.detail) for c in log.entries if not c.passed]
    assert failing == REPEATED_FLAG_FAILURES


def _handed_stages(m, ladder, handed, swap=False):
    """The split-pair, flag, grid and split-operator stages of m on one
    non-strict log, given the weight ladder `ladder`; with `handed`, each
    stage is handed the checks passed so far (the input report's and the
    log's), else none. W and W* are swapped before the split operators when
    `swap`. The log's entries, and the check named by the CheckFailedError
    raised when B or B* has no graph."""
    log, raised = CheckLog(), []

    def passed():
        if not handed:
            return frozenset()
        return frozenset(c.name for c in (*m.relations.entries, *log.entries) if c.passed)

    a_mat, astar_mat = build_a_astar(m, log)
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, log, passed())
    _, w, wstar = build_w_grid(m, ladder, a_mat, astar_mat, v, vstar, log, passed())
    if swap:
        w, wstar = wstar, w
    try:
        build_b_bstar(m, ladder, a_mat, astar_mat, v, vstar, w, wstar, log, passed())
    except CheckFailedError as err:  # W or W* is no decomposition
        raised.append(err.check)
    return [c.to_dict() for c in log.entries], raised


def _first_escapes(monkeypatch):
    calls = []
    first_escape = linalg.first_escape

    def counted(*args):
        calls.append(1)
        return first_escape(*args)

    monkeypatch.setattr(qaffine.extension, "first_escape", counted)
    return calls


def _corrupted_cases(dim, q2):
    """Stage inputs that fail, on a restricted tensor of dimension dim: a
    corrupted Kinv, a corrupted R, a mirrored weight ladder and swapped W
    and W*, each as (module, weight ladder or None for its own, swap)."""
    m = restrict_to_ugeq0(_eval_tensor(q2, *{4: ((1, 1), (1, 3)), 8: GRID_MODULES[8]}[dim]), 1)
    n, R = m.dim, m.action["R"]
    i, j = next((i, j) for i in range(n) for j in range(n) if R.at(i, j))
    bump_r = Matrix.from_sparse(n, n, [{j: 1} if k == i else {} for k in range(n)])
    bump_kinv = Matrix.from_sparse(n, n, [{0: 1}] + [{}] * (n - 1))

    def corrupted(gen, bump):
        action = {**m.action, gen: m.action[gen] + bump}
        return build_module(UGEQ0, m.q, action, f"bad {gen}", validate=False)

    ladder = m.weights
    mirrored = WeightLadder(ladder.alpha, ladder.diameter, ladder.spaces[::-1])
    return {
        "Kinv": (corrupted("Kinv", bump_kinv), None, False),
        "R": (corrupted("R", bump_r), None, False),
        "mirrored ladder": (m, mirrored, False),
        "swapped W": (m, None, True),
    }


@pytest.mark.parametrize("dim", [4, 8])
def test_handed_premises_leave_failing_ledgers_unchanged(dim, q2, monkeypatch):
    # Each stage is handed the checks that passed before it, on a corrupted
    # Kinv, a corrupted R, a mirrored weight ladder and swapped W and W*:
    # every ledger equals the all-literal one, name for name and detail for
    # detail, and the moves whose premises held were not evaluated.
    calls = _first_escapes(monkeypatch)
    for name, (module, given, swap) in _corrupted_cases(dim, q2).items():
        given = given or module.weights
        calls.clear()
        literal = _handed_stages(module, given, False, swap)
        evaluated = len(calls)
        calls.clear()
        assert _handed_stages(module, given, True, swap) == literal, name
        assert not all(c["pass"] for c in literal[0]), name
        assert len(calls) < evaluated, name


@pytest.mark.parametrize("dim", [4, 8])
def test_literal_tables_leave_corrupted_ledgers_unchanged(dim, q2):
    # the audit of both derivation tables on the corrupted inputs above:
    # with the tables emptied, each stage handed the checks passed before it
    # logs the default ledger, entry for entry, and stops on the same check.
    # The corrupted Kinv leaves W no decomposition, so B has no graph and
    # the split-operator stage raises CheckFailedError naming
    # decomposition(W).
    for name, (module, given, swap) in _corrupted_cases(dim, q2).items():
        given = given or module.weights
        default = _handed_stages(module, given, True, swap)
        with literal_tables():
            assert _handed_stages(module, given, True, swap) == default, name
        assert default[1] == (["decomposition(W)"] if name == "Kinv" else []), name


def test_split_spaces_that_do_not_decompose_name_their_check(tensor_13):
    # W or W* that do not decompose the space have no split operator: the
    # stage raises CheckFailedError naming the decomposition with no graph,
    # which the CLI reports as a failed pipeline check, not as bad input
    r, ladder, a_mat, astar_mat, v, vstar = _grid_inputs(tensor_13)
    _, w, wstar = build_w_grid(r, ladder, a_mat, astar_mat, v, vstar, CheckLog())
    repeated = Ladder([w.spaces[0]] * len(w.spaces))
    for spaces, check in (((repeated, wstar), "decomposition(W)"),
                          ((w, repeated), "decomposition(Wstar)")):
        with pytest.raises(CheckFailedError) as info:
            build_b_bstar(r, ladder, a_mat, astar_mat, v, vstar, *spaces, CheckLog())
        assert info.value.check == check


def test_weight_moves_need_the_certified_ladder(tensor_13, monkeypatch):
    # move(K,V-tail) and move(Kinv,Vstar-head) follow from the weight ladder
    # the analyzer certified, the module's own `weights` memo: handed any
    # other ladder, even an equal copy, the flag stage evaluates them
    # besides the two U-moves
    r = restrict_to_ugeq0(tensor_13, 1)
    ladder = r.weights
    log = CheckLog(strict=True)
    a_mat, astar_mat = build_a_astar(r, log)
    passed = frozenset(c.name for c in (*r.relations.entries, *log.entries))
    calls = _first_escapes(monkeypatch)
    for given, evaluated in ((ladder, 2), (replace(ladder), 4)):
        calls.clear()
        flags = CheckLog(strict=True)
        eigen_flags(r, a_mat, astar_mat, given, flags, passed)
        assert len(calls) == evaluated and len(flags.entries) == 13


def test_every_premise_is_decided_before_its_check(tensor_13, monkeypatch):
    # Every row of both derivation tables names a check its site logs, and
    # premises that are checks decided before it, so no misspelt name turns
    # a derivation off unseen. `_PREMISES`: each key is a ledger check or a
    # relation of the output report; each premise is the input report's, the
    # certified weight ladder, or a check decided earlier in the run:
    # earlier in the ledger, or staged earlier in the same stage (the grid
    # stage decides its sums before its ladder moves and logs them after).
    # No U-move or grid move is derived. `_RESTRICTED_RELATIONS`: each key
    # is a ugeq0 relation and each premise a relation of the full report the
    # restriction reads, which is decided before the restriction is made.
    from qaffine.factory import _RESTRICTED_RELATIONS

    q = tensor_13.q
    ugeq0 = {rel.name for rel in relations_for(UGEQ0, q)}
    affine_full = {rel.name for rel in relations_for(AFFINE_FULL, q)}
    assert set(_RESTRICTED_RELATIONS) == ugeq0
    assert set().union(*_RESTRICTED_RELATIONS.values()) <= affine_full
    held = {c.name for c in tensor_13.relations.entries if c.passed}
    assert derivable(_RESTRICTED_RELATIONS, held) == ugeq0
    r = restrict_to_ugeq0(tensor_13, 1)
    before = {c.name for c in r.relations.entries} | {"weights"}
    assert before == ugeq0 | {"weights"}
    decided = []
    record = CheckLog._record

    def recorded(self, result):
        if result.name not in decided:
            decided.append(result.name)
        return record(self, result)

    monkeypatch.setattr(CheckLog, "_record", recorded)
    _, trace = extend(r, 1, 1)
    assert trace.check_names() == LEDGER
    moves = [name for name in _PREMISES if name.startswith(("move", "tridiag", "ladder"))]
    output = [name for name in _PREMISES if name in affine_full]
    assert (len(_PREMISES), len(moves), len(output)) == (38, 20, 16)
    assert set(_PREMISES) - set(output) - set(moves) == {"serre(R,L)", "serre(L,R)"}
    assert set(_PREMISES) <= set(LEDGER) | affine_full
    assert not {name for name in _PREMISES if name.endswith("U)") or "grid" in name}
    for name, needs in _PREMISES.items():
        assert needs and set(needs) <= set(LEDGER) | before, name
        for premise in needs:
            assert premise in before or decided.index(premise) < decided.index(name), (
                name, premise)


def test_passing_extend_forms_no_image_column(q2, monkeypatch):
    # On t16 the 20 derived moves form no image, and the 4 U-moves and the
    # 4 grid moves left to first_escape take the coordinate path or run over
    # no cell: 8 first_escape calls (28 with every move evaluated) and no
    # image column (124). Conjugated by unit_lu(16, 1), the module of the
    # dense CI steps, the U-moves form 56 (196).
    t16 = _eval_tensor(q2, (3, 1), (3, 11))
    p = unit_lu(16, 1)
    p_inv = p.inverse()
    dense = replace(t16, action={g: p_inv @ a @ p for g, a in t16.action.items()})
    calls = _first_escapes(monkeypatch)
    columns = []
    image_columns = linalg._image_columns

    def counted(*args):
        columns.append(1)
        return image_columns(*args)

    monkeypatch.setattr(linalg, "_image_columns", counted)
    for module, images in ((t16, 0), (dense, 56)):
        r = restrict_to_ugeq0(module, 1)
        assert r.relations.passed and r.weights.diameter == 6
        calls.clear()
        columns.clear()
        _, trace = extend(r, 1, 1)
        assert len(trace.checks) == 71 and all(c.passed for c in trace.checks)
        assert (len(calls), len(columns)) == (8, images)


def test_literal_table_audit_on_t16(q2, monkeypatch):
    # With both derivation tables emptied every check is evaluated by its
    # definition. On t16 and on t16 conjugated by unit_lu(16, 1), the module
    # of the dense CI steps, the restriction's report, extend's 71-check
    # ledger (each entry's name, anchor, verdict, residual entries and
    # detail), its output matrices and its relation report equal the
    # default run's. The literal run evaluates all 28 moves, the default 8.
    t16 = _eval_tensor(q2, (3, 1), (3, 11))
    p = unit_lu(16, 1)
    p_inv = p.inverse()
    dense = replace(t16, action={g: p_inv @ a @ p for g, a in t16.action.items()})
    calls = _first_escapes(monkeypatch)
    for module in (t16, dense):
        runs = []
        for tables, moves in ((nullcontext, 8), (literal_tables, 28)):
            calls.clear()
            with tables():
                runs.append(audited_run(module, (1, 1), 1))
            assert len(calls) == moves
        assert runs[0] == runs[1]
        ledger = runs[0][1]
        assert [c["name"] for c in ledger] == LEDGER and all(c["pass"] for c in ledger)


def test_certified_direct_needs_nonzero_independent_spaces_filling_n():
    # W is certified direct only when every component is nonzero, the
    # dimensions add up to n and the rows stay independent; otherwise the
    # running sums are built and compared literally
    e0, e1, e2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    whole, zero, plane = span(3, [e0, e1, e2]), Subspace.zero(3), span(3, [e0, e1])
    cases = [
        ((span(3, [e0]), span(3, [(1, 1, 0)]), span(3, [(0, 1, 1)])), True),
        ((span(3, [e0, (0, 1, 1)]), span(3, [(1, 1, 0)])), True),
        ((plane, span(3, [e1])), False),
        ((span(3, [e0, (0, 1, 1)]), span(3, [(1, 1, 1)])), False),
        ((zero, whole), False),
        ((span(3, [e0]), span(3, [e1])), False),
    ]
    for spaces, direct in cases:
        assert _decomposes(spaces) is direct
        if direct:
            assert Ladder(spaces).head[-1] == whole


def test_split_operators_diameter_one(v111):
    _, trace = extend(restrict_to_ugeq0(v111, 1), 1, 1)
    assert trace.b_mat == Matrix.from_rows([[2, 0], [F(-9, 4), F(1, 2)]])
    assert trace.bstar_mat == Matrix.from_rows([[F(1, 2), F(-9, 4)], [0, 2]])
    # B acts on W_0 with eigenvalue 1/2 and on W_1 with eigenvalue 2
    for i, lam in ((0, F(1, 2)), (1, F(2))):
        w = trace.w_spaces[i].basis
        assert trace.b_mat @ w == lam * w


def test_split_operators_need_no_inverse(tensor_13, monkeypatch):
    # B and B* are read off the echelon form of their graphs, so no step of
    # the extension inverts a matrix, in the standard basis or a dense one.
    r = restrict_to_ugeq0(tensor_13, 1)
    p = unit_lu(r.dim, 3)
    p_inv = p.inverse()
    dense = build_module(
        UGEQ0, r.q, {g: p_inv @ mat @ p for g, mat in r.action.items()}, "dense"
    )

    def no_inverse(self):
        raise AssertionError("Matrix.inverse called during extend")

    monkeypatch.setattr(Matrix, "inverse", no_inverse)
    outputs = []
    for module in (r, dense):
        full, trace = extend(module, 1, 1)
        assert len(trace.checks) == 71 and all(c.passed for c in trace.checks)
        outputs.append(full.action)
    plain, conjugated = outputs
    for g, mat in plain.items():
        assert conjugated[g] == p_inv @ mat @ p


def test_tridiagonal_checks_build_no_new_sum(tensor_13, monkeypatch):
    # Each tridiagonal move reads the ladder's own cached head and tail sums,
    # and every sum certified equal to another one by containment plus
    # dimension reads that one, so the only running sums of extend are the
    # head and tail of U, the head of V and the tail of V*, in the standard
    # basis and in a dense one.
    r = restrict_to_ugeq0(tensor_13, 1)
    p = unit_lu(r.dim, 3)
    p_inv = p.inverse()
    dense = build_module(
        UGEQ0, r.q, {g: p_inv @ mat @ p for g, mat in r.action.items()}, "dense"
    )
    sums = []
    running_sums = linalg._running_sums

    def counted(spaces):
        sums.append(1)
        return running_sums(spaces)

    monkeypatch.setattr(linalg, "_running_sums", counted)
    for module in (r, dense):
        sums.clear()
        _, trace = extend(module, 1, 1)
        assert all(c.passed for c in trace.checks)
        assert len(sums) == 4


def test_lowering_suite_evaluates_ten_relations(tensor_13, monkeypatch):
    # serre(R,L) and serre(L,R) are the input's own relations on the same R
    # and L, and its check has passed, so the lowering suite, handed the
    # input report's passed checks, derives those two: it evaluates 10 of
    # its 12 relations, as one relation list, and the ledger keeps its 71
    # checks in the same order. Handed nothing, it evaluates all 12.
    r = restrict_to_ugeq0(tensor_13, 1)
    _, trace = extend(r, 1, 1)
    assert trace.check_names() == LEDGER and len(LEDGER) == 71
    calls = []
    evaluate_word = presentations.evaluate_word

    def counted(plan, assignment):
        calls.append(plan)
        return evaluate_word(plan, assignment)

    monkeypatch.setattr(presentations, "evaluate_word", counted)
    passed = frozenset(c.name for c in r.relations.entries if c.passed)
    for handed, evaluated in ((passed, 10), (frozenset(), 12)):
        calls.clear()
        log = CheckLog(strict=True)
        _lowering_suite(r, r.weights, trace.b_mat, trace.bstar_mat, log, handed)
        assert sum(len(bound.plan.sums) for bound in calls) == evaluated
        assert log.entries == [c for c in trace.checks if c.anchor == ANCHOR_LOWER]
    evaluated = CheckLog()
    check_relations(evaluated, ANCHOR_LOWER, (q_serre("R", "L", r.q), q_serre("L", "R", r.q)),
                    r.action)
    copies = [c for c in log.entries if c.name in ("serre(R,L)", "serre(L,R)")]
    assert copies == evaluated.entries


def test_output_check_evaluates_five_relations(tensor_13, monkeypatch):
    # 16 output relations are a sign times a passing check of the input
    # report or the lowering suite (their rows of `_PREMISES`), so
    # output-relations derives them at their own positions and evaluates the
    # other 5
    # (commute(K0,K1) and the four K1 weights) as one list; the report is
    # the literal one and the ledger keeps its 71 checks
    lists = []
    evaluate_word = presentations.evaluate_word

    def recorded(words, assignment):
        lists.append(words)
        return evaluate_word(words, assignment)

    monkeypatch.setattr(presentations, "evaluate_word", recorded)
    r = restrict_to_ugeq0(tensor_13, 1)
    full, trace = extend(r, 1, 1)
    assert trace.check_names() == LEDGER
    output = lists[-1]
    assert len(output.plan.sums) == 5
    monkeypatch.undo()
    literal = presentations.check_presentation(AFFINE_FULL, replace(full))
    assert full.relations.to_dict() == literal.to_dict()
    names = [c.name for c in full.relations.entries]
    assert names == [rel.name for rel in presentations.relations_for(AFFINE_FULL, full.q)]
    copies = [name for name in names if name in _PREMISES]
    assert len(copies) == 16
    assert [name for name in names if name not in copies] == EVALUATED_OUTPUT_RELATIONS
    sources = {c.name: c for c in r.relations.entries + trace.checks}
    for entry, expected in zip(full.relations.entries, literal.entries):
        if entry.name in copies:
            (source,) = _PREMISES[entry.name]
            assert sources[source].passed
            assert entry == CheckResult(entry.name, expected.anchor, True)


def test_output_inherits_only_passing_checks(tensor_13):
    # a source check that failed derives nothing, whatever its sign, so its
    # output relation is evaluated; each other output relation is derived
    # from its one source, and the report is the literal one either way
    r = restrict_to_ugeq0(tensor_13, 1)
    full, trace = extend(r, 1, 1)
    names = {rel.name for rel in relations_for(AFFINE_FULL, r.q)}
    copies = {name for name in _PREMISES if name in names}
    assert all(len(_PREMISES[name]) == 1 for name in copies)
    passed = {c.name for c in r.relations.entries + trace.checks}
    failed = passed - {"unit(K Kinv)", "commute(r,R)"}
    derived = derivable(_PREMISES, failed) & names
    assert derived == copies - {"unit(K0 K0inv)", "unit(K1inv K1)", "commute(e0p,e1m)"}
    assert derivable(_PREMISES, passed) & names == copies
    literal = check_presentation(AFFINE_FULL, replace(full))
    assert check_presentation(AFFINE_FULL, replace(full), derived).to_dict() == literal.to_dict()


def test_second_extend_compiles_no_plan(tensor_13, monkeypatch):
    # relation lists are compiled once per shape, with their coefficients
    # bound on each call, so the alpha-dependent lists of A, A*, B, B* and
    # the lowering suite, and the output check, compile nothing at another
    # alpha
    extend(restrict_to_ugeq0(tensor_13, 1), 1, 1)
    compiled = []
    compile_ = presentations._compile

    def counted(sums):
        compiled.append(len(sums))
        return compile_(sums)

    monkeypatch.setattr(presentations, "_compile", counted)
    _, trace = extend(restrict_to_ugeq0(tensor_13, F(-2, 7)), 1, 1)
    assert all(c.passed for c in trace.checks) and len(trace.checks) == 71
    assert compiled == []


def test_tridiag_moves_form_each_image_once(q2, monkeypatch):
    # a tridiag check has two target lists; each source space's image
    # columns are formed once and tested against both (those of a target
    # that is the whole space, or a coordinate span of a coordinate source,
    # are never formed), and the first escape and its detail are those of
    # the two lists checked one by one
    m = tensor_product(*(evaluation_module(EvalParams(2, 1, a), q2) for a in (1, 3)))
    r, ladder, a_mat, astar_mat, v, vstar = _grid_inputs(m)
    d = ladder.diameter
    heads, tails = _nears(v)

    def reading(i):
        return [t for t in (heads[i], tails[i]) if t.dim < t.ambient_dim
                and not (v.spaces[i].is_coordinate and t.is_coordinate)]

    assert any(len(reading(i)) == 2 for i in range(d + 1))
    columns = []
    image_columns = linalg._image_columns

    def counted(op, space, shift=F(0)):
        columns.append(space)
        return image_columns(op, space, shift)

    monkeypatch.setattr(linalg, "_image_columns", counted)
    log = CheckLog()
    _moves_into(log, ANCHOR_FLAGS, (("tridiag(Astar,V)", astar_mat, None, v, lambda: _nears(v)),))
    assert log.entries[0].passed
    assert columns == [s for i, s in enumerate(v) if reading(i)]
    backwards = Ladder(v.spaces[::-1])
    for spaces, targets in ((backwards, _nears(v)), (v, _nears(backwards))):
        columns.clear()
        log = CheckLog()
        _moves_into(log, ANCHOR_FLAGS, (("tridiag", astar_mat, None, spaces, lambda: targets),))
        formed = list(columns)
        escapes = [linalg.first_escape(astar_mat, None, spaces, t) for t in targets]
        first = min(i for i in escapes if i is not None)
        assert log.entries[0].detail == f"containment fails at index {first}"
        assert len(formed) == len(set(map(id, formed))) <= first + 1


def test_running_sums_build_no_basis_matrix(tensor_13, monkeypatch):
    # A Subspace is its reduced integer rows, and containment reads them
    # directly. So no space the stages build or read, neither the U, V, V*,
    # W and W* spaces nor the four running sums (past their first space)
    # that every other head and tail sum is read from, builds its basis
    # matrix.
    r = restrict_to_ugeq0(tensor_13, 1)
    p = unit_lu(r.dim, 3)
    p_inv = p.inverse()
    dense = build_module(
        UGEQ0, r.q, {g: p_inv @ mat @ p for g, mat in r.action.items()}, "dense"
    )
    ladders, sums, read = [], [], []
    running_sums = linalg._running_sums

    def recorded(spaces):
        ladders.append(1)
        for k, total in enumerate(running_sums(spaces)):
            if k:  # the first is spaces[0] itself, not a sum
                sums.append(total)
            yield total

    contains_image = Subspace.contains_image

    def recorded_contains_image(self, op, space, shift=F(0)):
        read.extend((self, space))
        return contains_image(self, op, space, shift)

    monkeypatch.setattr(linalg, "_running_sums", recorded)
    monkeypatch.setattr(Subspace, "contains_image", recorded_contains_image)
    for module in (r, dense):
        ladders.clear()
        sums.clear()
        read.clear()
        ladder = analyze_ugeq0(module)
        log = CheckLog(strict=True)
        a_mat, astar_mat = build_a_astar(module, log)
        v, vstar = eigen_flags(module, a_mat, astar_mat, ladder, log)
        _, w, wstar = build_w_grid(module, ladder, a_mat, astar_mat, v, vstar, log)
        build_b_bstar(module, ladder, a_mat, astar_mat, v, vstar, w, wstar, log)
        assert len(ladders) == 4 and len(sums) == 4 * ladder.diameter
        spaces = [*ladder.spaces, *v, *vstar, *w, *wstar, *sums, *read]
        assert read and all("basis" not in vars(s) for s in spaces)


def test_moves_build_no_shifted_matrix(tensor_13, monkeypatch):
    # every eigenvalue move hands its shift to contains_image, so no ladder,
    # flag or grid move builds a shifted Matrix inside first_escape
    active, shifted_moves = [], []

    def tracked(mat, shifts, spaces, targets):
        active.append(True)
        shifted_moves.append(shifts is not None)
        try:
            return linalg.first_escape(mat, shifts, spaces, targets)
        finally:
            active.pop()

    shift = Matrix.shift

    def guarded_shift(self, c):
        if active:
            raise AssertionError("Matrix.shift called inside first_escape")
        return shift(self, c)

    monkeypatch.setattr(Matrix, "shift", guarded_shift)
    for module in (qaffine.extension, qaffine.weights):
        monkeypatch.setattr(module, "first_escape", tracked)
    _, trace = extend(restrict_to_ugeq0(tensor_13, 1), 1, 1)
    assert len(trace.checks) == 71 and all(c.passed for c in trace.checks)
    assert any(shifted_moves)


def test_triangular_spectra_need_no_char_poly(tensor_13, q2, tmp_path, char_polys):
    # K, R and L of a built module are triangular: their spectra are read
    # off the diagonal. A conjugated (dense) copy takes the general path.
    r = restrict_to_ugeq0(tensor_13, 1)
    extend(r, 1, 1)
    path = tmp_path / "t16.json"
    write_module(tensor_product(
        evaluation_module(EvalParams(3, 1, 1), q2),
        evaluation_module(EvalParams(3, 1, 11), q2),
    ), path)
    assert main(["roundtrip", str(path), "--alpha", "1"]) == 0
    assert char_polys == []
    p = unit_lu(r.dim, 5)
    p_inv = p.inverse()
    dense = build_module(
        UGEQ0, r.q, {g: p_inv @ mat @ p for g, mat in r.action.items()}, "dense"
    )
    _, trace = extend(dense, 1, 1)
    assert all(c.passed for c in trace.checks)
    assert char_polys and set(char_polys) == {r.dim}


def test_lowering_operators_recover_module(v111):
    _, trace = extend(restrict_to_ugeq0(v111, 1), 1, 1)
    assert trace.l_mat == v111.action["e0m"]
    assert trace.r_mat == v111.action["e1m"]


def test_full_check_ledger(v212):
    _, trace = extend(restrict_to_ugeq0(v212, 1), 1, 1)
    assert set(trace.check_names()) == EXPECTED_CHECKS
    assert all(c.passed for c in trace.checks)
    assert trace.to_dict()["pass"] is True


# -- round trips --------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1, 5, F(1, 3)])
def test_round_trip_exact(v111, alpha):
    wd = analyze_full(v111)
    full, _ = extend(restrict_to_ugeq0(v111, alpha), wd.eps0, wd.eps1)
    for g in v111.action:
        assert full.action[g] == v111.action[g]


def test_round_trip_tensor(tensor_13):
    wd = analyze_full(tensor_13)
    full, _ = extend(restrict_to_ugeq0(tensor_13, 1), wd.eps0, wd.eps1)
    for g in tensor_13.action:
        assert full.action[g] == tensor_13.action[g]


def test_flipped_signs_give_twist(v111):
    full, _ = extend(restrict_to_ugeq0(v111, 1), -1, 1)
    ref = twist_full(v111, -1, 1)
    for g in ref.action:
        assert full.action[g] == ref.action[g]


def test_extension_type_and_diameter(v212):
    r = restrict_to_ugeq0(v212, F(3, 2))
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        full, trace = extend(r, *signs)
        wd = analyze_full(full)
        assert (wd.eps0, wd.eps1) == signs
        assert wd.diameter == trace.diameter == 2


# -- degenerate diameter zero ---------------------------------------------------------


@pytest.mark.parametrize("eps0", [1, -1])
@pytest.mark.parametrize("eps1", [1, -1])
def test_degenerate_pipeline(q2, eps0, eps1):
    full, trace = extend(trivial_ugeq0(q2), eps0, eps1)
    assert trace.b_mat == Matrix.identity(1)
    assert trace.bstar_mat == Matrix.identity(1)
    assert trace.r_mat.is_zero() and trace.l_mat.is_zero()
    wd = analyze_full(full)
    assert (wd.eps0, wd.eps1, wd.diameter) == (eps0, eps1, 0)
    assert full.action["K0"] == Matrix.from_rows([[eps0]])
    assert full.action["K1"] == Matrix.from_rows([[eps1]])


# -- equivariance ----------------------------------------------------------------------


def test_conjugation_equivariance(v212):
    r = restrict_to_ugeq0(v212, 1)
    p = Matrix.from_rows([[1, 2, 0], [0, 1, -1], [0, 0, 1]])
    p_inv = p.inverse()
    conj = build_module(
        UGEQ0,
        r.q,
        {g: p_inv @ mat @ p for g, mat in r.action.items()},
        "conjugated",
    )
    full, _ = extend(r, 1, -1)
    full_conj, _ = extend(conj, 1, -1)
    for g in full.action:
        assert full_conj.action[g] == p_inv @ full.action[g] @ p


# -- failure modes -----------------------------------------------------------------------


def test_reducible_input_rejected(q2):
    m = build_module(
        UGEQ0,
        q2,
        {
            "R": Matrix.zero(2, 2),
            "L": Matrix.zero(2, 2),
            "K": Matrix.identity(2),
            "Kinv": Matrix.identity(2),
        },
        "trivial square",
    )
    with pytest.raises(IrreducibilityError) as info:
        extend(m, 1, 1)
    assert info.value.span_dim == 1


def test_wrong_kind_rejected(v111):
    with pytest.raises(RelationError):
        extend(v111, 1, 1)


def test_relation_violation_rejected(q2, v111):
    r = restrict_to_ugeq0(v111, 1)
    action = dict(r.action)
    action["R"] = action["R"] + Matrix.from_rows([[1, 0], [0, 0]])
    bad = build_module(UGEQ0, q2, action, "broken", validate=False)
    with pytest.raises(RelationError):
        extend(bad, 1, 1)


def test_invalid_signs_rejected(q2):
    with pytest.raises(ValueError):
        extend(trivial_ugeq0(q2), 2, 1)


def test_stage_abort_names_check(v111):
    # feeding a wrong type scalar to the flag stage must abort by name
    r = restrict_to_ugeq0(v111, 1)
    log = CheckLog(strict=True)
    a_mat, astar_mat = build_a_astar(r, log)
    ladder = analyze_ugeq0(r)
    wrong = WeightLadder(F(3), ladder.diameter, ladder.spaces)
    with pytest.raises(CheckFailedError) as info:
        eigen_flags(r, a_mat, astar_mat, wrong, log)
    assert info.value.check == "eigendecomp(A)"
