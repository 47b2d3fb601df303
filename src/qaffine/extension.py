"""The restriction/extension engine.

Given an irreducible module for the three-generator raising algebra (R, L,
K^{±1}) of type alpha and diameter d, this pipeline constructs the unique
compatible action of the full affine presentation, verifying every
intermediate identity with exactly-zero residuals:

1. split pair: A = K + R and A* = K^-1 + L, which satisfy Weyl-type
   identities with K and the q-Serre relations;
2. eigenflags: the eigenspace ladders V_i of A (eigenvalue alpha q^(2i-d))
   and V*_i of A* (eigenvalue alpha^-1 q^(d-2i)), both decompositions, whose
   head/tail partial sums recover the weight spaces;
3. intersection grid: W(i,j) = (V*_0+..+V*_i) n (V_0+..+V_j), zero below the
   antidiagonal; the antidiagonal W_i = W(i, d-i) and its mirror W*_i are
   decompositions with one-step ladder moves;
4. split operators: B with eigenspace W_i and eigenvalue q^(2i-d), B* with
   eigenspace W*_i and eigenvalue q^(d-2i), built by change of basis; they
   satisfy Weyl-type identities with A, A*, K and the q-Serre relations;
5. lowering operators: r = (alpha I - K B*) / (q (q - q^-1)^2) and
   l = (alpha^-1 I - K^-1 B) / (q (q - q^-1)^2), which close the full
   commutation suite and assemble, with any choice of signs (eps0, eps1),
   into a full module of type (eps0, eps1) and the same diameter.

The weight spaces, both flags and both split decompositions are each held
as a linalg.Ladder (zero off its ends, partial sums computed once), and
every "operator moves each space of a ladder one step" check is one call of
linalg.first_escape, the containment primitive the weight analysis shares.
Every matrix identity (steps 1, 4, 5) is a presentations.RelationWord over
the names R, L, K, Kinv, A, Astar, B, Bstar, r, l, checked by
presentations.check_relations, the evaluator of the defining relations.

Every check failure aborts with the check's name; the engine doubles as a
certificate generator for the whole chain of identities. Conversely, for a
module obtained by restricting a full module of matching type, the extension
reproduces the original generator matrices bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from typing import Sequence

from .errors import IrreducibilityError, RelationError
from .factory import ModuleData, build_module
from .linalg import (
    Ladder,
    Matrix,
    Subspace,
    first_escape,
    kernel,
    subspace_intersect,
    subspace_sum,
)
from .presentations import (
    AFFINE_FULL,
    UGEQ0,
    RelationWord,
    check_presentation,
    check_relations,
    formal_sum,
    q_serre,
    term,
    weyl,
    zero_commutator,
)
from .report import CheckLog, CheckResult
from .scalars import ONE, QParam, as_scalar
from .weights import FullWeightData, WeightLadder, analyze_full, analyze_ugeq0

ANCHOR_SPLIT = "split pair A, A*"
ANCHOR_FLAGS = "eigenflag decompositions"
ANCHOR_GRID = "intersection grid"
ANCHOR_B = "split operators B, B*"
ANCHOR_LOWER = "lowering operators r, l"
ANCHOR_OUT = "assembled module"


@dataclass
class ExtensionTrace:
    """Full intermediate record of one extension run, for audit and tests."""

    alpha: Fraction
    diameter: int
    weight_spaces: tuple[Subspace, ...]
    a_mat: Matrix
    astar_mat: Matrix
    v_spaces: tuple[Subspace, ...] = ()
    vstar_spaces: tuple[Subspace, ...] = ()
    w_grid: dict[tuple[int, int], Subspace] = field(default_factory=dict)
    w_spaces: tuple[Subspace, ...] = ()
    wstar_spaces: tuple[Subspace, ...] = ()
    b_mat: Matrix | None = None
    bstar_mat: Matrix | None = None
    r_mat: Matrix | None = None
    l_mat: Matrix | None = None
    output_weights: FullWeightData | None = None
    checks: list[CheckResult] = field(default_factory=list)

    def check_names(self) -> list[str]:
        return [c.name for c in self.checks]

    def to_dict(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "diameter": self.diameter,
            "weight_dims": [s.dim for s in self.weight_spaces],
            "flag_dims(A)": [s.dim for s in self.v_spaces],
            "flag_dims(Astar)": [s.dim for s in self.vstar_spaces],
            "split_dims(W)": [s.dim for s in self.w_spaces],
            "split_dims(Wstar)": [s.dim for s in self.wstar_spaces],
            "checks": [c.to_dict() for c in self.checks],
            "pass": all(c.passed for c in self.checks),
        }


@dataclass(frozen=True)
class _Eigenvalues:
    """The closed-form eigenvalue lists of one run, indexed i = 0..d."""

    theta: tuple[Fraction, ...]  # alpha q^(2i-d): A on V_i, K on U_i
    theta_star: tuple[Fraction, ...]  # alpha^-1 q^(d-2i): A* on V*_i, K^-1 on U_i
    theta_rev: tuple[Fraction, ...]  # theta reversed
    theta_star_rev: tuple[Fraction, ...]  # theta_star reversed
    b: tuple[Fraction, ...]  # q^(2i-d): B on W_i
    bstar: tuple[Fraction, ...]  # q^(d-2i): B* on W*_i


@lru_cache(maxsize=None)
def _eigenvalues(q: QParam, alpha: Fraction, d: int) -> _Eigenvalues:
    theta = tuple(alpha * q.pow(2 * i - d) for i in range(d + 1))
    theta_star = tuple(q.pow(d - 2 * i) / alpha for i in range(d + 1))
    b = tuple(q.pow(2 * i - d) for i in range(d + 1))
    return _Eigenvalues(
        theta, theta_star, theta[::-1], theta_star[::-1], b, b[::-1]
    )


def _moves_into(log: CheckLog, anchor: str, moves: tuple) -> None:
    """For each move (name, mat, shifts, spaces, targets), log whether
    (mat - shifts[i] I)(spaces[i]) lies inside targets[i] for every i; with
    shifts None, whether mat(spaces[i]) does."""
    for name, mat, shifts, spaces, targets in moves:
        i = first_escape(mat, shifts, spaces, targets)
        log.condition(name, anchor, i is None, f"containment fails at index {i}")


def _nears(ladder: Ladder) -> list[Subspace]:
    return [ladder.near(i) for i in range(len(ladder))]


def _check_decomposition(
    log: CheckLog, name: str, anchor: str, ladder: Ladder
) -> None:
    """All spaces nonzero, pairwise independent, summing to the full space."""
    if any(s.dim == 0 for s in ladder):
        log.condition(name, anchor, False, "a component is zero")
        return
    sizes = list(accumulate(s.dim for s in ladder))
    for i, running in enumerate(ladder.head):
        if running.dim != sizes[i]:
            log.condition(
                name, anchor, False, f"component {i} overlaps the preceding sum"
            )
            return
    total = ladder.head[-1]
    log.condition(
        name,
        anchor,
        total == Subspace.full(total.ambient_dim),
        f"components span dimension {total.dim} of {total.ambient_dim}",
    )


def build_a_astar(m: ModuleData, log: CheckLog) -> tuple[Matrix, Matrix]:
    """A = K + R and A* = K^-1 + L, with their Weyl and q-Serre identities."""
    q = m.q
    a_mat = m.action["K"] + m.action["R"]
    astar_mat = m.action["Kinv"] + m.action["L"]
    check_relations(log, ANCHOR_SPLIT, (
        weyl("Kinv", "A", ONE, q),
        weyl("K", "Astar", ONE, q),
        q_serre("A", "Astar", q),
        q_serre("Astar", "A", q),
    ), {**m.action, "A": a_mat, "Astar": astar_mat})
    return a_mat, astar_mat


def eigen_flags(
    m: ModuleData,
    a_mat: Matrix,
    astar_mat: Matrix,
    ladder: WeightLadder,
    log: CheckLog,
) -> tuple[Ladder, Ladder]:
    """Eigenspace ladders of A and A* at their closed-form eigenvalues.

    The eigenvalues are alpha q^(2i-d) for A and alpha^-1 q^(d-2i) for A*;
    they are never discovered numerically. Verifies both ladders decompose
    the space, that partial sums match the weight-space partial sums, the
    one-step moves of A, A* on the weight ladder and of K^{±1} on the
    flags, and the tridiagonal action of each split operator on the other's
    flag.
    """
    n = m.dim
    ev = _eigenvalues(m.q, ladder.alpha, ladder.diameter)
    K, Kinv = m.action["K"], m.action["Kinv"]
    u = Ladder(ladder.spaces)
    v = Ladder(kernel(a_mat.shift(t)) for t in ev.theta)
    vstar = Ladder(kernel(astar_mat.shift(t)) for t in ev.theta_star)
    for name, flag in (("eigendecomp(A)", v), ("eigendecomp(Astar)", vstar)):
        dims = [s.dim for s in flag]
        log.condition(
            name, ANCHOR_FLAGS, sum(dims) == n and all(dims),
            f"eigenspace dims {dims} do not fill dimension {n}",
        )
    log.condition(
        "flag-tail-match", ANCHOR_FLAGS,
        u.tail == v.tail,
        "suffix sums of the A-flag do not match the weight-space suffix sums",
    )
    log.condition(
        "flag-head-match", ANCHOR_FLAGS,
        u.head == vstar.head,
        "prefix sums of the A*-flag do not match the weight-space prefix sums",
    )
    log.condition(
        "weight-from-flags", ANCHOR_FLAGS,
        all(
            s == subspace_intersect(head, tail)
            for s, head, tail in zip(u, vstar.head, v.tail)
        ),
        "weight spaces differ from head(A*-flag) n tail(A-flag)",
    )
    _moves_into(log, ANCHOR_FLAGS, (
        ("move(A,U)", a_mat, ev.theta, u, u.step(1)),
        ("move(Astar,U)", astar_mat, ev.theta_star, u, u.step(-1)),
        ("move(Kinv,V)", Kinv, ev.theta_star, v, v.step(1)),
        ("move(K,V-tail)", K, ev.theta, v, Ladder(v.tail).step(1)),
        ("move(K,Vstar)", K, ev.theta, vstar, vstar.step(-1)),
        ("move(Kinv,Vstar-head)", Kinv, ev.theta_star, vstar,
         Ladder(vstar.head).step(-1)),
        ("tridiag(Astar,V)", astar_mat, None, v, _nears(v)),
        ("tridiag(A,Vstar)", a_mat, None, vstar, _nears(vstar)),
    ))
    return v, vstar


def build_w_grid(
    m: ModuleData,
    ladder: WeightLadder,
    a_mat: Matrix,
    astar_mat: Matrix,
    v: Ladder,
    vstar: Ladder,
    log: CheckLog,
) -> tuple[dict[tuple[int, int], Subspace], Ladder, Ladder]:
    """The intersection grid W(i,j) and the two split decompositions.

    W(i,j) intersects the A*-flag prefix of depth i with the A-flag prefix of
    depth j; the grid vanishes strictly below the antidiagonal, its boundary
    rows/columns are the plain prefix sums, and the antidiagonal spaces
    W_i = W(i, d-i) and their mirrors W*_i decompose the module.
    """
    d = ladder.diameter
    ev = _eigenvalues(m.q, ladder.alpha, d)
    K, Kinv = m.action["K"], m.action["Kinv"]
    zero = Subspace.zero(m.dim)
    cells = [(i, j) for i in range(d + 1) for j in range(d + 1)]
    grid = {(i, j): subspace_intersect(vstar.head[i], v.head[j]) for i, j in cells}
    w = Ladder(grid[(i, d - i)] for i in range(d + 1))
    wstar = Ladder(
        subspace_intersect(vstar.tail[d - i], v.tail[i]) for i in range(d + 1)
    )

    log.condition(
        "grid-boundary(row)", ANCHOR_GRID,
        all(grid[(i, d)] == vstar.head[i] for i in range(d + 1)),
        "W(i,d) differs from the A*-flag prefix",
    )
    log.condition(
        "grid-boundary(col)", ANCHOR_GRID,
        all(grid[(d, j)] == v.head[j] for j in range(d + 1)),
        "W(d,j) differs from the A-flag prefix",
    )
    log.condition(
        "grid-vanishing", ANCHOR_GRID,
        all(grid[(i, j)].dim == 0 for i, j in cells if i + j < d),
        "a grid space below the antidiagonal is nonzero",
    )
    log.condition(
        "grid-monotone", ANCHOR_GRID,
        all(
            grid[(i, j)].dim <= grid[(i + 1, j)].dim
            and grid[(i, j)].dim <= grid[(i, j + 1)].dim
            for i in range(d)
            for j in range(d)
        ),
        "grid dimensions are not monotone",
    )

    # Past its last row or column the grid repeats that row or column; before
    # its first one it is zero.
    up = [grid[(min(i + 1, d), j - 1)] if j else zero for i, j in cells]
    down = [grid[(i - 1, min(j + 1, d))] if i else zero for i, j in cells]
    k_sums = [
        reduce(
            subspace_sum, (grid[(i - h, min(j + h, d))] for h in range(1, i + 1)), zero
        )
        for i, j in cells
    ]
    grid_moves = (
        ("A", a_mat, [ev.theta[j] for _, j in cells], up),
        ("Astar", astar_mat, [ev.theta_star[i] for i, _ in cells], down),
        ("Kinv", Kinv, [ev.theta_star[i] for i, _ in cells], down),
        ("K", K, [ev.theta[i] for i, _ in cells], k_sums),
    )
    spaces = [grid[c] for c in cells]
    for key, mat, shifts, targets in grid_moves:
        k = first_escape(mat, shifts, spaces, targets)
        log.condition(
            f"grid-move({key})", ANCHOR_GRID, k is None,
            "" if k is None else "grid move fails at ({},{})".format(*cells[k]),
        )

    _check_decomposition(log, "decomposition(W)", ANCHOR_GRID, w)
    _check_decomposition(log, "decomposition(Wstar)", ANCHOR_GRID, wstar)

    _moves_into(log, ANCHOR_GRID, (
        ("ladder(W):A-up", a_mat, ev.theta_rev, w, w.step(1)),
        ("ladder(W):Astar-down", astar_mat, ev.theta_star, w, w.step(-1)),
        ("ladder(W):Kinv-down", Kinv, ev.theta_star, w, w.step(-1)),
        ("ladder(W):K-head", K, ev.theta, w, Ladder(w.head).step(-1)),
        ("ladder(Wstar):A-up", a_mat, ev.theta, wstar, wstar.step(1)),
        ("ladder(Wstar):Astar-down", astar_mat, ev.theta_star_rev, wstar,
         wstar.step(-1)),
        ("ladder(Wstar):K-up", K, ev.theta, wstar, wstar.step(1)),
        ("ladder(Wstar):Kinv-tail", Kinv, ev.theta_star, wstar,
         Ladder(wstar.tail).step(1)),
    ))

    for name, ok, detail in (
        ("sum(W-tail)", w.tail == v.head[::-1],
         "suffix sums of W do not match prefix sums of the A-flag"),
        ("sum(W-head)", w.head == vstar.head,
         "prefix sums of W do not match prefix sums of the A*-flag"),
        ("sum(Wstar-tail)", wstar.tail == v.tail,
         "suffix sums of W* do not match suffix sums of the A-flag"),
        ("sum(Wstar-head)", wstar.head == vstar.tail[::-1],
         "prefix sums of W* do not match suffix sums of the A*-flag"),
    ):
        log.condition(name, ANCHOR_GRID, ok, detail)
    return grid, w, wstar


def _projector_operator(
    spaces: Ladder, eigenvalues: Sequence[Fraction], n: int
) -> Matrix:
    """The operator with spaces[i] as eigenspace for eigenvalues[i], built by
    one change of basis from the concatenated echelon bases."""
    columns: list = []
    diag: list[Fraction] = []
    for s, lam in zip(spaces, eigenvalues):
        columns.extend(s.basis.columns())
        diag.extend([lam] * s.dim)
    basis = Matrix.from_columns(n, columns)
    return basis @ Matrix.diagonal(diag) @ basis.inverse()


def build_b_bstar(
    m: ModuleData,
    ladder: WeightLadder,
    a_mat: Matrix,
    astar_mat: Matrix,
    v: Ladder,
    vstar: Ladder,
    w: Ladder,
    wstar: Ladder,
    log: CheckLog,
) -> tuple[Matrix, Matrix]:
    """The split operators: B has eigenvalue q^(2i-d) on W_i, B* has
    eigenvalue q^(d-2i) on W*_i. Verifies the Weyl pairings with A, A* and
    K^{±1}, the q-Serre relations, and all one-step moves on the three
    ladders."""
    q, alpha, n = m.q, ladder.alpha, m.dim
    ev = _eigenvalues(q, alpha, ladder.diameter)
    b_mat = _projector_operator(w, ev.b, n)
    bstar_mat = _projector_operator(wstar, ev.bstar, n)
    check_relations(log, ANCHOR_B, (
        weyl("A", "B", alpha, q),
        weyl("B", "Astar", 1 / alpha, q),
        weyl("Astar", "Bstar", 1 / alpha, q),
        weyl("Bstar", "A", alpha, q),
        weyl("B", "Kinv", 1 / alpha, q),
        weyl("Bstar", "K", alpha, q),
        q_serre("B", "Bstar", q),
        q_serre("Bstar", "B", q),
    ), {**m.action, "A": a_mat, "Astar": astar_mat, "B": b_mat, "Bstar": bstar_mat})

    u = Ladder(ladder.spaces)
    _moves_into(log, ANCHOR_B, (
        ("move(B,V)", b_mat, ev.bstar, v, v.step(-1)),
        ("move(B,Vstar)", b_mat, ev.b, vstar, vstar.step(-1)),
        ("move(Bstar,V)", bstar_mat, ev.bstar, v, v.step(1)),
        ("move(Bstar,Vstar)", bstar_mat, ev.b, vstar, vstar.step(1)),
        ("move(B,U)", b_mat, ev.b, u, u.step(-1)),
        ("move(Bstar,U)", bstar_mat, ev.bstar, u, u.step(1)),
        ("tridiag(B,Wstar)", b_mat, None, wstar, _nears(wstar)),
        ("tridiag(Bstar,W)", bstar_mat, None, w, _nears(w)),
    ))
    return b_mat, bstar_mat


def _lowering_suite(
    m: ModuleData,
    ladder: WeightLadder,
    b_mat: Matrix,
    bstar_mat: Matrix,
    log: CheckLog,
) -> tuple[Matrix, Matrix]:
    """r and l, plus the complete commutation suite they satisfy with R, L
    and K^{±1}."""
    q, alpha = m.q, ladder.alpha
    K, Kinv = m.action["K"], m.action["Kinv"]
    denom, c = q.lowering_denominator, ONE / q.weyl_denominator
    r_mat = (K @ bstar_mat).shift(alpha).scale(-1 / denom)
    l_mat = (Kinv @ b_mat).shift(1 / alpha).scale(-1 / denom)
    check_relations(log, ANCHOR_LOWER, (
        RelationWord("reconstruct(B)", formal_sum(term(1, "B")),
                     formal_sum((1 / alpha, ("K",)), (-denom, ("K", "l")))),
        RelationWord("reconstruct(Bstar)", formal_sum(term(1, "Bstar")),
                     formal_sum((alpha, ("Kinv",)), (-denom, ("Kinv", "r")))),
        RelationWord("weight(r)", formal_sum(term(1, "K", "r", "Kinv")),
                     formal_sum((q.pow(2), ("r",)))),
        RelationWord("weight(l)", formal_sum(term(1, "K", "l", "Kinv")),
                     formal_sum((q.pow(-2), ("l",)))),
        RelationWord("commutator(r,L)", zero_commutator("r", "L").lhs,
                     formal_sum((c / alpha, ("K",)), (-c * alpha, ("Kinv",)))),
        RelationWord("commutator(l,R)", zero_commutator("l", "R").lhs,
                     formal_sum((c * alpha, ("Kinv",)), (-c / alpha, ("K",)))),
        zero_commutator("l", "L"),
        zero_commutator("r", "R"),
        q_serre("R", "L", q),
        q_serre("L", "R", q),
        q_serre("r", "l", q),
        q_serre("l", "r", q),
    ), {**m.action, "B": b_mat, "Bstar": bstar_mat, "r": r_mat, "l": l_mat})
    return r_mat, l_mat


def extend(
    m: ModuleData,
    eps0: int | str | Fraction,
    eps1: int | str | Fraction,
) -> tuple[ModuleData, ExtensionTrace]:
    """Upgrade an irreducible ugeq0 module to a full affine module of type
    (eps0, eps1), same diameter, with every intermediate identity verified.

    The full action is R, L for the raising generators, eps0*l and eps1*r for
    the lowering ones, and eps0 alpha^-1 K, eps1 alpha K^-1 for K0, K1.
    Raises RelationError, IrreducibilityError or CheckFailedError (naming the
    failed verification) on malformed input.
    """
    from .analysis import ABSOLUTELY_IRREDUCIBLE, burnside_irreducible

    eps0, eps1 = as_scalar(eps0), as_scalar(eps1)
    if eps0 * eps0 != 1 or eps1 * eps1 != 1:
        raise ValueError("type signs must be 1 or -1")
    if m.kind != UGEQ0:
        raise RelationError("kind", f"extend requires a ugeq0 module, got {m.kind}")
    input_report = check_presentation(UGEQ0, m)
    if not input_report.passed:
        raise RelationError(input_report.failing()[0].name)
    irr = burnside_irreducible(m)
    if irr.verdict != ABSOLUTELY_IRREDUCIBLE:
        raise IrreducibilityError(
            f"extension requires an irreducible module; word span dimension is "
            f"{irr.word_span_dim} of {m.dim ** 2}",
            span_dim=irr.word_span_dim,
        )
    ladder = analyze_ugeq0(m)
    alpha, d = ladder.alpha, ladder.diameter

    log = CheckLog(strict=True)
    log.condition("input-relations", ANCHOR_SPLIT, input_report.passed)
    a_mat, astar_mat = build_a_astar(m, log)
    trace = ExtensionTrace(
        alpha=alpha,
        diameter=d,
        weight_spaces=ladder.spaces,
        a_mat=a_mat,
        astar_mat=astar_mat,
        checks=log.entries,
    )
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, log)
    trace.v_spaces, trace.vstar_spaces = v.spaces, vstar.spaces
    trace.w_grid, w, wstar = build_w_grid(m, ladder, a_mat, astar_mat, v, vstar, log)
    trace.w_spaces, trace.wstar_spaces = w.spaces, wstar.spaces
    b_mat, bstar_mat = build_b_bstar(
        m, ladder, a_mat, astar_mat, v, vstar, w, wstar, log
    )
    trace.b_mat, trace.bstar_mat = b_mat, bstar_mat
    r_mat, l_mat = _lowering_suite(m, ladder, b_mat, bstar_mat, log)
    trace.r_mat, trace.l_mat = r_mat, l_mat

    action = {
        "e0p": m.action["R"],
        "e1p": m.action["L"],
        "e0m": eps0 * l_mat,
        "e1m": eps1 * r_mat,
        "K0": (eps0 / alpha) * m.action["K"],
        "K0inv": (eps0 * alpha) * m.action["Kinv"],
        "K1": (eps1 * alpha) * m.action["Kinv"],
        "K1inv": (eps1 / alpha) * m.action["K"],
    }
    full = build_module(
        AFFINE_FULL,
        m.q,
        action,
        f"extend({m.provenance}, eps0={eps0}, eps1={eps1})",
        validate=False,
    )
    out_report = check_presentation(AFFINE_FULL, full)
    log.condition(
        "output-relations", ANCHOR_OUT, out_report.passed,
        "; ".join(c.name for c in out_report.failing()),
    )
    out_weights = analyze_full(full)
    log.condition(
        "output-type", ANCHOR_OUT,
        (out_weights.eps0, out_weights.eps1) == (eps0, eps1),
        f"assembled type ({out_weights.eps0},{out_weights.eps1}), "
        f"requested ({eps0},{eps1})",
    )
    log.condition(
        "output-diameter", ANCHOR_OUT,
        out_weights.diameter == d,
        f"assembled diameter {out_weights.diameter}, input diameter {d}",
    )
    trace.output_weights = out_weights
    return full, trace
