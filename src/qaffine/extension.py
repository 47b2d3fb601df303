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
   decompositions with one-step ladder moves. Only W_i and W*_i are
   intersected. Once W is a direct sum whose prefix and suffix sums are the
   two flags' prefix sums and which A, A*, K^{+-1} move one step, the grid
   is W(i,j) = W_(d-j)+..+W_i and every grid check follows (the lemma in
   build_w_grid), so no cell is built. Input that fails any of those checks
   has every cell intersected literally, so it fails with the same checks
   and details;
4. split operators: B with eigenspace W_i and eigenvalue q^(2i-d), B* with
   eigenspace W*_i and eigenvalue q^(d-2i), read off the echelon form of
   their graphs, with no inverse; they satisfy Weyl-type identities with A,
   A*, K and the q-Serre relations;
5. lowering operators: r = (alpha I - K B*) / (q (q - q^-1)^2) and
   l = (alpha^-1 I - K^-1 B) / (q (q - q^-1)^2), which close the full
   commutation suite and assemble, with any choice of signs (eps0, eps1),
   into a full module of type (eps0, eps1) and the same diameter.

The weight spaces, both flags and both split decompositions are each held
as a linalg.Ladder (zero off its ends, partial sums computed once), and
every "operator moves each space of a ladder one step" check that is
evaluated is one call of linalg.first_escape, the containment primitive the
weight analysis shares; on a passing run 20 of the 28 are derived instead
(below). A check that a ladder's partial sums equal sums already built is
decided by containment plus dimension (the lemma in Ladder) and, once it passes, the
ladder reads those sums as its own: the A-flag's tail sums are the weight
spaces' tail sums, the A*-flag's head sums their head sums, and the sums of
W and W* are flag sums. So a passing run builds four running sums: the head
and tail of the weight spaces, the head of the A-flag and the tail of the
A*-flag. The lowering suite derives the input's own q-Serre checks in R
and L instead of evaluating them again.
A tridiagonal move, into S_(i-1) + S_i + S_(i+1), is tested against the
ladder's own head[i+1] and tail[i-1] (clamped to its ends), which meet in
that sum because each ladder it is checked on is a direct sum, so no
three-space sum is built.
Every matrix identity (steps 1, 4, 5) is a presentations.RelationWord over
the names R, L, K, Kinv, A, Astar, B, Bstar, r, l, checked by
presentations.check_relations, the evaluator of the defining relations.

Moves derived from the checks that imply them. Each move of the flags and
of the split spaces listed below is the classical consequence of a Weyl or
a q-Serre relation, of the weight ladder, or of moves of the flags, all
already checked on the same matrices (Ito, Tanabe and Terwilliger 2001,
"Two linear transformations each tridiagonal with respect to an eigenbasis
of the other"). Throughout, q is rational with q^2 != 1,
theta_i = alpha q^(2i-d) and theta*_i = 1/theta_i.

- Weyl step. Let q X Y - q^-1 Y X = (q - q^-1) t. If X v = x v with
  x != 0, then (X - q^-2 x)(Y - t/x) v = 0; if instead Y v = y v with
  y != 0, then (Y - q^2 y)(X - t/y) v = 0. So a shifted Y moves the
  eigenspace of X at x into its eigenspace at q^(-+2) x, which is zero when
  that is not an eigenvalue: a passing eigendecomp check shows X
  diagonalizable with exactly the eigenvalues of its ladder.
- q-Serre tridiagonal. Let X be diagonalizable with eigenvalues x_j in
  ratio q^2 (or q^-2), with projections E_j, and let q_serre(X, Y) hold.
  Then E_j Y E_i (x_j - x_i)(x_j - q^2 x_i)(x_j - q^-2 x_i) = 0, so Y maps
  S_i into S_(i-1) + S_i + S_(i+1): a tridiag check.
- Inherited moves. An operator that maps P into P' and Q into Q' maps
  P n Q into P' n Q'. W_k is vstar.head[k] n v.head[d-k] and W*_k is
  vstar.tail[d-k] n v.tail[k]; a shift c = c_j + (c - c_j) moves a space
  S_j of a ladder by its own move plus a multiple of S_j, so one-step moves
  of each space move each head (tail) sum one step. A sum check that
  passed makes the ladder's head (tail) sums the flag's own.

The derivation table `_PREMISES` maps each check that may be logged
without evaluation to the checks it follows from, and `report.derivable`
grants it when all of them passed on the same matrices and spaces; the one
other table, `factory._RESTRICTED_RELATIONS`, is the restriction's. Its
rows before the output's ("weights" is the weight ladder the analyzer
checked, on which K acts as theta_i and, with the unit relations, K^-1 as
theta*_i):

- eigendecomp(A) with weyl(Kinv,A), weyl(A,B), weyl(Bstar,A): move(Kinv,V),
  move(B,V), move(Bstar,V) (Weyl step); with serre(A,Astar):
  tridiag(Astar,V) (q-Serre);
- eigendecomp(Astar) with weyl(K,Astar), weyl(B,Astar), weyl(Astar,Bstar):
  move(K,Vstar), move(B,Vstar), move(Bstar,Vstar); with serre(Astar,A):
  tridiag(A,Vstar);
- weights, unit(K Kinv) and unit(Kinv K) with flag-tail-match:
  move(K,V-tail); with flag-head-match: move(Kinv,Vstar-head) (V_i lies in
  U_i + ... + U_d, which K - theta_i moves one step down the weight tails);
- tridiag(A,Vstar): ladder(W):A-up and ladder(Wstar):A-up;
  tridiag(Astar,V): ladder(W):Astar-down and ladder(Wstar):Astar-down (the
  other flag's side is an eigenspace shift);
- move(Kinv,V) with move(Kinv,Vstar-head): ladder(W):Kinv-down; move(K,Vstar)
  with move(K,V-tail): ladder(Wstar):K-up (inherited moves);
- move(K,Vstar) with sum(W-head): ladder(W):K-head; move(Kinv,V) with
  sum(Wstar-tail): ladder(Wstar):Kinv-tail (W_k lies in vstar.head[k], and
  W's head sums are the A*-flag's; the same for W* against V's tails);
- decomposition(Wstar) with serre(Bstar,B): tridiag(B,Wstar);
  decomposition(W) with serre(B,Bstar): tridiag(Bstar,W) (q-Serre, with B*
  and B diagonal on the split spaces they were built from);
- serre(R,L) and serre(L,R) of the input report: the lowering suite's
  serre(R,L) and serre(L,R), the same relations on the same R and L.

The K^{+-1} moves on W and W* name the flags' K^{+-1} moves, not the flag
matches: a flag match alone says nothing of how K^{+-1} acts unless the
weight ladder and the unit relations hold, and those are the premises of
the flags' K^{+-1} moves. A stage is handed the names of the checks that
passed on the matrices and spaces it is handed, and adds those it decides
itself (eigendecomp, the flag matches, the sums, the relations of B and
B*) that pass there; "weights" holds when the ladder it is handed is m's
own `weights` memo, the one the analyzer checked. extend hands over the
checks passed in its strict log and its input report. A stage handed
nothing evaluates every check, because each derivation needs at least one
check from outside the stage, and a stage cannot know on which matrices
and spaces an outside check was made; so a stage called on its own, or on
input that fails a premise, logs the literal ledger. The four U-moves stay
literal: on a diagonal K they take the coordinate path and form no image
column, so the four together cost under a millisecond of a t16 extend and
deriving them would save little. The grid moves are derived in
build_w_grid.

The output check derives 16 of its 21 relations (the last rows of
`_PREMISES`). Lemma: on the assembled action e0p = R, e1p = L, e0m = eps0 l,
e1m = eps1 r, K0 = (eps0/alpha) K, K0inv = eps0 alpha Kinv,
K1 = eps1 alpha Kinv and K1inv = (eps1/alpha) K, each of these residuals
equals, entry for entry, a sign times a residual that extend has already
computed on the same R, L, K, Kinv, r and l (eps0^2 = eps1^2 = 1; the
scalars of K_i and K_i^-1 cancel in every word that holds both, and each
word of a q-Serre relation has three x and one y):

- from the input report, with sign 1: unit(K0 K0inv) and unit(K1inv K1)
  from unit(K Kinv); unit(K0inv K0) and unit(K1 K1inv) from unit(Kinv K);
  weight(K0,e0p) from weight(K,R); weight(K0,e1p) from weight(K,L);
  serre(e0p,e1p) from serre(R,L); serre(e1p,e0p) from serre(L,R);
- from the lowering suite: weight(K0,e0m) = eps0 weight(l);
  weight(K0,e1m) = eps1 weight(r); bracket(e0p,e0m) = -eps0
  commutator(l,R); bracket(e1p,e1m) = -eps1 commutator(r,L);
  commute(e0p,e1m) = -eps1 commute(r,R); commute(e0m,e1p) = eps0
  commute(l,L); serre(e0m,e1m) = eps0 eps1 serre(l,r); serre(e1m,e0m) =
  eps0 eps1 serre(r,l).

Only a passing source derives its relation: its residual is zero, and so
is a sign times it, so the table rows carry no sign. A relation whose
source failed is evaluated. Every source has passed by the time the output
is checked (the log is strict), so output-relations evaluates 5 relations,
commute(K0,K1) and the four K1 weights, whose words K^-1 e K appear in no
earlier check.

Every check failure aborts with the check's name; the engine doubles as a
certificate generator for the whole chain of identities. Conversely, for a
module obtained by restricting a full module of matching type, the extension
reproduces the original generator matrices bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .analysis import ABSOLUTELY_IRREDUCIBLE, burnside_irreducible
from .errors import CheckFailedError, IrreducibilityError, RelationError
from .factory import ModuleData
from .linalg import (
    Ladder,
    Matrix,
    Subspace,
    first_escape,
    independent,
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
from .report import CheckLog, CheckResult, derivable
from .scalars import ONE, QParam, as_scalar
from .weights import WeightLadder

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
    v_spaces: tuple[Subspace, ...]
    vstar_spaces: tuple[Subspace, ...]
    w_spaces: tuple[Subspace, ...]
    wstar_spaces: tuple[Subspace, ...]
    b_mat: Matrix
    bstar_mat: Matrix
    r_mat: Matrix
    l_mat: Matrix
    checks: list[CheckResult]

    @cached_property
    def w_grid(self) -> dict[tuple[int, int], Subspace]:
        """Every cell W(i,j) = W_(d-j) + ... + W_i: a trace exists only when
        every check has passed, and then the lemma of build_w_grid holds."""
        w, d, zero = self.w_spaces, self.diameter, Subspace.zero(self.a_mat.rows)
        return {(i, j): reduce(subspace_sum, w[d - j:i + 1], zero)
                for i in range(d + 1) for j in range(d + 1)}

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
    b: tuple[Fraction, ...]  # q^(2i-d): B on W_i; reversed, B* on W*_i


@lru_cache(maxsize=None)
def _eigenvalues(q: QParam, alpha: Fraction, d: int) -> _Eigenvalues:
    theta = tuple(alpha * q.pow(2 * i - d) for i in range(d + 1))
    theta_star = tuple(q.pow(d - 2 * i) / alpha for i in range(d + 1))
    b = tuple(q.pow(2 * i - d) for i in range(d + 1))
    return _Eigenvalues(theta, theta_star, b)


# Each check logged as passed without evaluation, with the checks it follows
# from (the lemmas in the module docstring). _WEIGHTS stands for the weight
# ladder the analyzer checked.
_WEIGHTS = "weights"
_PREMISES = {
    "move(Kinv,V)": ("eigendecomp(A)", "weyl(Kinv,A)"),
    "move(K,V-tail)": (_WEIGHTS, "unit(K Kinv)", "unit(Kinv K)", "flag-tail-match"),
    "move(K,Vstar)": ("eigendecomp(Astar)", "weyl(K,Astar)"),
    "move(Kinv,Vstar-head)": (_WEIGHTS, "unit(K Kinv)", "unit(Kinv K)", "flag-head-match"),
    "tridiag(Astar,V)": ("eigendecomp(A)", "serre(A,Astar)"),
    "tridiag(A,Vstar)": ("eigendecomp(Astar)", "serre(Astar,A)"),
    "ladder(W):A-up": ("tridiag(A,Vstar)",),
    "ladder(W):Astar-down": ("tridiag(Astar,V)",),
    "ladder(W):Kinv-down": ("move(Kinv,V)", "move(Kinv,Vstar-head)"),
    "ladder(W):K-head": ("move(K,Vstar)", "sum(W-head)"),
    "ladder(Wstar):A-up": ("tridiag(A,Vstar)",),
    "ladder(Wstar):Astar-down": ("tridiag(Astar,V)",),
    "ladder(Wstar):K-up": ("move(K,Vstar)", "move(K,V-tail)"),
    "ladder(Wstar):Kinv-tail": ("move(Kinv,V)", "sum(Wstar-tail)"),
    "move(B,V)": ("eigendecomp(A)", "weyl(A,B)"),
    "move(B,Vstar)": ("eigendecomp(Astar)", "weyl(B,Astar)"),
    "move(Bstar,V)": ("eigendecomp(A)", "weyl(Bstar,A)"),
    "move(Bstar,Vstar)": ("eigendecomp(Astar)", "weyl(Astar,Bstar)"),
    "tridiag(B,Wstar)": ("decomposition(Wstar)", "serre(Bstar,B)"),
    "tridiag(Bstar,W)": ("decomposition(W)", "serre(B,Bstar)"),
    # the lowering suite's relations that are the input's own, on the same R, L
    "serre(R,L)": ("serre(R,L)",),
    "serre(L,R)": ("serre(L,R)",),
    # the output relations, each a sign times the residual of its source
    "unit(K0 K0inv)": ("unit(K Kinv)",),
    "unit(K0inv K0)": ("unit(Kinv K)",),
    "unit(K1 K1inv)": ("unit(Kinv K)",),
    "unit(K1inv K1)": ("unit(K Kinv)",),
    "weight(K0,e0p)": ("weight(K,R)",),
    "weight(K0,e1p)": ("weight(K,L)",),
    "serre(e0p,e1p)": ("serre(R,L)",),
    "serre(e1p,e0p)": ("serre(L,R)",),
    "weight(K0,e0m)": ("weight(l)",),
    "weight(K0,e1m)": ("weight(r)",),
    "bracket(e0p,e0m)": ("commutator(l,R)",),
    "bracket(e1p,e1m)": ("commutator(r,L)",),
    "commute(e0p,e1m)": ("commute(r,R)",),
    "commute(e0m,e1p)": ("commute(l,L)",),
    "serre(e0m,e1m)": ("serre(l,r)",),
    "serre(e1m,e0m)": ("serre(r,l)",),
}


def _derived(passed: frozenset[str], decided: Iterable[CheckResult]) -> frozenset[str]:
    """The checks of `_PREMISES` that `report.derivable` grants, once the
    checks a stage decided itself that passed join those handed in."""
    return derivable(_PREMISES, passed | {c.name for c in decided if c.passed})


def _moves_into(
    log: CheckLog, anchor: str, moves: tuple, derived: frozenset[str] = frozenset(),
    detail: Callable[[int], str] = "containment fails at index {}".format,
) -> None:
    """For each move (name, mat, shifts, spaces, targets), log whether
    (mat - shifts[i] I)(spaces[i]) lies inside t[i] for every i and every
    target list t of targets(); with shifts None, whether mat(spaces[i])
    does. A failure's detail is detail(i) at the first index i that escapes
    some t[i]. With several target lists each image is formed once, for all
    of them (`first_escape` of the tuples of targets). A move named in
    derived follows from checks already passed (`_derived`): it is logged
    as passed, and its targets are never built."""
    for name, mat, shifts, spaces, targets in moves:
        if name in derived:
            log.condition(name, anchor, True)
            continue
        targets = targets()
        i = first_escape(mat, shifts, spaces, targets[0] if len(targets) == 1
                         else tuple(zip(*targets)))
        log.condition(name, anchor, i is None, "" if i is None else detail(i))


def _nears(ladder: Ladder) -> tuple[tuple[Subspace, ...], tuple[Subspace, ...]]:
    """head[min(i+1, d)] and tail[max(i-1, 0)] for each i: in a direct sum
    they meet in at(i-1) + at(i) + at(i+1) (the lemma in Ladder). Each ladder
    a tridiag check reads is one: V and V* are kernels of A, A* at distinct
    eigenvalues (alpha != 0, |q| != 1), and W, W* are eigenspaces of B, B*
    at the distinct q^(2i-d), since from_graph accepted them."""
    return ladder.head[1:] + ladder.head[-1:], ladder.tail[:1] + ladder.tail[:-1]


def _dims_match(spaces: Sequence[Subspace], chain: Sequence[Subspace]) -> bool:
    """Whether dim chain[i] = dim spaces[0] + ... + dim spaces[i] for every i:
    for independent spaces, each inside its member of the nested chain, that
    count decides whether their running sums are the chain (the lemma in
    Ladder)."""
    return all(c.dim == k for c, k in zip(chain, accumulate(s.dim for s in spaces)))


def _fills(spaces: Sequence[Subspace], chain: Sequence[Subspace]) -> bool:
    """Whether the running sums of independent spaces are the nested chain:
    containment plus dimension (the lemma in Ladder), with no sum built."""
    return _dims_match(spaces, chain) and all(
        c.contains(s) for s, c in zip(spaces, chain))


def _decomposition_failure(ladder: Ladder) -> str | None:
    """Why the spaces are not all nonzero, pairwise independent and summing
    to the full space; None when they are."""
    if any(s.dim == 0 for s in ladder):
        return "a component is zero"
    sizes = list(accumulate(s.dim for s in ladder))
    for i, running in enumerate(ladder.head):
        if running.dim != sizes[i]:
            return f"component {i} overlaps the preceding sum"
    total = ladder.head[-1]
    if total.dim != total.ambient_dim:
        return f"components span dimension {total.dim} of {total.ambient_dim}"
    return None


def _decomposes(spaces: Sequence[Subspace]) -> bool:
    """Whether the spaces decompose the whole space: each is nonzero, their
    dimensions add up to n, and all their rows, put into one forward
    elimination, stay independent."""
    dims = [s.dim for s in spaces]
    return all(dims) and sum(dims) == spaces[0].ambient_dim and independent(spaces)


def _split_spaces(
    head: tuple[Subspace, ...], tail: tuple[Subspace, ...]
) -> tuple[Ladder, str | None, bool, bool]:
    """The spaces S_k = head[k] n tail[k] of a rising chain head and a falling
    chain tail, as a Ladder; why they do not decompose the space (None when
    they do); whether their head sums are the chain head; and whether their
    tail sums are the chain tail.

    Each S_k lies in both chains, so once `_decomposes` shows S direct
    both sum checks are counts (the lemma in Ladder), and the Ladder reads
    each chain that passes as its sums. Otherwise the running sums are built
    and compared literally, so a failing run logs the same details."""
    spaces = [subspace_intersect(h, t) for h, t in zip(head, tail)]
    if _decomposes(spaces):
        head_ok = _dims_match(spaces, head)
        tail_ok = _dims_match(spaces[::-1], tail[::-1])
        split = Ladder(spaces, known_head=head if head_ok else None,
                       known_tail=tail if tail_ok else None)
        return split, None, head_ok, tail_ok
    split = Ladder(spaces)
    return split, _decomposition_failure(split), split.head == head, split.tail == tail


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
    passed: frozenset[str] = frozenset(),
) -> tuple[Ladder, Ladder]:
    """Eigenspace ladders of A and A* at their closed-form eigenvalues.

    The eigenvalues are alpha q^(2i-d) for A and alpha^-1 q^(d-2i) for A*;
    they are never discovered numerically. Verifies both ladders decompose
    the space, that partial sums match the weight-space partial sums, the
    one-step moves of A, A* on the weight ladder and of K^{±1} on the
    flags, and the tridiagonal action of each split operator on the other's
    flag. The K^{±1} and tridiagonal moves whose premises hold (handed in
    as passed, decided here, or m's own weight ladder) are derived, not
    evaluated (`_PREMISES`).
    """
    n = m.dim
    ev = _eigenvalues(m.q, ladder.alpha, ladder.diameter)
    K, Kinv = m.action["K"], m.action["Kinv"]
    u = Ladder(ladder.spaces)
    v = tuple(kernel(a_mat, t) for t in ev.theta)
    vstar = tuple(kernel(astar_mat, t) for t in ev.theta_star)
    start = len(log.entries)
    for name, flag in (("eigendecomp(A)", v), ("eigendecomp(Astar)", vstar)):
        dims = [s.dim for s in flag]
        log.condition(
            name, ANCHOR_FLAGS, sum(dims) == n and all(dims),
            f"eigenspace dims {dims} do not fill dimension {n}",
        )
    # V and V* are kernels of A, A* at distinct eigenvalues (alpha != 0, and q
    # is no root of unity), so each is independent: a flag matches the weight
    # sums by containment plus dimension (the lemma in Ladder), and a flag
    # that matches reads the weight sums as its own.
    tails_match = log.condition(
        "flag-tail-match", ANCHOR_FLAGS,
        _fills(v[::-1], u.tail[::-1]),
        "suffix sums of the A-flag do not match the weight-space suffix sums",
    )
    heads_match = log.condition(
        "flag-head-match", ANCHOR_FLAGS,
        _fills(vstar, u.head),
        "prefix sums of the A*-flag do not match the weight-space prefix sums",
    )
    v = Ladder(v, known_tail=u.tail if tails_match else None)
    vstar = Ladder(vstar, known_head=u.head if heads_match else None)
    # When U is a direct sum head[i] n tail[i] = U_i (the lemma in Ladder),
    # so flags that match the weight spaces need no intersection.
    log.condition(
        "weight-from-flags", ANCHOR_FLAGS,
        (tails_match and heads_match and _decomposition_failure(u) is None)
        or all(
            s == subspace_intersect(head, tail)
            for s, head, tail in zip(u, vstar.head, v.tail)
        ),
        "weight spaces differ from head(A*-flag) n tail(A-flag)",
    )
    if ladder is vars(m).get("weights"):  # the ladder the analyzer checked
        passed |= {_WEIGHTS}
    _moves_into(log, ANCHOR_FLAGS, (
        ("move(A,U)", a_mat, ev.theta, u, lambda: (u.step(1),)),
        ("move(Astar,U)", astar_mat, ev.theta_star, u, lambda: (u.step(-1),)),
        ("move(Kinv,V)", Kinv, ev.theta_star, v, lambda: (v.step(1),)),
        ("move(K,V-tail)", K, ev.theta, v, lambda: (Ladder(v.tail).step(1),)),
        ("move(K,Vstar)", K, ev.theta, vstar, lambda: (vstar.step(-1),)),
        ("move(Kinv,Vstar-head)", Kinv, ev.theta_star, vstar,
         lambda: (Ladder(vstar.head).step(-1),)),
        ("tridiag(Astar,V)", astar_mat, None, v, lambda: _nears(v)),
        ("tridiag(A,Vstar)", a_mat, None, vstar, lambda: _nears(vstar)),
    ), _derived(passed, log.entries[start:]))
    return v, vstar


def build_w_grid(
    m: ModuleData,
    ladder: WeightLadder,
    a_mat: Matrix,
    astar_mat: Matrix,
    v: Ladder,
    vstar: Ladder,
    log: CheckLog,
    passed: frozenset[str] = frozenset(),
) -> tuple[dict[tuple[int, int], Subspace], Ladder, Ladder]:
    """The intersection grid W(i,j) and the two split decompositions.

    W(i,j) intersects the A*-flag prefix of depth i with the A-flag prefix of
    depth j; the grid vanishes strictly below the antidiagonal, its boundary
    rows/columns are the plain prefix sums, and the antidiagonal spaces
    W_i = W(i, d-i) and their mirrors W*_i decompose the module.

    Only W_i and W*_i, 2(d+1) spaces, are intersected. Their checks are
    logged after the grid checks but run first, because when they hold every
    grid check follows: the split decomposition of a tridiagonal pair
    (Ito-Tanabe-Terwilliger 2001). The lemma takes four premises:

    - decomposition(W): W_0 + ... + W_d is a direct sum of the whole space;
    - sum(W-head): W_0 + ... + W_i is the A*-flag prefix of depth i;
    - sum(W-tail): W_k + ... + W_d is the A-flag prefix of depth d-k;
    - the four ladder(W) moves: (A - theta_(d-k)) W_k lies in W_(k+1),
      (A* - theta*_k) W_k and (K^-1 - theta*_k) W_k in W_(k-1), and
      (K - theta_k) W_k in W_0 + ... + W_(k-1).

    No sum is built for these premises when W is shown direct
    (`_decomposes`): W_k is the intersection of the two prefixes, so
    it lies in both, and each sum check is then a count of dimensions, by
    the containment-plus-dimension lemma in Ladder. W* is the same against
    the two flags' suffixes. A sum that passes is the flag's own, which is
    what every later reader of W's or W*'s sums is handed.

    W is a direct sum, so by the lemma in Ladder W(i,j) = W_(d-j) + ... + W_i,
    zero when i + j < d. The boundary, vanishing and monotone checks read off
    this interval form. Each move acts on a component W_k of the cell,
    d-j <= k <= i, through a split:

    - A: (A - theta_j) = (A - theta_(d-k)) + (theta_(d-k) - theta_j) maps W_k
      into W_(k+1) + W_k, and the second term is zero for k = d-j, so the
      cell goes into W_(d-j+1) + ... + W_(i+1) = W(i+1, j-1);
    - A*: (A* - theta*_i) = (A* - theta*_k) + (theta*_k - theta*_i) maps W_k
      into W_(k-1) + W_k, the second term zero for k = i, so the cell goes
      into W_(d-j-1) + ... + W_(i-1) = W(i-1, j+1);
    - K^-1: the same split, through the Kinv-down move;
    - K: (K - theta_i) = (K - theta_k) + (theta_k - theta_i) maps W_k into
      W_0 + ... + W_k, the second term zero for k = i, so a nonzero cell
      (i + j >= d) goes into W_0 + ... + W_(i-1): its target, the sum of the
      cells (i-h, j+h) for h = 1..i.

    (A row or column index past d reads as d, one below 0 as the zero
    space.) When every staged check holds, the eight grid checks are logged
    as passed and no cell is built. Otherwise every cell is intersected
    literally, so a failing run logs the same checks and details either way.

    The eight ladder moves are themselves inherited from the flags when
    their premises are handed in as passed (`_PREMISES`, the lemmas in the
    module docstring): W_k is vstar.head[k] n v.head[d-k] and W*_k is
    vstar.tail[d-k] n v.tail[k]. The sums are staged before them, since two
    of those premises are sum checks.

    Returns the literally intersected cells (none on a passing run), W and
    W*.
    """
    d = ladder.diameter
    ev = _eigenvalues(m.q, ladder.alpha, d)
    K, Kinv = m.action["K"], m.action["Kinv"]
    zero = Subspace.zero(m.dim)
    w, w_failure, w_head, w_tail = _split_spaces(vstar.head, v.head[::-1])
    wstar, wstar_failure, wstar_head, wstar_tail = _split_spaces(vstar.tail[::-1], v.tail)

    staged, sums = CheckLog(), CheckLog()
    for name, failure in (
        ("decomposition(W)", w_failure),
        ("decomposition(Wstar)", wstar_failure),
    ):
        staged.condition(name, ANCHOR_GRID, failure is None, failure or "")
    for name, ok, detail in (
        ("sum(W-tail)", w_tail,
         "suffix sums of W do not match prefix sums of the A-flag"),
        ("sum(W-head)", w_head,
         "prefix sums of W do not match prefix sums of the A*-flag"),
        ("sum(Wstar-tail)", wstar_tail,
         "suffix sums of W* do not match suffix sums of the A-flag"),
        ("sum(Wstar-head)", wstar_head,
         "prefix sums of W* do not match suffix sums of the A*-flag"),
    ):
        sums.condition(name, ANCHOR_GRID, ok, detail)
    _moves_into(staged, ANCHOR_GRID, (
        ("ladder(W):A-up", a_mat, ev.theta[::-1], w, lambda: (w.step(1),)),
        ("ladder(W):Astar-down", astar_mat, ev.theta_star, w, lambda: (w.step(-1),)),
        ("ladder(W):Kinv-down", Kinv, ev.theta_star, w, lambda: (w.step(-1),)),
        ("ladder(W):K-head", K, ev.theta, w, lambda: (Ladder(w.head).step(-1),)),
        ("ladder(Wstar):A-up", a_mat, ev.theta, wstar, lambda: (wstar.step(1),)),
        ("ladder(Wstar):Astar-down", astar_mat, ev.theta_star[::-1], wstar,
         lambda: (wstar.step(-1),)),
        ("ladder(Wstar):K-up", K, ev.theta, wstar, lambda: (wstar.step(1),)),
        ("ladder(Wstar):Kinv-tail", Kinv, ev.theta_star, wstar,
         lambda: (Ladder(wstar.tail).step(1),)),
    ), _derived(passed, sums.entries))
    staged.entries += sums.entries

    # By the lemma the grid checks hold over every cell; they run over none.
    derived = all(c.passed for c in staged.entries)
    cells = [] if derived else [(i, j) for i in range(d + 1) for j in range(d + 1)]
    grid = {(i, j): subspace_intersect(vstar.head[i], v.head[j]) for i, j in cells}
    log.condition(
        "grid-boundary(row)", ANCHOR_GRID,
        all(s == vstar.head[i] for (i, j), s in grid.items() if j == d),
        "W(i,d) differs from the A*-flag prefix",
    )
    log.condition(
        "grid-boundary(col)", ANCHOR_GRID,
        all(s == v.head[j] for (i, j), s in grid.items() if i == d),
        "W(d,j) differs from the A-flag prefix",
    )
    log.condition(
        "grid-vanishing", ANCHOR_GRID,
        all(s.dim == 0 for (i, j), s in grid.items() if i + j < d),
        "a grid space below the antidiagonal is nonzero",
    )
    log.condition(
        "grid-monotone", ANCHOR_GRID,
        all(
            s.dim <= grid[(i + 1, j)].dim and s.dim <= grid[(i, j + 1)].dim
            for (i, j), s in grid.items()
            if i < d and j < d
        ),
        "grid dimensions are not monotone",
    )

    # Past its last row or column the grid repeats that row or column; before
    # its first one it is zero.
    up = [grid[(min(i + 1, d), j - 1)] if j else zero for i, j in cells]
    down = [grid[(i - 1, min(j + 1, d))] if i else zero for i, j in cells]
    k_sums = [
        reduce(subspace_sum,
               (grid[(i - h, min(j + h, d))] for h in range(1, i + 1)), zero)
        for i, j in cells
    ]
    spaces = list(grid.values())
    _moves_into(log, ANCHOR_GRID, (
        ("grid-move(A)", a_mat, [ev.theta[j] for _, j in cells], spaces, lambda: (up,)),
        ("grid-move(Astar)", astar_mat, [ev.theta_star[i] for i, _ in cells],
         spaces, lambda: (down,)),
        ("grid-move(Kinv)", Kinv, [ev.theta_star[i] for i, _ in cells], spaces,
         lambda: (down,)),
        ("grid-move(K)", K, [ev.theta[i] for i, _ in cells], spaces, lambda: (k_sums,)),
    ), detail=lambda k: "grid move fails at ({},{})".format(*cells[k]))

    for c in staged.entries:
        log.condition(c.name, c.anchor, c.passed, c.detail)
    return grid, w, wstar


def _projector_operator(
    spaces: Ladder, values: Sequence[Fraction], n: int, check: str
) -> Matrix:
    """The operator with spaces[i] as eigenspace for the eigenvalue values[i],
    read off the echelon form of its graph: the pairs (x, values[i] x) over
    the reduced rows x of each spaces[i] (`Matrix.from_graph`). Raises
    CheckFailedError naming ``check`` when the spaces do not decompose the
    space, so that no such operator exists."""
    try:
        return Matrix.from_graph(n, (
            (x, {j: lam * v for j, v in x.items()})
            for s, lam in zip(spaces, values) for x in s.pivot_rows.values()
        ))
    except ValueError:
        raise CheckFailedError(
            check, f"verification failed: {check}: the split operator has no graph"
        ) from None


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
    passed: frozenset[str] = frozenset(),
) -> tuple[Matrix, Matrix]:
    """The split operators: B has eigenvalue q^(2i-d) on W_i, B* has
    eigenvalue q^(d-2i) on W*_i. Verifies the Weyl pairings with A, A* and
    K^{±1}, the q-Serre relations, and all one-step moves on the three
    ladders. The flag and tridiagonal moves whose premises hold (the
    relations checked here, and the flags' and split spaces' decompositions
    handed in as passed) are derived, not evaluated (`_PREMISES`). W or W*
    that do not decompose the space have no split operator: CheckFailedError
    names decomposition(W) or decomposition(Wstar)."""
    q, alpha, n = m.q, ladder.alpha, m.dim
    ev = _eigenvalues(q, alpha, ladder.diameter)
    b_mat = _projector_operator(w, ev.b, n, "decomposition(W)")
    bstar_mat = _projector_operator(wstar, ev.b[::-1], n, "decomposition(Wstar)")
    start = len(log.entries)
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
        ("move(B,V)", b_mat, ev.b[::-1], v, lambda: (v.step(-1),)),
        ("move(B,Vstar)", b_mat, ev.b, vstar, lambda: (vstar.step(-1),)),
        ("move(Bstar,V)", bstar_mat, ev.b[::-1], v, lambda: (v.step(1),)),
        ("move(Bstar,Vstar)", bstar_mat, ev.b, vstar, lambda: (vstar.step(1),)),
        ("move(B,U)", b_mat, ev.b, u, lambda: (u.step(-1),)),
        ("move(Bstar,U)", bstar_mat, ev.b[::-1], u, lambda: (u.step(1),)),
        ("tridiag(B,Wstar)", b_mat, None, wstar, lambda: _nears(wstar)),
        ("tridiag(Bstar,W)", bstar_mat, None, w, lambda: _nears(w)),
    ), _derived(passed, log.entries[start:]))
    return b_mat, bstar_mat


def _lowering_relations(q: QParam, alpha: Fraction) -> tuple[RelationWord, ...]:
    """The commutation suite of r and l with R, L, K^{±1}, B and B*."""
    denom, c = q.lowering_denominator, ONE / q.weyl_denominator
    return (
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
    )


def _lowering_suite(
    m: ModuleData,
    ladder: WeightLadder,
    b_mat: Matrix,
    bstar_mat: Matrix,
    log: CheckLog,
    passed: frozenset[str] = frozenset(),
) -> tuple[Matrix, Matrix]:
    """r and l, plus the complete commutation suite they satisfy with R, L
    and K^{±1}. Its q-Serre relations in R and L are the input's own, on
    the same R and L: when the input's checks of them are handed in as
    passed, they are derived (`_PREMISES`), in place, not evaluated again."""
    q, alpha = m.q, ladder.alpha
    K, Kinv = m.action["K"], m.action["Kinv"]
    denom = q.lowering_denominator
    r_mat = (K @ bstar_mat).shift(alpha).scale(-1 / denom)
    l_mat = (Kinv @ b_mat).shift(1 / alpha).scale(-1 / denom)
    assignment = {**m.action, "B": b_mat, "Bstar": bstar_mat, "r": r_mat, "l": l_mat}
    check_relations(log, ANCHOR_LOWER, _lowering_relations(q, alpha), assignment,
                    derivable(_PREMISES, passed))
    return r_mat, l_mat


def assemble(
    action: dict[str, Matrix], r_mat: Matrix, l_mat: Matrix,
    alpha: Fraction, eps0: Fraction, eps1: Fraction,
) -> dict[str, Matrix]:
    """The full action of type (eps0, eps1) from the input's R, L, K, Kinv
    and the lowering operators r, l."""
    return {
        "e0p": action["R"],
        "e1p": action["L"],
        "e0m": eps0 * l_mat,
        "e1m": eps1 * r_mat,
        "K0": (eps0 / alpha) * action["K"],
        "K0inv": (eps0 * alpha) * action["Kinv"],
        "K1": (eps1 * alpha) * action["Kinv"],
        "K1inv": (eps1 / alpha) * action["K"],
    }


def extend(
    m: ModuleData,
    eps0: int | str | Fraction,
    eps1: int | str | Fraction,
) -> tuple[ModuleData, ExtensionTrace]:
    """Upgrade an irreducible ugeq0 module to a full affine module of type
    (eps0, eps1), same diameter, with every intermediate identity verified.

    The full action is R, L for the raising generators, eps0*l and eps1*r for
    the lowering ones, and eps0 alpha^-1 K, eps1 alpha K^-1 for K0, K1
    (`assemble`). Its relation report derives the 16 relations that are a
    sign times a passing check already made (the lemma in the module
    docstring) and evaluates the other 5. Raises RelationError,
    IrreducibilityError or CheckFailedError (naming the failed verification)
    on malformed input.
    """
    eps0, eps1 = as_scalar(eps0), as_scalar(eps1)
    if eps0 * eps0 != 1 or eps1 * eps1 != 1:
        raise ValueError("type signs must be 1 or -1")
    if m.kind != UGEQ0:
        raise RelationError("kind", f"extend requires a ugeq0 module, got {m.kind}")
    input_report = m.relations
    if not input_report.passed:
        raise RelationError(input_report.failing()[0].name)
    irr = burnside_irreducible(m)
    if irr.verdict != ABSOLUTELY_IRREDUCIBLE:
        raise IrreducibilityError(
            f"extension requires an irreducible module; word span dimension is "
            f"{irr.word_span_dim} of {m.dim ** 2}",
            span_dim=irr.word_span_dim,
        )
    ladder = m.weights
    alpha, d = ladder.alpha, ladder.diameter

    log = CheckLog(strict=True)

    def passed() -> frozenset[str]:
        """The checks passed so far, of the input report and of the log, on
        the matrices and spaces handed on."""
        checks = (*input_report.entries, *log.entries)
        return frozenset(c.name for c in checks if c.passed)

    log.condition("input-relations", ANCHOR_SPLIT, input_report.passed)
    a_mat, astar_mat = build_a_astar(m, log)
    v, vstar = eigen_flags(m, a_mat, astar_mat, ladder, log, passed())
    _, w, wstar = build_w_grid(m, ladder, a_mat, astar_mat, v, vstar, log, passed())
    b_mat, bstar_mat = build_b_bstar(
        m, ladder, a_mat, astar_mat, v, vstar, w, wstar, log, passed())
    r_mat, l_mat = _lowering_suite(m, ladder, b_mat, bstar_mat, log, passed())
    # checks is the log's own list, so the output checks below land in it too
    trace = ExtensionTrace(
        alpha=alpha, diameter=d, weight_spaces=ladder.spaces,
        a_mat=a_mat, astar_mat=astar_mat, v_spaces=v.spaces, vstar_spaces=vstar.spaces,
        w_spaces=w.spaces, wstar_spaces=wstar.spaces,
        b_mat=b_mat, bstar_mat=bstar_mat, r_mat=r_mat, l_mat=l_mat, checks=log.entries,
    )

    full = ModuleData(
        AFFINE_FULL,
        m.dim,
        m.q,
        assemble(m.action, r_mat, l_mat, alpha, eps0, eps1),
        f"extend({m.provenance}, eps0={eps0}, eps1={eps1})",
    )
    # 16 of the 21 output relations are a sign times a check already made
    out_report = check_presentation(AFFINE_FULL, full, derivable(_PREMISES, passed()))
    vars(full)["relations"] = out_report  # where cached_property keeps it
    log.condition(
        "output-relations", ANCHOR_OUT, out_report.passed,
        "; ".join(c.name for c in out_report.failing()),
    )
    out_weights = full.weights
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
    return full, trace
