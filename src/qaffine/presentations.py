"""The four algebra presentations and the exact relation checker.

Relations are stored as data: each side of a relation is a formal sum of
words in generator names with exact rational coefficients (which may involve
q, the bracket [3], or 1/(q - q^-1), all evaluated once per q). One code
path, ``check_relations``, substitutes matrices for generator names and logs
the exact residual lhs - rhs; it checks the defining relations below and
every matrix identity of the extension pipeline (whose A, A*, B, B*, r, l
are just more generator names, with the shared ``weyl``, ``q_serre`` and
``zero_commutator`` builders). A relation's lhs - rhs is merged once, on
first use (``RelationWord.merged``): repeated words merged into one
coefficient and zero ones dropped. ``check_relations`` compiles a whole
relation list into one straight-line program, a ``ListPlan``: every word
split at its midpoint, recursively, so that a half shared by several words,
of one relation or of several, is one product, and each word's last
product (left half times right half) added straight into its relation's
residual. A q-Serre relation costs 7 sparse products (x x, x y, y x and 4
fused ones), and its x y is shared with any other relation of the list
that reads it. The plan holds no coefficient: it is cached by the list's
shape, the merged words and letters of each relation, and a ``BoundList``
pairs it with the coefficients of one call. So the lists of the extension
pipeline, whose coefficients hold alpha, are compiled once per process,
not once per run. A presentation's list is bound once per kind, q and set
of derived names (``_presentation_list``), so checking a module file merges
no relation and hashes no list shape. ``evaluate_word`` runs a bound list
in ``int``, with the assignment checked once per list: each matrix
contributes its integer view (den * M), each product is one inline loop
over the left rows' entries, with no call per row, and the words of each
relation are scaled to one common denominator L, the lcm over its words of
den(c_w) times the product of the letters' den. The plan holds each word
as the positions of its letters, so that product reads the letters' den
with no name lookup. Fractions are built only for a residual's nonzero
entries, as v / L, and every residual that cancels everywhere, as on every
passing check, is one shared zero matrix, which `CheckLog.matrix_zero`
logs with no scan of its entries. A single formal sum is evaluated as a
one-relation list. ``check_relations`` and ``check_presentation`` take a
set of derived names: each relation named there is logged as passed, in
place, with nothing evaluated. The caller grants those names with
`report.derivable` over one of the two derivation tables,
``extension._PREMISES`` and ``factory._RESTRICTED_RELATIONS``, whose
lemmas are written out in those modules.

Supported presentations:

``affine_full``
    Generators e0p, e1p, e0m, e1m, K0, K0inv, K1, K1inv. Inverse pairs,
    commuting K's, the eight K-weight relations, the two raising/lowering
    commutators, the two mixed-sign commutation relations and the four
    q-Serre relations (21 relations).

``affine_borel``
    The raising half: e0p, e1p and the K's, with the relations of the full
    presentation that involve only those generators (11 relations).

``ugeq0``
    Generators R, L, K, Kinv: inverses, the two K-weight relations and the
    two q-Serre relations in R and L (6 relations).

``finite``
    Generators ep, em, k, kinv of the finite quantum sl2 (5 relations).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Sequence

from .errors import QAffineError
from .linalg import Matrix
from .report import CheckLog, VerificationReport
from .scalars import ONE, QParam, qint

if TYPE_CHECKING:  # pragma: no cover
    from .factory import ModuleData

GeneratorName = str

AFFINE_FULL = "affine_full"
AFFINE_BOREL = "affine_borel"
UGEQ0 = "ugeq0"
FINITE = "finite"

ALPHABETS: dict[str, tuple[GeneratorName, ...]] = {
    AFFINE_FULL: ("e0p", "e1p", "e0m", "e1m", "K0", "K0inv", "K1", "K1inv"),
    AFFINE_BOREL: ("e0p", "e1p", "K0", "K0inv", "K1", "K1inv"),
    UGEQ0: ("R", "L", "K", "Kinv"),
    FINITE: ("ep", "em", "k", "kinv"),
}

Word = tuple[GeneratorName, ...]
Term = tuple[Fraction, Word]
FormalSum = tuple[Term, ...]


def term(coeff: int | str | Fraction, *gens: GeneratorName) -> Term:
    return (Fraction(coeff), tuple(gens))


def formal_sum(*terms: Term) -> FormalSum:
    return tuple(terms)


@dataclass(frozen=True)
class ListPlan:
    """A relation list compiled for `evaluate_word` into one straight-line
    program over the integer views of its letters, with one residual per
    relation.

    Operand k is the matrix of ``letters[k]`` for k < len(letters); the
    half products follow in order, each ``halves`` pair (left, right)
    naming two earlier operands. A word of two or more letters is split at
    its midpoint, w[:len(w)//2] times w[len(w)//2:], and so is each half of
    two or more letters, so a half shared by several words, of one relation
    or of several, is one product. ``sums`` holds, per relation, its
    distinct words with a nonzero merged coefficient, each as (word, left,
    right): the word as the positions of its letters in ``letters``, then
    the operands of its halves for two or more letters, its letter's
    operand and None for one letter, and None twice for the empty word. The
    plan holds no coefficient: a `BoundList` supplies those on each call.
    So it depends only on the list's shape, its words and letters, and
    relations whose coefficients hold alpha share one plan for every alpha.
    ``generators`` lists the letters of every term, zero terms included."""

    generators: tuple[GeneratorName, ...]
    letters: tuple[GeneratorName, ...]
    halves: tuple[tuple[int, int], ...]
    sums: tuple[tuple[tuple[tuple[int, ...], int | None, int | None], ...], ...]


@dataclass(frozen=True)
class BoundList:
    """A `ListPlan` with the merged coefficients of one relation list: per
    relation, a (numerator, denominator) pair for each word of its sum."""

    plan: ListPlan
    coefficients: tuple[tuple[tuple[int, int], ...], ...]


def _operand(part: Word, operand: dict[Word, int], halves: list[tuple[int, int]]) -> int:
    """The operand of a nonempty word part: a letter's, or a half product's,
    appended to ``halves`` after its own halves if it is new. ``operand``
    holds every letter and every half so far, so a new half is operand
    len(operand)."""
    if part not in operand:
        mid = len(part) // 2
        halves.append((_operand(part[:mid], operand, halves),
                       _operand(part[mid:], operand, halves)))
        operand[part] = len(operand)
    return operand[part]


def _compile(sums: Sequence[Sequence[Word]]) -> tuple[
    tuple[GeneratorName, ...], tuple[tuple[int, int], ...],
    tuple[tuple[tuple[tuple[int, ...], int | None, int | None], ...], ...],
]:
    """The letters, halves and (word, left, right) sums of the program that
    evaluates several sums of distinct words, every word split into halves
    and held as its letters' positions (`ListPlan`), each half computed once
    for all of them."""
    letters = tuple(dict.fromkeys([g for words in sums for word in words for g in word]))
    operand = {(g,): k for k, g in enumerate(letters)}
    halves: list[tuple[int, int]] = []
    compiled = []
    for words in sums:
        out = []
        for word in words:
            left = right = None
            if len(word) == 1:
                left = operand[word]
            elif word:
                mid = len(word) // 2
                left = _operand(word[:mid], operand, halves)
                right = _operand(word[mid:], operand, halves)
            out.append((tuple([operand[(g,)] for g in word]), left, right))
        compiled.append(tuple(out))
    return letters, tuple(halves), tuple(compiled)


def _merge(words: FormalSum) -> tuple[
    tuple[Word, ...], tuple[tuple[int, int], ...], tuple[GeneratorName, ...]
]:
    """A formal sum merged: its distinct words whose merged coefficient is
    not 0, in order of first appearance, those coefficients as (numerator,
    denominator), and the letters of every term, zero terms included."""
    coeffs: dict[Word, Fraction] = {}
    for coeff, word in words:
        coeffs[word] = coeffs[word] + coeff if word in coeffs else coeff
    kept = {word: c for word, c in coeffs.items() if c}
    generators = tuple(dict.fromkeys([g for _, word in words for g in word]))
    coefficients = tuple((c.numerator, c.denominator) for c in kept.values())
    return tuple(kept), coefficients, generators


@dataclass(frozen=True)
class RelationWord:
    """One defining relation, lhs = rhs, both formal sums."""

    name: str
    lhs: FormalSum
    rhs: FormalSum

    @property
    def difference(self) -> FormalSum:
        return self.lhs + tuple((-c, w) for c, w in self.rhs)

    @cached_property
    def merged(self) -> tuple[
        tuple[Word, ...], tuple[tuple[int, int], ...], tuple[GeneratorName, ...]
    ]:
        """lhs - rhs merged (`_merge`): its words and letters are its part of
        a list's shape, and its coefficients what a `BoundList` binds."""
        return _merge(self.difference)


@lru_cache(maxsize=256)
def _list_plan(
    shape: tuple[tuple[tuple[Word, ...], tuple[GeneratorName, ...]], ...]
) -> ListPlan:
    """The `ListPlan` of a list shape, per relation its merged words and its
    letters: compiled once per shape and process."""
    letters, halves, sums = _compile([words for words, _ in shape])
    generators = tuple(dict.fromkeys([g for _, gens in shape for g in gens]))
    return ListPlan(generators, letters, halves, sums)


def bind_relations(relations: Sequence[RelationWord]) -> BoundList:
    """The relations as one program (`_list_plan`, cached by shape) with
    their merged coefficients bound."""
    merged = [rel.merged for rel in relations]
    plan = _list_plan(tuple((words, gens) for words, _, gens in merged))
    return BoundList(plan, tuple(coeffs for _, coeffs, _ in merged))


def evaluate_word(
    words: FormalSum | BoundList, assignment: Mapping[GeneratorName, Matrix]
) -> Matrix | tuple[Matrix, ...]:
    """Substitute matrices for generators in a formal sum and evaluate.

    ``words`` is a formal sum, bound as a one-relation list for this one
    call, and the result is its matrix; or a `BoundList`, and the result is
    one matrix per relation, in order. The assignment is checked
    once per call. The empty word is the identity and a one-letter word is
    its matrix. Everything runs over integers and one common denominator
    per sum. A word w is N_w / D_w, where N_w is the product of its
    letters' integer views (`Matrix.int_rows`) and D_w the product of their
    `den`. With L the lcm of den(c_w) * D_w over the words of a sum, L
    times the sum is the integer sum of c_w * (L / (den(c_w) * D_w)) * N_w.
    Each half of the plan is one sparse product, by an inline loop over the
    left rows' entries into one dict per row, made once for every sum that
    reads it. A word's last product, left half times right half, is added
    straight into its sum's rows by the same loop, with its scale folded
    into each left entry, so N_w itself is never built; a one-letter word
    adds its scaled integer rows and the empty word adds on the diagonal.
    An entry that cancels inside a product stays as a 0 until the end. When
    every entry of a sum is 0 its result is one `Matrix.zero`, the same for
    every such sum of the call; otherwise one Matrix is built, with a
    Fraction(v, L) for each entry v that did not cancel. All assigned
    matrices must be square and of equal dimension.
    """
    bound = words if isinstance(words, BoundList) else bind_relations(
        [RelationWord("", tuple(words), ())])
    plan = bound.plan
    if not assignment:
        raise QAffineError("empty assignment: dimension is undetermined")
    dims = {m.rows for m in assignment.values()} | {m.cols for m in assignment.values()}
    if len(dims) != 1:
        raise QAffineError("assigned matrices must all be square of equal dimension")
    n = dims.pop()
    for gen in plan.generators:
        if gen not in assignment:
            raise QAffineError(f"generator {gen!r} is not assigned a matrix")
    dens = [assignment[g].den for g in plan.letters]
    # each operand's rows as (column, entry) pairs: the letters' `int_rows`
    # as they are, every half product's rows as dict items, where an entry
    # that cancelled stays as a 0 (a residual drops it at the end)
    operands: list[Sequence[Iterable[tuple[int, int]]]] = [
        assignment[g].int_rows for g in plan.letters
    ]
    for left, right in plan.halves:
        right_rows = operands[right]
        rows = []
        for row in operands[left]:
            out: dict[int, int] = {}
            for t, a in row:
                for j, b in right_rows[t]:
                    if j in out:
                        out[j] += a * b
                    else:
                        out[j] = a * b
            rows.append(out.items())
        operands.append(rows)
    residuals = []
    zero = None  # one zero matrix for every residual that cancels
    for coefficients, sum_ in zip(bound.coefficients, plan.sums):
        terms = [(num, den * prod([dens[k] for k in word]), left, right)
                 for (num, den), (word, left, right) in zip(coefficients, sum_)]
        common = lcm(*[divisor for _, divisor, _, _ in terms])
        total: list[dict[int, int]] = [{} for _ in range(n)]  # L times the sum's rows
        for numerator, divisor, left, right in terms:
            c = numerator * (common // divisor)
            if right is not None:  # the last product, into the sum
                right_rows = operands[right]
                for row, out in zip(operands[left], total):
                    for t, a in row:
                        ca = c * a
                        for j, b in right_rows[t]:
                            if j in out:
                                out[j] += ca * b
                            else:
                                out[j] = ca * b
            elif left is not None:
                for row, out in zip(operands[left], total):
                    for j, v in row:
                        if j in out:
                            out[j] += c * v
                        else:
                            out[j] = c * v
            else:  # c I
                for i, out in enumerate(total):
                    out[i] = out[i] + c if i in out else c
        if any(any(row.values()) for row in total):
            residuals.append(Matrix.from_sparse(n, n, [
                {j: Fraction(v, common) for j, v in row.items() if v} for row in total
            ]))
        else:
            if zero is None:
                zero = Matrix.zero(n, n)
            residuals.append(zero)
    return tuple(residuals) if bound is words else residuals[0]


def check_relations(
    log: CheckLog,
    anchor: str,
    relations: Iterable[RelationWord],
    assignment: Mapping[GeneratorName, Matrix],
    derived: AbstractSet[str] = frozenset(),
) -> None:
    """Log, under ``anchor``, the exact residual lhs - rhs of each relation.
    A relation named in ``derived`` (`report.derivable`) is logged as
    passed, in place; the others are evaluated by one `evaluate_word` call
    on their `BoundList`."""
    relations = tuple(relations)
    bound = bind_relations([rel for rel in relations if rel.name not in derived])
    _log_residuals(log, anchor, relations, bound, assignment, derived)


def _log_residuals(
    log: CheckLog,
    anchor: str,
    relations: Sequence[RelationWord],
    bound: BoundList,
    assignment: Mapping[GeneratorName, Matrix],
    derived: AbstractSet[str],
) -> None:
    """`check_relations` with the relations not in ``derived`` already
    bound, in order, as ``bound``."""
    residuals = iter(evaluate_word(bound, assignment) if bound.coefficients else ())
    for rel in relations:
        if rel.name in derived:
            log.condition(rel.name, anchor, True)
        else:
            log.matrix_zero(rel.name, anchor, next(residuals))


def q_serre(x: GeneratorName, y: GeneratorName, q: QParam) -> RelationWord:
    """x^3 y - [3] x^2 y x + [3] x y x^2 - y x^3 = 0."""
    three = qint(3, q)
    lhs = formal_sum(
        term(1, x, x, x, y),
        (-three, (x, x, y, x)),
        (three, (x, y, x, x)),
        term(-1, y, x, x, x),
    )
    return RelationWord(f"serre({x},{y})", lhs, formal_sum())


def weyl(
    x: GeneratorName, y: GeneratorName, target: Fraction, q: QParam
) -> RelationWord:
    """(q x y - q^-1 y x)/(q - q^-1) = target."""
    c = ONE / q.weyl_denominator
    lhs = formal_sum((c * q.q, (x, y)), (-c / q.q, (y, x)))
    return RelationWord(f"weyl({x},{y})", lhs, formal_sum((target, ())))


def zero_commutator(x: GeneratorName, y: GeneratorName) -> RelationWord:
    """x y - y x = 0."""
    lhs = formal_sum(term(1, x, y), term(-1, y, x))
    return RelationWord(f"commute({x},{y})", lhs, formal_sum())


def _inverse_pair(k: GeneratorName, kinv: GeneratorName) -> list[RelationWord]:
    one = formal_sum(term(1))
    return [
        RelationWord(f"unit({k} {kinv})", formal_sum(term(1, k, kinv)), one),
        RelationWord(f"unit({kinv} {k})", formal_sum(term(1, kinv, k)), one),
    ]


def _weight(
    k: GeneratorName, kinv: GeneratorName, e: GeneratorName, power: int, q: QParam
) -> RelationWord:
    # k e k^-1 = q^power e
    lhs = formal_sum(term(1, k, e, kinv))
    rhs = formal_sum((q.pow(power), (e,)))
    return RelationWord(f"weight({k},{e})", lhs, rhs)


def _bracket_commutator(
    ep: GeneratorName, em: GeneratorName, k: GeneratorName, kinv: GeneratorName,
    q: QParam,
) -> RelationWord:
    # [ep, em] = (k - kinv)/(q - q^-1)
    c = ONE / q.weyl_denominator
    lhs = formal_sum(term(1, ep, em), term(-1, em, ep))
    rhs = formal_sum((c, (k,)), (-c, (kinv,)))
    return RelationWord(f"bracket({ep},{em})", lhs, rhs)


@lru_cache(maxsize=None)
def _relations(kind: str, q_value: Fraction) -> tuple[RelationWord, ...]:
    q = QParam(q_value)
    rels: list[RelationWord] = []
    if kind == AFFINE_FULL:
        for i in (0, 1):
            rels.extend(_inverse_pair(f"K{i}", f"K{i}inv"))
        rels.append(zero_commutator("K0", "K1"))
        for i in (0, 1):
            for sign, p in (("p", 2), ("m", -2)):
                rels.append(_weight(f"K{i}", f"K{i}inv", f"e{i}{sign}", p, q))
        for i, j in ((0, 1), (1, 0)):
            for sign, p in (("p", -2), ("m", 2)):
                rels.append(_weight(f"K{i}", f"K{i}inv", f"e{j}{sign}", p, q))
        for i in (0, 1):
            rels.append(_bracket_commutator(f"e{i}p", f"e{i}m", f"K{i}", f"K{i}inv", q))
        rels.append(zero_commutator("e0p", "e1m"))
        rels.append(zero_commutator("e0m", "e1p"))
        for i, j in ((0, 1), (1, 0)):
            for sign in ("p", "m"):
                rels.append(q_serre(f"e{i}{sign}", f"e{j}{sign}", q))
    elif kind == AFFINE_BOREL:
        # the full relations that involve the raising generators only
        alphabet = set(ALPHABETS[kind])
        rels = [
            rel for rel in _relations(AFFINE_FULL, q_value)
            if all(set(word) <= alphabet for _, word in rel.lhs + rel.rhs)
        ]
    elif kind == UGEQ0:
        rels.extend(_inverse_pair("K", "Kinv"))
        rels.append(_weight("K", "Kinv", "R", 2, q))
        rels.append(_weight("K", "Kinv", "L", -2, q))
        rels.append(q_serre("R", "L", q))
        rels.append(q_serre("L", "R", q))
    elif kind == FINITE:
        rels.extend(_inverse_pair("k", "kinv"))
        rels.append(_weight("k", "kinv", "ep", 2, q))
        rels.append(_weight("k", "kinv", "em", -2, q))
        rels.append(_bracket_commutator("ep", "em", "k", "kinv", q))
    else:
        raise QAffineError(f"unknown presentation kind: {kind!r}")
    return tuple(rels)


def relations_for(kind: str, q: QParam) -> tuple[RelationWord, ...]:
    """The complete defining relation list of a presentation at this q."""
    return _relations(kind, q.q)


@lru_cache(maxsize=None)
def _presentation_list(
    kind: str, q_value: Fraction, derived: frozenset[str]
) -> tuple[tuple[RelationWord, ...], BoundList]:
    """The relations of a presentation at q and those not ``derived`` bound
    as one list: merged and shaped once per kind, q and set of derived
    names, so a check of another module binds nothing again."""
    relations = _relations(kind, q_value)
    return relations, bind_relations([rel for rel in relations if rel.name not in derived])


def check_presentation(
    kind: str, data: "ModuleData", derived: AbstractSet[str] = frozenset()
) -> VerificationReport:
    """Evaluate every defining relation of ``kind`` on the module's matrices,
    except those named in ``derived`` (`report.derivable`), which are logged
    as passed.

    The report lists, per relation, the exact residual lhs - rhs; a relation
    passes iff its residual is the zero matrix. Deterministic and pure.
    """
    if kind not in ALPHABETS:
        raise QAffineError(f"unknown presentation kind: {kind!r}")
    expected, given = set(ALPHABETS[kind]), set(data.action)
    if given != expected:
        raise QAffineError(
            f"generator alphabet mismatch for {kind}: missing "
            f"{sorted(expected - given)}, unexpected {sorted(given - expected)}"
        )
    log = CheckLog(strict=False)
    relations, bound = _presentation_list(kind, data.q.q, frozenset(derived))
    _log_residuals(log, f"defining relations ({kind})", relations, bound, data.action, derived)
    report = VerificationReport(subject=f"{kind} relations", entries=log.entries)
    report.summary.update(presentation=kind, q=str(data.q.q), dim=str(data.dim))
    return report
