"""The four algebra presentations and the exact relation checker.

Relations are stored as data: each side of a relation is a formal sum of
words in generator names with exact rational coefficients (which may involve
q, the bracket [3], or 1/(q - q^-1), all evaluated once per q). One code
path, ``check_relations``, substitutes matrices for generator names and logs
the exact residual lhs - rhs; it checks the defining relations below and
every matrix identity of the extension pipeline (whose A, A*, B, B*, r, l
are just more generator names, with the shared ``weyl``, ``q_serre`` and
``zero_commutator`` builders). Each relation's lhs - rhs is compiled once,
on first use, into a ``WordPlan`` kept on the ``RelationWord``: repeated
words merged into integer coefficients and zero ones dropped, every word
split at its midpoint, recursively, so that a half shared by several words
is one product, and each word's last product (left half times right half)
added straight into the residual. A q-Serre relation costs 7 sparse
products (x x, x y, y x and 4 fused ones). ``evaluate_word`` runs a plan in
``int``: each matrix contributes its integer view (den * M), each product
is one inline loop over the left rows' entries, with no call per row, and
every word is scaled to one common denominator L, the lcm over the words of
den(c_w) times the product of the letters' den. Fractions are built only
for the residual's nonzero entries, as v / L, and a residual that cancels
everywhere, as on every passing check, is the zero matrix at once.

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
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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
class WordPlan:
    """A formal sum compiled for `evaluate_word`: a straight-line program
    over the integer views of its letters.

    Operand k is the matrix of ``letters[k]`` for k < len(letters); the
    half products follow in order, each ``halves`` pair (left, right)
    naming two earlier operands. A word of two or more letters is split at
    its midpoint, w[:len(w)//2] times w[len(w)//2:], and so is each half of
    two or more letters, so a half shared by several words is one product.
    ``terms`` holds each distinct word with a nonzero merged coefficient,
    as (numerator, denominator, word, left, right): left and right are the
    operands of its halves for two or more letters, left is its letter's
    operand and right None for one letter, and both are None for the empty
    word. ``generators`` lists the letters of every term of the sum, zero
    terms included, in term order."""

    generators: tuple[GeneratorName, ...]
    letters: tuple[GeneratorName, ...]
    halves: tuple[tuple[int, int], ...]
    terms: tuple[tuple[int, int, Word, int | None, int | None], ...]


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


def compile_words(words: FormalSum) -> WordPlan:
    """The `WordPlan` of a formal sum: the coefficients of a repeated word
    merged, words whose coefficient is 0 dropped, every other word split
    into halves."""
    coeffs: dict[Word, Fraction] = {}
    for coeff, word in words:
        coeffs[word] = coeffs[word] + coeff if word in coeffs else coeff
    kept = {word: c for word, c in coeffs.items() if c}
    letters = tuple(dict.fromkeys([g for word in kept for g in word]))
    operand = {(g,): k for k, g in enumerate(letters)}
    halves: list[tuple[int, int]] = []
    terms = []
    for word, c in kept.items():
        left = right = None
        if len(word) == 1:
            left = operand[word]
        elif word:
            mid = len(word) // 2
            left = _operand(word[:mid], operand, halves)
            right = _operand(word[mid:], operand, halves)
        terms.append((c.numerator, c.denominator, word, left, right))
    generators = tuple(dict.fromkeys([g for _, word in words for g in word]))
    return WordPlan(generators, letters, tuple(halves), tuple(terms))


@dataclass(frozen=True)
class RelationWord:
    """One defining relation, lhs = rhs, both formal sums."""

    name: str
    lhs: FormalSum
    rhs: FormalSum

    @cached_property
    def plan(self) -> WordPlan:
        """lhs - rhs compiled, once: the relation is frozen."""
        return compile_words(self.lhs + tuple((-c, w) for c, w in self.rhs))


def evaluate_word(
    words: FormalSum | WordPlan, assignment: Mapping[GeneratorName, Matrix]
) -> Matrix:
    """Substitute matrices for generators in a formal sum and evaluate.

    ``words`` is a formal sum, compiled for this one call, or its
    `WordPlan`. The empty word is the identity and a one-letter word is its
    matrix. Everything runs over integers and one common denominator. A
    word w is N_w / D_w, where N_w is the product of its letters' integer
    views (`Matrix.int_rows`) and D_w the product of their `den`. With L the
    lcm of den(c_w) * D_w over the words, L times the sum is the integer sum
    of c_w * (L / (den(c_w) * D_w)) * N_w. Each half of the plan is one
    sparse product, by an inline loop over the left rows' entries into one
    dict per row. A word's last product, left half times right half, is
    added straight into the sum's rows by the same loop, with its scale
    folded into each left entry, so N_w itself is never built; a one-letter
    word adds its scaled integer rows and the empty word adds on the
    diagonal. An entry that cancels inside a product stays as a 0 until the
    end. When every entry of the sum is 0 the result is `Matrix.zero`;
    otherwise one Matrix is built, with a Fraction(v, L) for each entry v
    that did not cancel. All assigned matrices must be square and of equal
    dimension.
    """
    plan = words if isinstance(words, WordPlan) else compile_words(words)
    if not assignment:
        raise QAffineError("empty assignment: dimension is undetermined")
    dims = {m.rows for m in assignment.values()} | {m.cols for m in assignment.values()}
    if len(dims) != 1:
        raise QAffineError("assigned matrices must all be square of equal dimension")
    n = dims.pop()
    for gen in plan.generators:
        if gen not in assignment:
            raise QAffineError(f"generator {gen!r} is not assigned a matrix")
    divisors = [
        den * prod([assignment[g].den for g in word]) for _, den, word, _, _ in plan.terms
    ]
    common = lcm(*divisors)
    # each operand's rows as (column, entry) pairs: the letters' `int_rows`
    # as they are, every half product's rows as dict items, where an entry
    # that cancelled stays as a 0 (the residual drops it at the end)
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
    total: list[dict[int, int]] = [{} for _ in range(n)]  # L times the sum's rows
    for (numerator, _, _, left, right), divisor in zip(plan.terms, divisors):
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
    if not any(any(row.values()) for row in total):
        return Matrix.zero(n, n)
    return Matrix.from_sparse(
        n, n, [{j: Fraction(v, common) for j, v in row.items() if v} for row in total]
    )


def check_relations(
    log: CheckLog,
    anchor: str,
    relations: Iterable[RelationWord],
    assignment: Mapping[GeneratorName, Matrix],
) -> None:
    """Log, under ``anchor``, the exact residual lhs - rhs of each relation,
    one `evaluate_word` call per relation on its compiled plan."""
    for rel in relations:
        log.matrix_zero(rel.name, anchor, evaluate_word(rel.plan, assignment))


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


def check_presentation(kind: str, data: "ModuleData") -> VerificationReport:
    """Evaluate every defining relation of ``kind`` on the module's matrices.

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
    check_relations(
        log, f"defining relations ({kind})", relations_for(kind, data.q), data.action
    )
    report = VerificationReport(subject=f"{kind} relations", entries=log.entries)
    report.summary.update(presentation=kind, q=str(data.q.q), dim=str(data.dim))
    return report
