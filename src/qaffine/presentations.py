"""The four algebra presentations and the exact relation checker.

Relations are stored as data: each side of a relation is a formal sum of
words in generator names with exact rational coefficients (which may involve
q, the bracket [3], or 1/(q - q^-1), all evaluated once per q). One code
path, ``check_relations``, substitutes matrices for generator names and logs
the exact residual lhs - rhs; it checks the defining relations below and
every matrix identity of the extension pipeline (whose A, A*, B, B*, r, l
are just more generator names, with the shared ``weyl``, ``q_serre`` and
``zero_commutator`` builders). ``evaluate_word`` multiplies the words in
sorted order, so each prefix shared by neighbouring words is computed once,
and keeps every product and the residual sum sparse. It works in ``int``:
each matrix contributes its integer view (den * M), each new letter is
multiplied into the prefix product by one inline loop over the rows, with
no call per row, and every word is scaled to one common denominator L, the
lcm over the words of den(c_w) times the product of the letters' den.
Fractions are built only for the residual's nonzero entries, as v / L, and
a residual that cancels everywhere, as on every passing check, is the zero
matrix at once.

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
from functools import lru_cache
from math import lcm, prod
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import QAffineError
from .linalg import Matrix
from .report import CheckLog, VerificationReport
from .scalars import ONE, ZERO, QParam, qint

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
class RelationWord:
    """One defining relation, lhs = rhs, both formal sums."""

    name: str
    lhs: FormalSum
    rhs: FormalSum


def evaluate_word(
    words: FormalSum, assignment: Mapping[GeneratorName, Matrix]
) -> Matrix:
    """Substitute matrices for generators in a formal sum and evaluate.

    The empty word is the identity and a one-letter word is its matrix.
    Repeated words are merged, and the words are multiplied out in sorted
    order so that each prefix shared by neighbouring words is computed once.
    Everything runs over integers and one common denominator. A word w is
    N_w / D_w, where N_w is the product of its letters' integer views
    (`Matrix.int_rows`, multiplied in by an inline loop over each row's
    entries into one dict per row) and D_w the product of their `den`.
    With L the lcm of den(c_w) * D_w over the words, L times the sum is the
    integer sum of c_w * (L / (den(c_w) * D_w)) * N_w, added in by the same
    kind of loop; the empty word adds on the diagonal. An entry that cancels
    inside a product stays as a 0 until the end. When every entry of the
    sum is 0 the result is `Matrix.zero`; otherwise one Matrix is built,
    with a Fraction(v, L) for each entry v that did not cancel. All
    assigned matrices must be square and of equal dimension.
    """
    if not assignment:
        raise QAffineError("empty assignment: dimension is undetermined")
    dims = {m.rows for m in assignment.values()} | {m.cols for m in assignment.values()}
    if len(dims) != 1:
        raise QAffineError("assigned matrices must all be square of equal dimension")
    n = dims.pop()
    coeffs: dict[Word, Fraction] = {}
    for coeff, word in words:
        for gen in word:
            if gen not in assignment:
                raise QAffineError(f"generator {gen!r} is not assigned a matrix")
        coeffs[word] = coeffs.get(word, ZERO) + coeff
    scales: dict[Word, tuple[int, int]] = {}  # word -> (numerator of c_w, its divisor)
    for word, c in coeffs.items():
        if c:
            scales[word] = (c.numerator, c.denominator * prod(assignment[g].den for g in word))
    common = lcm(*[divisor for _, divisor in scales.values()])
    total: list[dict[int, int]] = [{} for _ in range(n)]  # L times the sum's rows
    # chain[i] holds the rows of the integer product of the first i+1 letters,
    # each as its (column, entry) pairs: the first letter's `int_rows` as they
    # are, every later product's rows as dict items, where an entry that
    # cancelled stays as a 0 (the residual drops it at the end)
    chain: list[Sequence[Iterable[tuple[int, int]]]] = []
    previous: Word = ()
    for word in sorted(scales):
        shared = 0
        for a, b in zip(previous, word):
            if a != b:
                break
            shared += 1
        del chain[shared:]
        for gen in word[shared:]:
            right = assignment[gen].int_rows
            if not chain:
                chain.append(right)
                continue
            rows = []
            for left in chain[-1]:
                out: dict[int, int] = {}
                for t, a in left:
                    for j, b in right[t]:
                        if j in out:
                            out[j] += a * b
                        else:
                            out[j] = a * b
                rows.append(out.items())
            chain.append(rows)
        previous = word
        numerator, divisor = scales[word]
        c = numerator * (common // divisor)
        if word:
            for row, out in zip(chain[-1], total):
                for j, v in row:
                    if j in out:
                        out[j] += c * v
                    else:
                        out[j] = c * v
        else:  # c I, into a still empty total: the empty word sorts first
            for i, out in enumerate(total):
                out[i] = c
    if not any(v for row in total for v in row.values()):
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
    """Log, under ``anchor``, the exact residual lhs - rhs of each relation."""
    for rel in relations:
        difference = rel.lhs + tuple((-c, w) for c, w in rel.rhs)
        log.matrix_zero(rel.name, anchor, evaluate_word(difference, assignment))


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
