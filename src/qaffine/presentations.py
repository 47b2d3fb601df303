"""The four algebra presentations and the exact relation checker.

Relations are stored as data: each side of a relation is a formal sum of
words in generator names with exact rational coefficients (which may involve
q, the bracket [3], or 1/(q - q^-1), all evaluated once per q). A single
evaluator substitutes matrices for generators, so one code path serves all
presentations as well as the internal operator identities used elsewhere.

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
from typing import TYPE_CHECKING, Mapping

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

INVERSE_PAIRS: dict[str, tuple[tuple[GeneratorName, GeneratorName], ...]] = {
    AFFINE_FULL: (("K0", "K0inv"), ("K1", "K1inv")),
    AFFINE_BOREL: (("K0", "K0inv"), ("K1", "K1inv")),
    UGEQ0: (("K", "Kinv"),),
    FINITE: (("k", "kinv"),),
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

    The empty word is the identity. All assigned matrices must be square and
    of equal dimension.
    """
    if not assignment:
        raise QAffineError("empty assignment: dimension is undetermined")
    dims = {m.rows for m in assignment.values()} | {m.cols for m in assignment.values()}
    if len(dims) != 1:
        raise QAffineError("assigned matrices must all be square of equal dimension")
    n = dims.pop()
    total = Matrix.zero(n, n)
    for coeff, word in words:
        factor = Matrix.identity(n)
        for gen in word:
            if gen not in assignment:
                raise QAffineError(f"generator {gen!r} is not assigned a matrix")
            factor = factor @ assignment[gen]
        total = total + coeff * factor
    return total


def _q_serre(x: GeneratorName, y: GeneratorName, three: Fraction) -> RelationWord:
    # x^3 y - [3] x^2 y x + [3] x y x^2 - y x^3 = 0
    lhs = formal_sum(
        term(1, x, x, x, y),
        (-three, (x, x, y, x)),
        (three, (x, y, x, x)),
        term(-1, y, x, x, x),
    )
    return RelationWord(f"serre({x},{y})", lhs, formal_sum())


def _weyl_pair(k: GeneratorName, kinv: GeneratorName) -> list[RelationWord]:
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


def _zero_commutator(x: GeneratorName, y: GeneratorName) -> RelationWord:
    lhs = formal_sum(term(1, x, y), term(-1, y, x))
    return RelationWord(f"commute({x},{y})", lhs, formal_sum())


@lru_cache(maxsize=None)
def _relations(kind: str, q_value: Fraction) -> tuple[RelationWord, ...]:
    q = QParam(q_value)
    three = qint(3, q)
    rels: list[RelationWord] = []
    if kind == AFFINE_FULL:
        for k, kinv in INVERSE_PAIRS[kind]:
            rels.extend(_weyl_pair(k, kinv))
        rels.append(_zero_commutator("K0", "K1"))
        for i in (0, 1):
            for sign, p in (("p", 2), ("m", -2)):
                rels.append(_weight(f"K{i}", f"K{i}inv", f"e{i}{sign}", p, q))
        for i, j in ((0, 1), (1, 0)):
            for sign, p in (("p", -2), ("m", 2)):
                rels.append(_weight(f"K{i}", f"K{i}inv", f"e{j}{sign}", p, q))
        for i in (0, 1):
            rels.append(_bracket_commutator(f"e{i}p", f"e{i}m", f"K{i}", f"K{i}inv", q))
        rels.append(_zero_commutator("e0p", "e1m"))
        rels.append(_zero_commutator("e0m", "e1p"))
        for i, j in ((0, 1), (1, 0)):
            for sign in ("p", "m"):
                rels.append(_q_serre(f"e{i}{sign}", f"e{j}{sign}", three))
    elif kind == AFFINE_BOREL:
        for k, kinv in INVERSE_PAIRS[kind]:
            rels.extend(_weyl_pair(k, kinv))
        rels.append(_zero_commutator("K0", "K1"))
        for i in (0, 1):
            rels.append(_weight(f"K{i}", f"K{i}inv", f"e{i}p", 2, q))
        for i, j in ((0, 1), (1, 0)):
            rels.append(_weight(f"K{i}", f"K{i}inv", f"e{j}p", -2, q))
        rels.append(_q_serre("e0p", "e1p", three))
        rels.append(_q_serre("e1p", "e0p", three))
    elif kind == UGEQ0:
        rels.extend(_weyl_pair("K", "Kinv"))
        rels.append(_weight("K", "Kinv", "R", 2, q))
        rels.append(_weight("K", "Kinv", "L", -2, q))
        rels.append(_q_serre("R", "L", three))
        rels.append(_q_serre("L", "R", three))
    elif kind == FINITE:
        rels.extend(_weyl_pair("k", "kinv"))
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
    expected = set(ALPHABETS[kind]) if kind in ALPHABETS else None
    if expected is None:
        raise QAffineError(f"unknown presentation kind: {kind!r}")
    if set(data.action) != expected:
        missing = expected - set(data.action)
        extra = set(data.action) - expected
        raise QAffineError(
            f"generator alphabet mismatch for {kind}: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}"
        )
    log = CheckLog(strict=False)
    for rel in relations_for(kind, data.q):
        residual = evaluate_word(rel.lhs, data.action) - evaluate_word(
            rel.rhs, data.action
        )
        log.matrix_zero(rel.name, f"defining relations ({kind})", residual)
    report = VerificationReport(subject=f"{kind} relations", entries=log.entries)
    report.summary["presentation"] = kind
    report.summary["q"] = str(data.q.q)
    report.summary["dim"] = str(data.dim)
    return report
