"""Structured results for relation checks and pipeline verifications.

A CheckResult records one named verification: either a matrix identity whose
residual must be exactly zero (every nonzero residual entry is listed), or a
subspace condition (equality, containment, dimension count) whose failure is
described in ``detail``. Reports aggregate checks and render both a
human-readable table and a JSON-ready dict. ``derivable`` is the one gate
for a check logged as passed without being evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping

from .errors import CheckFailedError
from .linalg import Matrix

ResidualEntry = tuple[int, int, str]


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    residual_entries: tuple[ResidualEntry, ...] = ()
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "pass": self.passed,
            "residual_nonzero_entries": [
                [i, j, v] for (i, j, v) in self.residual_entries
            ],
            "detail": self.detail,
        }


@dataclass
class VerificationReport:
    """A list of named checks plus a summary; passes iff every entry passes."""

    subject: str
    entries: list[CheckResult] = field(default_factory=list)
    summary: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failing(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": [e.to_dict() for e in self.entries],
            "summary": {**self.summary, "pass": self.passed},
        }

    def text_table(self) -> str:
        width = max((len(e.name) for e in self.entries), default=4)
        lines = [f"{'check'.ljust(width)}  status  notes"]
        for e in self.entries:
            status = "pass" if e.passed else "FAIL"
            note = ""
            if not e.passed:
                if e.residual_entries:
                    i, j, v = e.residual_entries[0]
                    note = f"residual[{i},{j}]={v}"
                    if len(e.residual_entries) > 1:
                        note += f" (+{len(e.residual_entries) - 1} more)"
                else:
                    note = e.detail
            lines.append(f"{e.name.ljust(width)}  {status}    {note}")
        verdict = "ALL PASS" if self.passed else "FAILURES PRESENT"
        lines.append(verdict)
        return "\n".join(lines)


class CheckLog:
    """Collects CheckResults; in strict mode the first failure aborts with a
    CheckFailedError naming the check."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.entries: list[CheckResult] = []

    def _record(self, result: CheckResult) -> bool:
        self.entries.append(result)
        if self.strict and not result.passed:
            raise CheckFailedError(result.name, result.detail)
        return result.passed

    def matrix_zero(self, name: str, anchor: str, residual: Matrix) -> bool:
        """Assert an exactly-zero residual matrix; a zero one passes with no
        scan of its entries."""
        if residual.is_zero():
            return self._record(CheckResult(name, anchor, True))
        nz = tuple((i, j, str(v)) for i, j, v in residual.nonzero_entries())
        return self._record(
            CheckResult(name, anchor, False, nz, f"{len(nz)} nonzero residual entries"))

    def condition(self, name: str, anchor: str, ok: bool, detail: str = "") -> bool:
        """Assert a described condition (subspace equality, dimension, ...)."""
        return self._record(CheckResult(name, anchor, ok, (), "" if ok else detail))


def derivable(table: Mapping[str, Iterable[str]], held: AbstractSet[str]) -> frozenset[str]:
    """The checks of a derivation table that may be logged as passed without
    being evaluated: those whose premises, the names the table maps them to,
    are all in ``held``, the checks that passed on the same matrices and
    spaces. Each table row is a lemma written out where the table is."""
    return frozenset(name for name, needs in table.items() if held.issuperset(needs))
