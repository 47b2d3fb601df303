"""JSON persistence for modules and verification reports.

Module files store every rational as an exact "p/q" string, so arbitrary
precision survives any JSON implementation's number limits. Output ordering
is deterministic (top-level keys fixed, generators in the presentation's
alphabet order), which makes serialize(parse(serialize(x))) == serialize(x)
a literal byte equality and files diff-able.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import ModuleFormatError
from .factory import ModuleData, build_module
from .linalg import Matrix
from .presentations import ALPHABETS
from .report import VerificationReport
from .scalars import QParam, as_scalar, scalar_str

FORMAT_VERSION = 1


def module_to_dict(m: ModuleData) -> dict:
    action = {}
    for gen in ALPHABETS[m.kind]:
        mat = m.action[gen]
        action[gen] = [
            [scalar_str(mat.at(i, j)) for j in range(mat.cols)]
            for i in range(mat.rows)
        ]
    return {
        "format_version": FORMAT_VERSION,
        "presentation": m.kind,
        "q": scalar_str(m.q.q),
        "dim": m.dim,
        "action": action,
        "provenance": m.provenance,
    }


def module_to_json(m: ModuleData) -> str:
    return json.dumps(module_to_dict(m), indent=2) + "\n"


def write_module(m: ModuleData, path: str | Path) -> None:
    Path(path).write_text(module_to_json(m))


def _parse_scalar(value, context: str) -> Fraction:
    if not isinstance(value, str):
        raise ModuleFormatError(f"{context}: rationals must be strings, got {value!r}")
    try:
        return as_scalar(value)
    except ValueError as exc:
        raise ModuleFormatError(f"{context}: {exc}") from exc


def module_from_dict(
    doc: dict, session_q: QParam | None = None, validate: bool = True
) -> ModuleData:
    """Parse and fully validate a module document.

    Checks format version, presentation tag, q validity (and agreement with
    the session q when one is fixed), matrix shapes, and finally that the
    matrices satisfy the presentation's defining relations; a RelationError
    from the last step names the failing relation. ``validate=False`` skips
    only the relation check, for callers that produce their own diagnostic
    report about an untrusted file.
    """
    if not isinstance(doc, dict):
        raise ModuleFormatError("module document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModuleFormatError(f"unsupported format_version: {version!r}")
    kind = doc.get("presentation")
    if kind not in ALPHABETS:
        raise ModuleFormatError(f"unknown presentation tag: {kind!r}")
    q_value = _parse_scalar(doc.get("q"), "q")
    try:
        q = QParam(q_value)
    except ValueError as exc:
        raise ModuleFormatError(str(exc)) from exc
    if session_q is not None and session_q.q != q.q:
        raise ModuleFormatError(
            f"file q = {scalar_str(q.q)} does not match session q = "
            f"{scalar_str(session_q.q)}"
        )
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise ModuleFormatError(f"dim must be a positive integer, got {dim!r}")
    raw_action = doc.get("action")
    if not isinstance(raw_action, dict):
        raise ModuleFormatError("action must be an object")
    if set(raw_action) != set(ALPHABETS[kind]):
        raise ModuleFormatError(
            f"action keys {sorted(raw_action)} do not match the {kind} alphabet"
        )
    action: dict[str, Matrix] = {}
    for gen, rows in raw_action.items():
        if (
            not isinstance(rows, list)
            or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)
        ):
            raise ModuleFormatError(f"action of {gen} is not a {dim}x{dim} array")
        action[gen] = Matrix.from_rows(
            [[_parse_scalar(v, f"action[{gen}]") for v in row] for row in rows]
        )
    provenance = doc.get("provenance", "")
    if not isinstance(provenance, str):
        raise ModuleFormatError("provenance must be a string")
    return build_module(kind, q, action, provenance or "file", validate=validate)


def read_module(
    path: str | Path, session_q: QParam | None = None, validate: bool = True
) -> ModuleData:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModuleFormatError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModuleFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        module = module_from_dict(doc, session_q, validate=validate)
    except ModuleFormatError as exc:
        raise ModuleFormatError(f"{path}: {exc}") from exc
    return module


def report_to_json(report: VerificationReport) -> str:
    doc = {"format_version": FORMAT_VERSION, **report.to_dict()}
    return json.dumps(doc, indent=2) + "\n"


def write_report(report: VerificationReport, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report))
