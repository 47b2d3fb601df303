"""JSON persistence for modules and verification reports.

Module files store every rational as an exact "p/q" string, so arbitrary
precision survives any JSON implementation's number limits. Output ordering
is deterministic (top-level keys fixed, generators in the presentation's
alphabet order), which makes serialize(parse(serialize(x))) == serialize(x)
a literal byte equality and files diff-able.

Both directions cost what a file holds. Reading skips entries equal to "0"
before parsing and parses every other distinct string once per document,
through a memo that lives for one `module_from_dict` call and keeps only
successful parses, so a bad string raises at its first occurrence. Writing
fills each row with "0" and renders only the matrix's nonzero entries, and
joins the strings into the fixed indented layout without the json encoder;
a report (`--report`, `--trace`) is laid out the same way.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import ModuleFormatError
from .factory import ModuleData, build_module
from .linalg import Matrix
from .presentations import ALPHABETS
from .report import CheckResult, VerificationReport
from .scalars import QParam, as_scalar, scalar_str

FORMAT_VERSION = 1


def _row_strings(cols: int, row: tuple[tuple[int, Fraction], ...]) -> list[str]:
    """The dense row of entry strings: "0" except at the row's nonzero entries."""
    out = ["0"] * cols
    for j, v in row:
        out[j] = scalar_str(v)
    return out


def module_to_dict(m: ModuleData) -> dict:
    action = {}
    for gen in ALPHABETS[m.kind]:
        mat = m.action[gen]
        action[gen] = [_row_strings(mat.cols, row) for row in mat.sparse_rows]
    return {
        "format_version": FORMAT_VERSION,
        "presentation": m.kind,
        "q": scalar_str(m.q.q),
        "dim": m.dim,
        "action": action,
        "provenance": m.provenance,
    }


def module_to_json(m: ModuleData) -> str:
    """The text of json.dumps(module_to_dict(m), indent=2) + "\n", laid out
    by str.join: with an indent the json module encodes in pure Python, the
    layout is fixed, and an entry string ("p" or "p/q") needs no escaping.
    The names and the provenance still go through json.dumps."""
    blocks = []
    for gen in ALPHABETS[m.kind]:
        mat = m.action[gen]
        rows = ",\n      ".join([
            '[\n        "' + '",\n        "'.join(_row_strings(mat.cols, row)) + '"\n      ]'
            for row in mat.sparse_rows
        ])
        blocks.append(f"    {json.dumps(gen)}: [\n      {rows}\n    ]")
    action = ",\n".join(blocks)
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n'
        f'  "presentation": {json.dumps(m.kind)},\n'
        f'  "q": "{scalar_str(m.q.q)}",\n'
        f'  "dim": {m.dim},\n'
        f'  "action": {{\n{action}\n  }},\n'
        f'  "provenance": {json.dumps(m.provenance)}\n}}\n'
    )


def _write(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ModuleFormatError(f"cannot write {path}: {exc}") from exc


def write_module(m: ModuleData, path: str | Path) -> None:
    _write(path, module_to_json(m))


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
    parsed: dict[str, Fraction] = {}  # this document's successful parses

    def entry(value, context: str) -> Fraction:
        if isinstance(value, str) and value in parsed:
            return parsed[value]
        parsed[value] = scalar = _parse_scalar(value, context)
        return scalar

    action: dict[str, Matrix] = {}
    for gen, rows in raw_action.items():
        if (
            not isinstance(rows, list)
            or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)
        ):
            raise ModuleFormatError(f"action of {gen} is not a {dim}x{dim} array")
        context = f"action[{gen}]"
        action[gen] = Matrix.from_sparse(dim, dim, [
            {j: entry(v, context) for j, v in enumerate(row) if v != "0"}
            for row in rows
        ])
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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ModuleFormatError(f"{path} is not valid JSON: {exc}") from exc
    try:
        module = module_from_dict(doc, session_q, validate=validate)
    except ModuleFormatError as exc:
        raise ModuleFormatError(f"{path}: {exc}") from exc
    return module


def _check_json(e: CheckResult) -> str:
    """One check of `report_to_json`, indented as an item of "checks"."""
    if e.residual_entries:
        entries = ",\n        ".join([
            f"[\n          {i},\n          {j},\n          {json.dumps(v)}\n        ]"
            for i, j, v in e.residual_entries
        ])
        residual = f"[\n        {entries}\n      ]"
    else:
        residual = "[]"
    return (
        f'    {{\n      "name": {json.dumps(e.name)},\n'
        f'      "anchor": {json.dumps(e.anchor)},\n'
        f'      "pass": {"true" if e.passed else "false"},\n'
        f'      "residual_nonzero_entries": {residual},\n'
        f'      "detail": {json.dumps(e.detail)}\n    }}'
    )


def report_to_json(report: VerificationReport) -> str:
    """The text of json.dumps({"format_version": 1, **report.to_dict()},
    indent=2) + "\n", laid out by str.join like `module_to_json`: only the
    strings (and the summary's values, JSON scalars) go through json.dumps."""
    checks = ",\n".join([_check_json(e) for e in report.entries])
    checks = f"[\n{checks}\n  ]" if report.entries else "[]"
    summary = ",\n".join([
        f"    {json.dumps(key)}: {json.dumps(value)}"
        for key, value in {**report.summary, "pass": report.passed}.items()
    ])
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n'
        f'  "subject": {json.dumps(report.subject)},\n'
        f'  "checks": {checks},\n'
        f'  "summary": {{\n{summary}\n  }}\n}}\n'
    )


def write_report(report: VerificationReport, path: str | Path) -> None:
    _write(path, report_to_json(report))
