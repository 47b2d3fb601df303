"""Command line front end.

Verbs: build, verify, restrict, extend, roundtrip, analyze. Modules travel
as JSON files with exact "p/q" rationals; verification results can be saved
as structured report files. Exit codes partition the failure modes:

    0  success
    2  parse or parameter errors (bad file, bad flags, q mismatch)
    3  a defining relation or weight-ladder property fails
    4  an irreducibility requirement fails
    5  an internal pipeline verification fails (names the check)
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .analysis import NOT_IRREDUCIBLE, burnside_irreducible
from .errors import (
    CheckFailedError,
    IrreducibilityError,
    ModuleFormatError,
    QAffineError,
    RelationError,
    WeightLadderError,
)
from .extension import extend
from .factory import (
    EvalParams,
    ModuleData,
    evaluation_module,
    finite_module,
    restrict_to_borel,
    restrict_to_ugeq0,
    tensor_product,
)
from .modfile import read_module, write_module, write_report
from .presentations import AFFINE_FULL, UGEQ0, check_presentation
from .report import CheckLog, CheckResult, VerificationReport
from .scalars import QParam, as_scalar

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RELATION = 3
EXIT_IRREDUCIBILITY = 4
EXIT_PIPELINE = 5


def _session_q(value: str | None) -> QParam | None:
    if value is None:
        return None
    try:
        return QParam(as_scalar(value))
    except ValueError as exc:
        raise ModuleFormatError(str(exc)) from exc


def _describe(m: ModuleData) -> str:
    """One summary line of a module and its weight analysis."""
    line = f"presentation={m.kind} dim={m.dim}"
    return line if m.weights is None else f"{line} {m.weights.summary}"


def _emit(report: VerificationReport, path: str | None) -> None:
    """Write the report file when one is asked for, then print the table."""
    if path:
        write_report(report, path)
    print(report.text_table())


def cmd_build(args: argparse.Namespace) -> int:
    q = _session_q(args.q) or QParam(as_scalar(2))
    if args.what == "eval":
        params = EvalParams(args.d, as_scalar(args.eps), as_scalar(args.a))
        module = evaluation_module(params, q)
    elif args.what == "finite":
        module = finite_module(args.d, as_scalar(args.eps), q)
    else:  # tensor
        module = tensor_product(*(read_module(f, _session_q(args.q)) for f in args.inputs))
    write_module(module, args.out)
    print(f"wrote {args.out}: {_describe(module)}")
    return EXIT_OK


def _checked_file(
    args: argparse.Namespace,
) -> tuple[ModuleData, VerificationReport, bool]:
    """Read an untrusted module file and report every defining relation and,
    when they all hold, the weight ladder. Returns the module, the report
    and whether the relations hold."""
    module = read_module(args.file, _session_q(args.q), validate=False)
    report = check_presentation(module.kind, module)
    relations_hold = report.passed
    if relations_hold:
        try:
            ok, detail = True, module.weights and module.weights.summary
        except WeightLadderError as exc:
            ok, detail = False, str(exc)
        if detail:  # None for a finite module, which has no weight ladder
            report.entries.append(
                CheckResult("weight-ladder", "weight analysis", ok, (), detail)
            )
    return module, report, relations_hold


def cmd_verify(args: argparse.Namespace) -> int:
    _, report, _ = _checked_file(args)
    report.summary["file"] = str(args.file)
    _emit(report, args.report)
    return EXIT_OK if report.passed else EXIT_RELATION


def _read_kind(args: argparse.Namespace, kind: str) -> ModuleData:
    """The module file of a verb that takes only modules of this kind."""
    module = read_module(args.file, _session_q(args.q))
    if module.kind != kind:
        article = "a" if kind == UGEQ0 else "an"
        raise ModuleFormatError(
            f"{args.command} requires {article} {kind} module, got {module.kind}"
        )
    return module


def cmd_restrict(args: argparse.Namespace) -> int:
    module = _read_kind(args, AFFINE_FULL)
    if args.target == "ugeq0":
        restricted = restrict_to_ugeq0(module, as_scalar(args.alpha))
    else:
        restricted = restrict_to_borel(module)
    write_module(restricted, args.out)
    print(f"wrote {args.out}: {_describe(restricted)}")
    return EXIT_OK


def cmd_extend(args: argparse.Namespace) -> int:
    module = _read_kind(args, UGEQ0)
    full, trace = extend(module, as_scalar(args.eps0), as_scalar(args.eps1))
    if args.trace:
        report = VerificationReport(
            subject=f"extension of {args.file}", entries=list(trace.checks)
        )
        report.summary.update({
            key: str(value) for key, value in trace.to_dict().items()
            if key not in ("checks", "pass")
        })
        write_report(report, args.trace)
    write_module(full, args.out)  # last, so a failed trace write leaves no -o file
    print(f"wrote {args.out}: {_describe(full)} ({len(trace.checks)} checks passed)")
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    module = _read_kind(args, AFFINE_FULL)
    wd = module.weights
    restricted = restrict_to_ugeq0(module, as_scalar(args.alpha))
    full, _ = extend(restricted, wd.eps0, wd.eps1)
    log = CheckLog()
    for gen in sorted(module.action):
        log.matrix_zero(
            f"roundtrip({gen})",
            "restriction/extension round trip",
            full.action[gen] - module.action[gen],
        )
    report = VerificationReport(f"roundtrip of {args.file}", log.entries)
    report.summary["alpha"] = str(as_scalar(args.alpha))
    _emit(report, args.report)
    return EXIT_OK if report.passed else EXIT_PIPELINE


def cmd_analyze(args: argparse.Namespace) -> int:
    module, report, relations_hold = _checked_file(args)
    if not relations_hold:
        _emit(report, args.report)
        return EXIT_RELATION
    irr = burnside_irreducible(module)
    detail = f"word span {irr.word_span_dim} of {module.dim ** 2}"
    if irr.verdict == NOT_IRREDUCIBLE and irr.witness is not None:
        detail += f"; proper invariant subspace of dim {irr.witness.dim}"
    report.entries.append(
        CheckResult("irreducibility", "word-span test", True, (), detail)
    )
    report.summary["verdict"] = irr.verdict
    _emit(report, args.report)
    print(f"irreducibility: {irr.verdict} ({detail})")
    return EXIT_OK if report.passed else EXIT_RELATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls and
    # returns a fresh namespace each time
    parser = argparse.ArgumentParser(
        prog="qaffine",
        description=(
            "Exact construction, verification, restriction and extension of "
            "finite-dimensional quantum affine sl2 modules."
        ),
    )
    parser.add_argument(
        "--q", default=None, help="session q as an exact rational (default 2)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a module file")
    bsub = p_build.add_subparsers(dest="what", required=True)
    p_eval = bsub.add_parser("eval", help="evaluation module")
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--eps", required=True, choices=["1", "-1"])
    p_eval.add_argument("--a", required=True)
    p_eval.add_argument("-o", "--out", required=True)
    p_eval.set_defaults(func=cmd_build)
    p_fin = bsub.add_parser("finite", help="finite quantum sl2 module")
    p_fin.add_argument("--d", type=int, required=True)
    p_fin.add_argument("--eps", required=True, choices=["1", "-1"])
    p_fin.add_argument("-o", "--out", required=True)
    p_fin.set_defaults(func=cmd_build)
    p_tensor = bsub.add_parser("tensor", help="tensor product of two module files")
    p_tensor.add_argument("inputs", nargs=2)
    p_tensor.add_argument("-o", "--out", required=True)
    p_tensor.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="check all defining relations")
    p_verify.add_argument("file")
    p_verify.add_argument("--report", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_restrict = sub.add_parser("restrict", help="restrict a full module")
    p_restrict.add_argument("file")
    p_restrict.add_argument("--alpha", default="1")
    p_restrict.add_argument(
        "--target", choices=["ugeq0", "borel"], default="ugeq0"
    )
    p_restrict.add_argument("-o", "--out", required=True)
    p_restrict.set_defaults(func=cmd_restrict)

    p_extend = sub.add_parser("extend", help="extend a ugeq0 module")
    p_extend.add_argument("file")
    p_extend.add_argument("--eps0", required=True, choices=["1", "-1"])
    p_extend.add_argument("--eps1", required=True, choices=["1", "-1"])
    p_extend.add_argument("--trace", default=None)
    p_extend.add_argument("-o", "--out", required=True)
    p_extend.set_defaults(func=cmd_extend)

    p_round = sub.add_parser(
        "roundtrip", help="restrict then extend and compare exactly"
    )
    p_round.add_argument("file")
    p_round.add_argument("--alpha", default="1")
    p_round.add_argument("--report", default=None)
    p_round.set_defaults(func=cmd_roundtrip)

    p_analyze = sub.add_parser(
        "analyze", help="relations, weight ladder and irreducibility"
    )
    p_analyze.add_argument("file")
    p_analyze.add_argument("--report", default=None)
    p_analyze.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    # argparse reads "-N" and "-N.N" as negative numbers but "-p/q" as an
    # option, so a fraction after a space is joined to its option as --opt=-p/q;
    # the option may be abbreviated, as argparse allows ("--al" for "--alpha")
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):
        opt, value = argv[k - 1], argv[k]
        scalar = opt == "--q" or (len(opt) >= 3 and "--alpha".startswith(opt))
        if scalar and re.fullmatch(r"-[0-9]+/[0-9]+", value):
            argv[k - 1:k + 1] = [f"{opt}={value}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RelationError, WeightLadderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RELATION
    except IrreducibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRREDUCIBILITY
    except CheckFailedError as exc:
        print(f"error: pipeline check failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (QAffineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
