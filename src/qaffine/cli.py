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
from .report import CheckResult, VerificationReport
from .scalars import QParam, as_scalar, scalar_str
from .weights import WeightData, analyze_full, analyze_weights

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


def _describe(m: ModuleData, weights: WeightData | None) -> str:
    """One summary line of a module and its weight analysis."""
    line = f"presentation={m.kind} dim={m.dim}"
    return line if weights is None else f"{line} {weights.summary}"


def cmd_build(args: argparse.Namespace) -> int:
    q = _session_q(args.q) or QParam(as_scalar(2))
    if args.what == "eval":
        params = EvalParams(args.d, as_scalar(args.eps), as_scalar(args.a))
        module = evaluation_module(params, q)
    elif args.what == "finite":
        module = finite_module(args.d, as_scalar(args.eps), q)
    else:  # tensor
        m1 = read_module(args.inputs[0], _session_q(args.q))
        m2 = read_module(args.inputs[1], _session_q(args.q))
        module = tensor_product(m1, m2)
    write_module(module, args.out)
    print(f"wrote {args.out}: {_describe(module, analyze_weights(module))}")
    return EXIT_OK


def _weight_checks(m: ModuleData) -> list[CheckResult]:
    """The weight-ladder verification as report entries."""
    try:
        weights = analyze_weights(m)
    except WeightLadderError as exc:
        return [CheckResult("weight-ladder", "weight analysis", False, (), str(exc))]
    if weights is None:
        return []
    return [CheckResult("weight-ladder", "weight analysis", True, (), weights.summary)]


def cmd_verify(args: argparse.Namespace) -> int:
    module = read_module(args.file, _session_q(args.q), validate=False)
    report = check_presentation(module.kind, module)
    if report.passed:
        report.entries.extend(_weight_checks(module))
    report.summary["file"] = str(args.file)
    if args.report:
        write_report(report, args.report)
    print(report.text_table())
    return EXIT_OK if report.passed else EXIT_RELATION


def cmd_restrict(args: argparse.Namespace) -> int:
    module = read_module(args.file, _session_q(args.q))
    if module.kind != AFFINE_FULL:
        raise ModuleFormatError(
            f"restrict requires an affine_full module, got {module.kind}"
        )
    if args.target == "ugeq0":
        restricted = restrict_to_ugeq0(module, as_scalar(args.alpha))
    else:
        restricted = restrict_to_borel(module)
    write_module(restricted, args.out)
    print(f"wrote {args.out}: {_describe(restricted, analyze_weights(restricted))}")
    return EXIT_OK


def cmd_extend(args: argparse.Namespace) -> int:
    module = read_module(args.file, _session_q(args.q))
    if module.kind != UGEQ0:
        raise ModuleFormatError(
            f"extend requires a ugeq0 module, got {module.kind}"
        )
    full, trace = extend(module, as_scalar(args.eps0), as_scalar(args.eps1))
    write_module(full, args.out)
    if args.trace:
        report = VerificationReport(
            subject=f"extension of {args.file}", entries=list(trace.checks)
        )
        dims = trace.to_dict()
        report.summary.update(
            {
                "alpha": scalar_str(trace.alpha),
                "diameter": str(trace.diameter),
                "weight_dims": str(dims["weight_dims"]),
                "flag_dims(A)": str(dims["flag_dims(A)"]),
                "flag_dims(Astar)": str(dims["flag_dims(Astar)"]),
                "split_dims(W)": str(dims["split_dims(W)"]),
                "split_dims(Wstar)": str(dims["split_dims(Wstar)"]),
            }
        )
        write_report(report, args.trace)
    print(
        f"wrote {args.out}: {_describe(full, trace.output_weights)} "
        f"({len(trace.checks)} checks passed)"
    )
    return EXIT_OK


def cmd_roundtrip(args: argparse.Namespace) -> int:
    module = read_module(args.file, _session_q(args.q))
    if module.kind != AFFINE_FULL:
        raise ModuleFormatError(
            f"roundtrip requires an affine_full module, got {module.kind}"
        )
    wd = analyze_full(module)
    restricted = restrict_to_ugeq0(module, as_scalar(args.alpha))
    full, _ = extend(restricted, wd.eps0, wd.eps1)
    report = VerificationReport(subject=f"roundtrip of {args.file}")
    for gen in sorted(module.action):
        residual = full.action[gen] - module.action[gen]
        nz = tuple((i, j, str(v)) for i, j, v in residual.nonzero_entries())
        report.entries.append(
            CheckResult(
                f"roundtrip({gen})",
                "restriction/extension round trip",
                not nz,
                nz,
            )
        )
    report.summary["alpha"] = str(as_scalar(args.alpha))
    if args.report:
        write_report(report, args.report)
    print(report.text_table())
    return EXIT_OK if report.passed else EXIT_PIPELINE


def cmd_analyze(args: argparse.Namespace) -> int:
    module = read_module(args.file, _session_q(args.q), validate=False)
    report = check_presentation(module.kind, module)
    if not report.passed:
        if args.report:
            write_report(report, args.report)
        print(report.text_table())
        return EXIT_RELATION
    report.entries.extend(_weight_checks(module))
    irr = burnside_irreducible(module)
    detail = f"word span {irr.word_span_dim} of {module.dim ** 2}"
    if irr.verdict == NOT_IRREDUCIBLE and irr.witness is not None:
        detail += f"; proper invariant subspace of dim {irr.witness.dim}"
    report.entries.append(
        CheckResult("irreducibility", "word-span test", True, (), detail)
    )
    report.summary["verdict"] = irr.verdict
    if args.report:
        write_report(report, args.report)
    print(report.text_table())
    print(f"irreducibility: {irr.verdict} ({detail})")
    return EXIT_OK if report.passed else EXIT_RELATION


def _build_parser() -> argparse.ArgumentParser:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModuleFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (RelationError, WeightLadderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RELATION
    except IrreducibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IRREDUCIBILITY
    except CheckFailedError as exc:
        print(f"error: pipeline check failed: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except QAffineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
