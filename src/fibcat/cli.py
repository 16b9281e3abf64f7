"""Batch command-line front end: list, verify, evaluate.

Exit codes: 0 all selected records pass, 1 identity failure, 2 usage or
I/O error (including a selection with nothing to check), 3 convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import functools
import io
import json
import sys
from decimal import localcontext
from pathlib import Path

from . import engine
from .arbreal.core import round_to
from .errors import FibcatError
from .seriesdsl import KINDS, builtin_registry, format_params, parse_params, parse_registry

_CSV_HEADER = ["id", "binding", "kind", "status", "digits_requested", "digits_achieved", "terms", "seconds"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibcat",
        description="Verify the shipped Catalan/Fibonacci identity registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, id_metavar, id_help):
        p.add_argument("--id", dest="id_glob", metavar=id_metavar, help=id_help)
        p.add_argument("--kind", choices=KINDS)
        p.add_argument("--registry", action="append", default=[], metavar="PATH",
                       help="extra registry file (repeatable)")
        p.add_argument("--include-printed", action="store_true",
                       help="also select as-printed misprint records")

    p_list = sub.add_parser("list", help="list records")
    common(p_list, "GLOB", "select records whose id matches")

    p_verify = sub.add_parser("verify", help="verify records")
    common(p_verify, "GLOB", "select records whose id matches")
    p_verify.add_argument("--digits", type=int, metavar="D",
                          help="target digits for series and constant records")
    p_verify.add_argument("--param", action="append", default=[], metavar="NAME=A..B",
                          help="restrict a parameter range (repeatable)")
    p_verify.add_argument("--report", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", metavar="PATH", help="write the report to a file")

    p_eval = sub.add_parser("eval", help="print both sides of one identity")
    common(p_eval, "ID", "the record to evaluate: an exact id, not a glob")
    p_eval.add_argument("--digits", type=int, default=50, metavar="D")
    p_eval.add_argument("--param", action="append", default=[], metavar="NAME=A..B")
    return parser


def _load_records(args) -> list:
    records = builtin_registry()
    for path in args.registry:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SystemExit2(f"cannot read registry {path}: {exc}")
        parsed = parse_registry(text)
        if parsed.problems:
            raise SystemExit2("\n".join(f"{path}: {p}" for p in parsed.problems))
        records.extend(parsed.records)
    return records


class SystemExit2(Exception):
    """Usage or I/O failure that should exit with code 2."""


def _select(records, args) -> list:
    out = []
    for r in records:
        if args.kind and r.kind != args.kind:
            continue
        if args.id_glob:
            if not fnmatch.fnmatchcase(r.id, args.id_glob):
                continue
        elif r.as_printed and not args.include_printed:
            # misprint records run only when asked for by name or by flag
            continue
        out.append(r)
    return sorted(out, key=lambda r: r.id)


def _parse_param_ranges(specs) -> dict:
    """{name: (lo, hi)} of the --param specs, read as a registry reads its
    `params` (parse_params): a reversed range or a repeated name is a usage
    error."""
    try:
        params = parse_params(" ".join(specs))
    except ValueError as exc:
        raise SystemExit2(f"bad --param: {exc}") from None
    return {name: (lo, hi) for name, lo, hi in params}


def _config(records, args, digits=None) -> engine.VerifyConfig:
    """The run's config; digits below 1, a --param no selected record
    declares, or a selection with nothing to check, is a usage error."""
    ranges = _parse_param_ranges(args.param)
    unknown = sorted(set(ranges) - {name for r in records for name, _, _ in r.params})
    if unknown:
        raise SystemExit2(f"no selected record has the parameter {', '.join(unknown)}")
    try:
        config = engine.VerifyConfig(digits=digits, param_ranges=ranges)
    except ValueError as exc:  # the one check of digits, expr.check_digits
        raise SystemExit2(f"--digits: {exc}") from None
    if not any(engine.bindings(r, config) for r in records):
        raise SystemExit2("the selection leaves nothing to check")
    return config


def cmd_list(args) -> int:
    records = _select(_load_records(args), args)
    width = max((len(r.id) for r in records), default=2) + 2
    for r in records:
        flags = " [as printed]" if r.as_printed else ""
        params = format_params(r.params)
        params = f"  {params}" if params else ""
        print(f"{r.id:<{width}}{r.kind:<10}{r.paper_ref}{params}{flags}")
    print(f"{len(records)} records")
    return 0


def _rendered(report):
    """`report` rendering its Decimals under engine.RENDER_CONTEXT, so that
    no report reads the caller's decimal context."""

    @functools.wraps(report)
    def under(*args):
        with localcontext(engine.RENDER_CONTEXT):
            return report(*args)

    return under


@_rendered
def _report_text(report: engine.VerificationReport) -> str:
    buf = io.StringIO()
    wid = max((len(r.record_id) for r in report.results), default=8) + 2
    for r in report.results:
        diff = "" if r.abs_diff is None else " diff=0" if r.abs_diff == 0 else f" diff={r.abs_diff:.3E}"
        req = "" if r.digits_requested is None else f" want={r.digits_requested}"
        got = "" if r.digits_achieved is None else f" got={min(r.digits_achieved, 999)}"
        detail = f" {r.detail}" if r.detail else ""
        buf.write(
            f"{r.status.upper():<6}{r.record_id:<{wid}}{r.binding_text():<10}"
            f"{req}{got}{diff}{detail}\n"
        )
    c = report.counts
    buf.write(f"summary: {c['pass']} pass, {c['fail']} fail, {c['error']} error\n")
    return buf.getvalue()


def _result_json(r: engine.VerificationResult) -> dict:
    return {
        "id": r.record_id,
        "binding": r.binding_text(),
        "kind": r.kind,
        "status": r.status,
        "digits_requested": r.digits_requested,
        "digits_achieved": r.digits_achieved,
        "abs_diff": None if r.abs_diff is None else str(r.abs_diff),
        "terms": r.terms_used,
        "seconds": round(r.seconds, 6),
        "detail": r.detail,
        "strategy": r.strategy,
        "tail_bound": None if r.tail_bound is None else str(r.tail_bound),
    }


@_rendered
def _report_json(report: engine.VerificationReport) -> str:
    return json.dumps([_result_json(r) for r in report.results], indent=2) + "\n"


@_rendered
def _report_csv(report: engine.VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_HEADER)
    for r in report.results:
        row = _result_json(r) | {"seconds": f"{r.seconds:.3f}"}
        writer.writerow(["" if row[k] is None else row[k] for k in _CSV_HEADER])
    return buf.getvalue()


def cmd_verify(args) -> int:
    records = _select(_load_records(args), args)
    config = _config(records, args, args.digits)
    report = engine.verify_all(records, config)
    body = {"text": _report_text, "json": _report_json, "csv": _report_csv}[args.report](report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise SystemExit2(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(body)
    return engine.exit_code(report.results)


def cmd_eval(args) -> int:
    if args.id_glob is None:
        raise SystemExit2("eval needs --id ID (an exact record id)")
    records = [r for r in _load_records(args) if r.id == args.id_glob]
    if not records:
        raise SystemExit2(f"no record with id {args.id_glob!r}")
    record = records[0]
    digits = args.digits
    config = _config([record], args, digits)
    check = engine.checker(record, config, digits)
    results = []
    for binding in engine.bindings(record, config):
        sides, result = check(binding)
        results.append(result)
        with localcontext(engine.RENDER_CONTEXT):  # Decimals print as in every report
            where = f" at {result.binding_text()}" if binding else ""
            print(f"{record.id}{where}  ({record.kind})")
            if sides is not None and sides.exact is None:
                terms = "" if sides.terms is None else (
                    f"  ({sides.terms} terms, {sides.strategy} tail estimate {sides.tail_bound:.2E})")
                print(f"  lhs = {round_to(sides.lhs, digits)}{terms}")
                print(f"  rhs = {round_to(sides.rhs, digits)}")
                print(f"  |lhs - rhs| = {sides.diff:.3E}")
            elif sides is not None:
                print(f"  lhs = {sides.lhs}")
                print(f"  rhs = {sides.rhs}")
                print(f"  exact match: {sides.exact}")
            if result.status == "error":
                print(f"  {result.detail}")
            elif sides.exact is None:
                print(f"  verdict: {result.status}")
    return engine.exit_code(results)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "eval":
            return cmd_eval(args)
    except SystemExit2 as exc:
        print(f"fibcat: {exc}", file=sys.stderr)
        return 2
    except FibcatError as exc:
        print(f"fibcat: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (engine.ConvergenceError, engine.TailBoundViolation)) else 2
    parser.error(f"unknown command {args.command!r}")
    return 2
