"""Batch command-line front end: list, verify, evaluate.

Exit codes: 0 all selected records pass, 1 identity failure, 2 usage or
I/O error (including a selection with nothing to check), 3 convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import io
import json
import sys

from . import engine
from .arbreal.core import round_to
from .errors import FibcatError
from .seriesdsl import builtin_registry, format_params, parse_registry

_CSV_HEADER = ["id", "binding", "kind", "status", "digits_requested", "digits_achieved", "terms", "seconds"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibcat",
        description="Verify the shipped Catalan/Fibonacci identity registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--id", dest="id_glob", metavar="GLOB", help="select records whose id matches")
        p.add_argument("--kind", choices=("series", "finite", "algebraic", "radical", "integral", "constant"))
        p.add_argument("--registry", action="append", default=[], metavar="PATH",
                       help="extra registry file (repeatable)")
        p.add_argument("--include-printed", action="store_true",
                       help="also select as-printed misprint records")

    p_list = sub.add_parser("list", help="list records")
    common(p_list)

    p_verify = sub.add_parser("verify", help="verify records")
    common(p_verify)
    p_verify.add_argument("--digits", type=int, metavar="D",
                          help="target digits for geometric-class records")
    p_verify.add_argument("--param", action="append", default=[], metavar="NAME=A..B",
                          help="restrict a parameter range (repeatable)")
    p_verify.add_argument("--report", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--out", metavar="PATH", help="write the report to a file")

    p_eval = sub.add_parser("eval", help="print both sides of one identity")
    common(p_eval)
    p_eval.add_argument("--digits", type=int, default=50, metavar="D")
    p_eval.add_argument("--param", action="append", default=[], metavar="NAME=A..B")
    return parser


def _load_records(args) -> list:
    records = builtin_registry()
    for path in args.registry:
        try:
            text = open(path, encoding="utf-8").read()
        except OSError as exc:
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
    out = {}
    for spec in specs:
        name, eq, rng = spec.partition("=")
        if not eq:
            raise SystemExit2(f"bad --param {spec!r}: expected NAME=A..B or NAME=V")
        try:
            if ".." in rng:
                lo, hi = rng.split("..", 1)
                out[name] = (int(lo), int(hi))
            else:
                out[name] = (int(rng), int(rng))
        except ValueError:
            raise SystemExit2(f"bad --param {spec!r}: bounds must be integers") from None
    return out


def _config(records, args, digits=None) -> engine.VerifyConfig:
    """The run's config; a --param no selected record declares, or a
    selection with nothing to check, is a usage error."""
    ranges = _parse_param_ranges(args.param)
    unknown = sorted(set(ranges) - {name for r in records for name, _, _ in r.params})
    if unknown:
        raise SystemExit2(f"no selected record has the parameter {', '.join(unknown)}")
    config = engine.VerifyConfig(digits=digits, param_ranges=ranges)
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


def _report_text(report: engine.VerificationReport) -> str:
    buf = io.StringIO()
    wid = max((len(r.record_id) for r in report.results), default=8) + 2
    for r in report.results:
        diff = "" if r.abs_diff is None else f" diff={r.abs_diff:.3E}"
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
    }


def _report_json(report: engine.VerificationReport) -> str:
    return json.dumps([_result_json(r) for r in report.results], indent=2) + "\n"


def _report_csv(report: engine.VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_CSV_HEADER)
    for r in report.results:
        writer.writerow(
            [
                r.record_id,
                r.binding_text(),
                r.kind,
                r.status,
                "" if r.digits_requested is None else r.digits_requested,
                "" if r.digits_achieved is None else r.digits_achieved,
                "" if r.terms_used is None else r.terms_used,
                f"{r.seconds:.3f}",
            ]
        )
    return buf.getvalue()


def cmd_verify(args) -> int:
    if args.digits is not None and args.digits < 1:
        raise SystemExit2("--digits must be at least 1")
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
    convergence = any(
        r.status == "error" and r.detail.startswith(("ConvergenceError", "TailBoundViolation"))
        for r in report.results
    )
    if convergence:
        return 3
    if any(r.status != "pass" for r in report.results):
        return 1
    return 0


def cmd_eval(args) -> int:
    if args.digits < 1:
        raise SystemExit2("--digits must be at least 1")
    records = [r for r in _load_records(args) if r.id == args.id_glob]
    if not records:
        raise SystemExit2(f"no record with id {args.id_glob!r}")
    record = records[0]
    digits = args.digits
    for binding in engine.bindings(record, _config([record], args)):
        where = " at " + ",".join(f"{k}={v}" for k, v in sorted(binding.items())) if binding else ""
        print(f"{record.id}{where}  ({record.kind})")
        sides = engine.evaluate_sides(record, binding, digits)
        if sides.exact is None:
            terms = "" if sides.terms is None else f"  ({sides.terms} terms, {sides.strategy} tail)"
            print(f"  lhs = {round_to(sides.lhs, digits)}{terms}")
            print(f"  rhs = {round_to(sides.rhs, digits)}")
            print(f"  |lhs - rhs| = {sides.diff:.3E}")
        else:
            square = "^2" if sides.squared else ""
            print(f"  lhs{square} = {sides.lhs}")
            print(f"  rhs{square} = {sides.rhs}")
            print(f"  exact match{' (squares and signs)' if sides.squared else ''}: {sides.exact}")
    return 0


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
