#!/usr/bin/env python3
"""Run the complete shipped registry and write text, JSON and CSV reports.

Usage:
    python scripts/run_full_verification.py [outdir]

The run covers every record including the as-printed misprint variants, so
the expected outcome is: all corrected records pass, exactly the as-printed
records fail.  Takes about 6 s (5.0 to 6.5 s measured in four runs,
Python 3.11.7, one core of a shared 2-vCPU x86-64 host whose speed
varies by up to 1.8x).  outdir defaults to verification_out.

Besides the counts it prints the seconds its builtin_registry() call took
(the registry parse), then the row seconds summed by verification class
(CLASSES): a record with a series side counts by its tail, any other by
its kind.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fibcat import engine  # noqa: E402
from fibcat.cli import _report_csv, _report_json, _report_text  # noqa: E402
from fibcat.seriesdsl import AlgebraicTail, SeriesSpec, builtin_registry  # noqa: E402

CLASSES = ("finite", "algebraic/radical", "geometric series", "algebraic-tail series", "integrals", "constants")


def verification_class(record) -> str:
    """The class of CLASSES a record's rows are timed under."""
    if isinstance(record.lhs, SeriesSpec):
        return "algebraic-tail series" if isinstance(record.tail, AlgebraicTail) else "geometric series"
    return {
        "finite": "finite", "algebraic": "algebraic/radical", "radical": "algebraic/radical",
        "integral": "integrals", "constant": "constants",
    }[record.kind]


def class_seconds(records, report) -> dict:
    """class -> [rows, summed row seconds], every class of CLASSES listed."""
    of = {r.id: verification_class(r) for r in records}
    out = {name: [0, 0.0] for name in CLASSES}
    for row in report.results:
        entry = out[of[row.record_id]]
        entry[0] += 1
        entry[1] += row.seconds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default="verification_out", help="where the reports go")
    outdir = Path(parser.parse_args(argv).outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    records = builtin_registry()
    parsed = time.perf_counter() - started
    printed = {r.id for r in records if r.as_printed}
    started = time.perf_counter()
    report = engine.verify_all(records)
    elapsed = time.perf_counter() - started

    (outdir / "report.txt").write_text(_report_text(report))
    (outdir / "report.json").write_text(_report_json(report))
    (outdir / "report.csv").write_text(_report_csv(report))

    counts = report.counts
    unexpected = [r for r in report.failures() if r.record_id not in printed]
    print(f"{len(report.results)} checks in {elapsed:.1f}s: "
          f"{counts['pass']} pass, {counts['fail']} fail, {counts['error']} error")
    print(f"registry parsed in {parsed:.3f} s")
    print("row seconds by class:")
    for name, (rows, seconds) in class_seconds(records, report).items():
        print(f"  {name:<22} {rows:5d} rows {seconds:7.2f} s")
    print(f"as-printed variants failing (expected): "
          f"{sorted({r.record_id for r in report.failures() if r.record_id in printed})}")
    if unexpected:
        print("UNEXPECTED failures:")
        for r in unexpected:
            print(f"  {r.record_id} {r.binding_text()} {r.status} {r.detail}")
        return 1
    print(f"reports written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
