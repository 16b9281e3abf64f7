#!/usr/bin/env python3
"""Desk evidence for the as-printed registry variants.

Usage:
    python scripts/probe_misprints.py

For every as-printed record this sums the series (or evaluates the sides)
next to its corrected sibling, the id without `.printed`, so the
discrepancy pattern is visible at a glance: the three start-index variants
miss exactly 1, the shift variants match the shift-2 reading, the sign
variants differ by twice a surd, and the shifted-down particular is off by
the factor 8.

Exits 0 when every as-printed record fails and every sibling passes, 1
when one does not, when a sibling is missing or when nothing was probed,
and 2 on an argument (it takes none).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fibcat import engine  # noqa: E402
from fibcat.seriesdsl import builtin_registry  # noqa: E402


def _statuses(rows) -> str:
    return ",".join(sorted({r.status for r in rows}))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    records = {r.id: r for r in builtin_registry()}
    printed = sorted((r for r in records.values() if r.as_printed), key=lambda r: r.id)
    if not printed:
        print("no as-printed record to probe")
        return 1
    problems = []
    for record in printed:
        sibling_id = record.id.rsplit(".printed", 1)[0]
        rows = engine.verify_identity(record)
        print(f"{record.id}")
        print(f"  as printed : {_statuses(rows)}  |lhs-rhs| = {rows[0].abs_diff}")
        if _statuses(rows) != "fail":
            problems.append(f"{record.id} does not fail")
        sibling = records.get(sibling_id)
        if sibling is None:
            print(f"  corrected  : missing ({sibling_id})")
            problems.append(f"{record.id} has no corrected sibling {sibling_id}")
        else:
            fixed = engine.verify_identity(sibling)
            diff = fixed[0].abs_diff
            print(f"  corrected  : {_statuses(fixed)}  |lhs-rhs| = {diff if diff is None else f'{diff:.2E}'}"
                  f"  ({sibling_id})")
            if _statuses(fixed) != "pass":
                problems.append(f"{sibling_id} does not pass")
        if record.note:
            print(f"  note       : {record.note}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
