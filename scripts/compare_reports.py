#!/usr/bin/env python3
"""Compare two `fibcat verify --report json` reports, ignoring `seconds`.

Usage:
    python scripts/compare_reports.py OLD NEW [--show N]

Rows are matched by (id, binding).  Every field except `seconds` must be
equal, and both reports must hold the same rows in the same order.  Prints
the first N (default 10) differing rows and exits 1 on any difference, 0
when the reports agree, 2 when a file cannot be read, holds no rows or holds
one (id, binding) row twice: a comparison of nothing must not pass, and a
repeated row would hide its other copies.  Use it to check that
a change meant to be invisible in the verdicts (a speed-up, a refactor)
leaves every row, status, digit count and |lhs - rhs| as they were.
"""

import argparse
import json
import sys
from collections import Counter

IGNORED = {"seconds"}


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    order = [(r["id"], r["binding"]) for r in rows]
    if not order:
        raise ValueError(f"{path} holds no rows")
    repeated = [key for key, count in Counter(order).items() if count > 1]
    if repeated:
        first = f"{repeated[0][0]} [{repeated[0][1]}]"
        raise ValueError(f"{path} holds {len(repeated)} row(s) twice or more, first {first}")
    return dict(zip(order, rows)), order


def diff_reports(old, new):
    """The differences as (key, description) pairs, in the new report's order."""
    old_rows, old_order = old
    new_rows, new_order = new
    out = []
    for key in new_order:
        if key not in old_rows:
            out.append((key, "only in NEW"))
            continue
        a, b = old_rows[key], new_rows[key]
        for field in sorted((set(a) | set(b)) - IGNORED):
            if a.get(field) != b.get(field):
                out.append((key, f"{field}: {a.get(field)!r} -> {b.get(field)!r}"))
    out.extend((key, "only in OLD") for key in old_order if key not in new_rows)
    if not out and old_order != new_order:
        out.append((None, "same rows in a different order"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--show", type=int, default=10, help="differing rows to print")
    args = parser.parse_args(argv)
    try:
        old, new = _rows(args.old), _rows(args.new)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot compare reports: {exc}", file=sys.stderr)
        return 2
    diffs = diff_reports(old, new)
    for key, what in diffs[: args.show]:
        where = "" if key is None else f"{key[0]} [{key[1]}] "
        print(f"{where}{what}")
    rows = len(new[1])
    if diffs:
        print(f"{len(diffs)} difference(s) over {rows} rows")
        return 1
    print(f"{rows} rows identical apart from {', '.join(sorted(IGNORED))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
