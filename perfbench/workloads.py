"""Workload selection and the verdict ledger.

A row is one checked (record, binding).  Every record of the shipped
registry belongs to exactly one verification class, and each workload is
one class, run through `engine.verify_all` with the engine's own targets:

* richardson -- series with an algebraic (Richardson) tail;
* geometric  -- series with a geometric tail;
* quadrature -- integral records without a series side, and constants;
* exact      -- finite, algebraic and radical records.

fibcat is imported lazily: a pass imports this module before its timer
starts, and `import fibcat` belongs to the timed set-up.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("richardson", "geometric", "quadrature", "exact")


def row_class(record) -> str:
    from fibcat.seriesdsl import AlgebraicTail, SeriesSpec

    if isinstance(record.lhs, SeriesSpec):
        return "richardson" if isinstance(record.tail, AlgebraicTail) else "geometric"
    if record.kind in ("integral", "constant"):
        return "quadrature"
    return "exact"


def bindings(record) -> list[dict]:
    """Every binding of the record's declared parameter ranges."""
    axes = [[(name, v) for v in range(lo, hi + 1)] for name, lo, hi in record.params]
    return [dict(combo) for combo in itertools.product(*axes)]


def binding_text(binding: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(binding.items()))


def draw_richardson(records, seed: int) -> list[tuple]:
    """Seeded draw of Richardson rows, as (record, binding).

    The seed picks one parameter value shared by every parameterised record,
    as `fibcat verify --param r=R..R` would select, plus one single-binding
    record.  Every draw then holds one row of each theorem family, so its
    cost varies far less between seeds than a uniform draw of the same size.
    """
    rich = sorted((r for r in records if row_class(r) == "richardson"), key=lambda r: r.id)
    parameterised = [r for r in rich if r.params]
    if any(len(r.params) != 1 for r in parameterised):
        raise ValueError("the Richardson draw expects one parameter per record")
    shared = set.intersection(*(set(range(lo, hi + 1)) for r in parameterised for _, lo, hi in r.params))
    if not shared:
        raise ValueError("the parameterised Richardson records share no parameter value")
    rng = random.Random(seed)
    value = rng.choice(sorted(shared))
    picks = [(r, {r.params[0][0]: value}) for r in parameterised]
    picks.append((rng.choice([r for r in rich if not r.params]), {}))
    return sorted(picks, key=lambda p: (p[0].id, binding_text(p[1])))


def plan(workload: str, records, seed: int) -> list[tuple]:
    """The rows a pass checks, as (record, binding or None for every binding)."""
    if workload == "richardson":
        return draw_richardson(records, seed)
    chosen = sorted((r for r in records if row_class(r) == workload), key=lambda r: r.id)
    return [(r, None) for r in chosen]


def expected_rows(steps) -> int:
    return sum(1 if b is not None else len(bindings(r)) for r, b in steps)


# ------------------------------------------------------------------ ledger


def expected_status(as_printed: bool) -> str:
    """The ledger: as-printed misprint records fail, every other record passes."""
    return "fail" if as_printed else "pass"


def ledger_mismatches(rows) -> list:
    """Rows whose status differs from the ledger; an `error` always differs.

    Each row is a dict with at least `id`, `binding`, `status` and
    `as_printed`.
    """
    return [r for r in rows if r["status"] != expected_status(r["as_printed"])]
