"""fibcat benchmark: time to a verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload geometric --seed 1 --seconds 25 --trace 0

Run from the root of a fibcat source tree.  Each pass is a fresh
interpreter (`child.py`) that imports fibcat from `src/`, parses the builtin
registry and checks one workload's rows; passes repeat, one after the
other, until `--seconds` is spent (at least one pass).  This is a closed
loop with one client: each check starts when the previous one returns.

Times are reference-host seconds: a speed probe in each pass (`speed.py`)
converts the pass's wall time at the host speed of each moment, because a
shared host's speed swings by up to 1.8x within seconds.  The run record
keeps the wall times too.

With `--trace 0` the last stdout line carries the end-to-end metrics, each
the median over the run's passes.  With `--trace 1` the same untraced passes
run, then one traced pass, and the last line carries the per-layer metrics
of that pass plus `trace.overhead_s`.  The line before it is a JSON record
of the run: environment stamp, drawn rows, tail percentile, the ten slowest
rows and any verdict that differs from the ledger.  The exit code is 1 when
a verdict differs from the ledger and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
SETUP_PER_PASS = 2
MIN_SETUP_SAMPLES = 7
TAIL_ROWS = 10  # rows that must lie beyond the reported tail percentile


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_tree() -> None:
    for needed in (SRC / "fibcat" / "__init__.py", SRC / "fibcat" / "registry"):
        if not needed.exists():
            raise BenchError(f"{needed.relative_to(ROOT)} not found: run from a fibcat source tree")


def run_child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    # a fixed hash seed gives every pass the same dict and set layouts
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed), *flags]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {' '.join(flags) or '(untraced)'} ran past the run's time limit") from None
    if done.returncode != 0:
        raise BenchError(f"pass exited with {done.returncode}:\n{done.stderr[-2000:]}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(out["fibcat"]).resolve().is_relative_to(SRC):
        raise BenchError(f"pass imported fibcat from {out['fibcat']}, not from {SRC}")
    return out


# --------------------------------------------------------------- statistics


def rows_beyond(n: int, p: int) -> int:
    """Rows ranked above the nearest-rank p-th percentile of n rows."""
    return n - -(-p * n // 100)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_ROWS rows beyond it.

    Workloads with too few rows for any percentile report their slowest
    row, as percentile 100.
    """
    for p in range(99, 0, -1):
        if rows_beyond(n, p) >= TAIL_ROWS:
            return p
    return 100


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - rows_beyond(len(ordered), p) - 1)]


def check_passes(passes: list) -> list:
    """Every row of every pass that breaks the ledger, or a missing row.

    A pass must check exactly the rows it planned, and every pass the same
    rows in the same order.
    """
    problems = []
    keys = None
    for i, p in enumerate(passes):
        rows = p["rows"]
        if len(rows) != p["expected_rows"]:
            problems.append({"pass": i, "problem": f"{len(rows)} rows for {p['expected_rows']} planned"})
        these = [(r["id"], r["binding"]) for r in rows]
        if keys is not None and these != keys:
            problems.append({"pass": i, "problem": "rows differ from the first pass"})
        keys = keys or these
        for r in workloads.ledger_mismatches(rows):
            problems.append({"pass": i, "id": r["id"], "binding": r["binding"], "status": r["status"]})
    return problems


def end_to_end(passes: list, setups: list, wall: bool = False) -> dict:
    """Medians over the passes and set-up samples (child outputs).

    Times are reference-host seconds, or with `wall` the wall seconds the
    children measured, less the speed probe's own time.
    """
    tail_p = tail_percentile(len(passes[0]["rows"]))
    key = "wall_seconds" if wall else "seconds"
    seconds = [[r[key] for r in p["rows"]] for p in passes]
    setup, verify = ("setup_wall_s", "verify_wall_s") if wall else ("setup_s", "verify_s")
    return {
        "setup_s": statistics.median(p[setup] for p in setups),
        "verify_s": statistics.median(p[verify] for p in passes),
        "row_p50_s": statistics.median(statistics.median(s) for s in seconds),
        "row_tail_s": statistics.median(percentile(s, tail_p) for s in seconds),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }


# The untraced run's result line.
END_TO_END = {"setup_s": "s", "verify_s": "s", "row_p50_s": "s", "row_tail_s": "s", "peak_rss_mb": "MB"}

# The traced run's result line.  Layer times that read 0 on every workload
# that never enters the layer (qr_pow, one summation regime, quadrature and
# its node tables) are left to the run record, which carries every layer
# metric; their counts stay here.
PER_LAYER = {
    "seriesdsl.parse_s": "s",
    "expr.numeric.calls": "count",
    "expr.numeric.self_s": "s",
    "expr.numeric.us_per_call": "us",
    "expr.exact.calls": "count",
    "expr.exact.self_s": "s",
    "exactnum.seq.calls": "count",
    "exactnum.seq.self_s": "s",
    "engine.geometric.rows": "count",
    "engine.geometric.terms": "count",
    "engine.richardson.rows": "count",
    "engine.richardson.terms": "count",
    "engine.other_s": "s",
    "arbreal.quadrature.calls": "count",
    "arbreal.quadrature.integrand_evals": "count",
    "arbreal.quadrature.evals_per_tanh_sinh": "count/call",
    "arbreal.quadrature.node_builds": "count",
    "arbreal.core.calls": "count",
    "arbreal.core.self_s": "s",
    "arbreal.constants.calls": "count",
    "arbreal.constants.computes": "count",
    "arbreal.constants.self_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
}


# ------------------------------------------------------------------- stamp


def stamp() -> dict:
    import decimal

    try:
        import _decimal  # noqa: F401  (the C implementation)

        c_decimal = True
    except ImportError:
        c_decimal = False
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = got.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "fibcat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".reg"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "libmpdec": decimal.__libmpdec_version__,
        "c_decimal": c_decimal,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "load_1min_start": os.getloadavg()[0],
    }


# -------------------------------------------------------------------- main


def run(args) -> tuple[dict, dict]:
    check_tree()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **stamp()}
    started = time.monotonic()
    deadline = started + args.seconds
    hard_deadline = started + RUN_LIMIT_S

    # the first import compiles src/ to bytecode, as installing the package would
    run_child(args.workload, args.seed, hard_deadline, "--setup-only")

    def setup_sample() -> dict:
        return run_child(args.workload, args.seed, hard_deadline, "--setup-only")

    # set-up samples are spread over the run, so that their median sees the
    # same host speed as the passes
    setups = []
    passes = []
    while True:
        if not args.trace:
            setups += [setup_sample() for _ in range(SETUP_PER_PASS)]
        began = time.monotonic()
        passes.append(run_child(args.workload, args.seed, hard_deadline))
        now = time.monotonic()
        if now + (now - began) > deadline:
            break
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(setup_sample())
    if not passes[0]["expected_rows"]:
        raise BenchError(f"workload {args.workload} has no rows to check")
    traced = run_child(args.workload, args.seed, hard_deadline, "--trace") if args.trace else None

    checked = passes + ([traced] if traced else [])
    problems = check_passes(checked)
    attempted = sum(p["expected_rows"] for p in checked)
    failed = len(problems)
    e2e = end_to_end(passes, setups + passes)
    if traced:
        layer_metrics = dict(traced["layers"], **{"trace.overhead_s": traced["verify_s"] - e2e["verify_s"]})
        metrics = {name: (layer_metrics[name], unit) for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}

    median_pass = sorted(passes, key=lambda p: p["verify_s"])[(len(passes) - 1) // 2]
    slowest = sorted(median_pass["rows"], key=lambda r: r["seconds"], reverse=True)[:10]
    n_rows = len(passes[0]["rows"])
    tail_p = tail_percentile(n_rows)
    record.update(
        {
            "passes": len(passes),
            "verify_s_per_pass": [p["verify_s"] for p in passes],
            "verify_wall_s_per_pass": [p["verify_wall_s"] for p in passes],
            "probe_kernel_s_per_pass": [p["probe"]["kernel_s_median"] for p in passes],
            "probe_share_per_pass": [
                p["probe"]["paused_s"] / (p["probe"]["paused_s"] + p["verify_wall_s"]) for p in passes
            ],
            "draw": passes[0]["draw"],
            "rows": n_rows,
            "row_tail": {"percentile": tail_p, "rows": n_rows, "beyond": rows_beyond(n_rows, tail_p)},
            "failed_share": failed / attempted,
            "problems": problems[:20],
            "slowest": [
                {"id": r["id"], "binding": r["binding"], "class": args.workload,
                 "kind": r["kind"], "seconds": r["seconds"]}
                for r in slowest
            ],
            "end_to_end": e2e,
            "end_to_end_wall": end_to_end(passes, setups + passes, wall=True),
            "load_1min_end": os.getloadavg()[0],
            "wall_s": time.monotonic() - started,
        }
    )
    if traced:
        record["layers"] = layer_metrics
        record["tracer_missing"] = traced["missing"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
