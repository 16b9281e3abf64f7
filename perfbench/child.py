"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload geometric --seed 1 [--trace] [--setup-only]

Times `import fibcat` plus parsing the builtin registry (set-up), then the
workload's checks through `engine.verify_all`, the path `fibcat verify`
takes, and prints one JSON object on stdout.  fibcat keeps process-wide
caches (constants, tanh-sinh node tables, sequence kernels, the parsed
registry), so every pass runs in its own process: a second pass in the same
process would measure a warm program that no command-line user sees.

A speed probe (`speed.py`) runs from the first line to the last, and every
time is reported twice: in wall seconds less the probe's own time
(`*_wall_s`, `wall_seconds`) and in reference-host seconds.  The engine's
row clock is pointed at the probe's clock, so that row times leave the
probe out too.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import types

import layers
import speed
import workloads
from tracer import Tracer


def _verify(engine, steps, clock) -> tuple[list, list]:
    """The rows, and the clock time at which each step began."""
    results = []
    began = []
    for record, binding in steps:
        began.append(clock())
        if binding is None:
            results.append(engine.verify_all([record]).results)
        else:
            config = engine.VerifyConfig(param_ranges={k: (v, v) for k, v in binding.items()})
            results.append(engine.verify_all([record], config).results)
    return results, began


def _use_clock(module, clock) -> None:
    """Point `module.time.perf_counter` at `clock`."""
    shim = types.ModuleType("time")
    shim.__dict__.update(vars(time))
    shim.perf_counter = clock
    module.time = shim


def _render_reports(report, clock) -> tuple[float, float]:
    """Clock span of rendering the rows as the CLI's JSON and CSV reports."""
    from fibcat import cli

    started = clock()
    cli._report_json(report)
    cli._report_csv(report)
    return started, clock()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe = speed.SpeedProbe()
    probe.start()
    try:
        out = _pass(args, probe)
    finally:
        probe.stop()
    print(json.dumps(out))
    return 0


def _pass(args, probe) -> dict:
    clock = probe.clock
    tracer = Tracer(clock) if args.trace else None
    started = clock()
    import fibcat
    from fibcat import engine

    if tracer is not None:
        layers.install(tracer)
    records = fibcat.builtin_registry()
    setup = (started, clock())
    out = {"fibcat": fibcat.__file__}
    if args.setup_only:
        return _convert(out, probe, setup)

    _use_clock(engine, clock)
    steps = workloads.plan(args.workload, records, args.seed)
    started = clock()
    if tracer is None:
        results, began = _verify(engine, steps, clock)
    else:
        with tracer.span(layers.VERIFY_SPAN):
            results, began = _verify(engine, steps, clock)
    verify = (started, clock())
    report = (
        _render_reports(engine.VerificationReport(tuple(r for step in results for r in step)), clock)
        if tracer is not None else None
    )
    out = _convert(out, probe, setup, verify, report)
    points = speed.scale_points(probe.samples)

    printed = {r.id: r.as_printed for r in records}
    out["rows"] = []
    for at, step in zip(began, results):
        for r in step:
            # a step's rows run one after the other from its start
            out["rows"].append(
                {
                    "id": r.record_id,
                    "binding": r.binding_text(),
                    "kind": r.kind,
                    "status": r.status,
                    "seconds": speed.reference_seconds(points, at, at + r.seconds),
                    "wall_seconds": r.seconds,
                    "as_printed": printed[r.record_id],
                }
            )
            at += r.seconds
    out["expected_rows"] = workloads.expected_rows(steps)
    out["draw"] = [[r.id, workloads.binding_text(b)] for r, b in steps if b is not None]
    if tracer is not None:
        # layer times are clock seconds; the pass's own ratio converts them
        to_reference = out["verify_s"] / out["verify_wall_s"]
        wall = layers.metrics(tracer, out["report_wall_s"])
        out["layers"] = {
            name: value * to_reference if name.endswith(("_s", ".us_per_call")) else value
            for name, value in wall.items()
        }
        out["missing"] = tracer.missing
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _convert(out, probe, setup, verify=None, report=None) -> dict:
    """Each (start, end) clock span as reference and wall seconds."""
    points = speed.scale_points(probe.samples)
    for name, span in (("setup", setup), ("verify", verify), ("report", report)):
        if span is not None:
            out[f"{name}_s"] = speed.reference_seconds(points, *span)
            out[f"{name}_wall_s"] = span[1] - span[0]
    out["probe"] = {
        "samples": len(probe.samples),
        "kernel_s_median": statistics.median(d for _, d in probe.samples) if probe.samples else None,
        "paused_s": probe.paused,
    }
    return out


if __name__ == "__main__":
    sys.exit(main())
