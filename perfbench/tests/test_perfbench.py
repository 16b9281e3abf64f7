"""Tests for the benchmark's own code: tracer, draw, ledger, speed probe,
statistics.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture(scope="module")
def records():
    from fibcat import builtin_registry

    return builtin_registry()


# ------------------------------------------------------------------ tracer


def test_self_time_of_nested_calls(clock):
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_w()
        leaf_w()
        clock.now += 0.5

    def top():
        clock.now += 3.0
        middle_w()

    leaf_w = tracer.wrap("leaf", leaf)
    middle_w = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    L = tracer.layers
    assert (L["leaf"].calls, L["leaf"].total_s, L["leaf"].self_s) == (2, 4.0, 4.0)
    assert (L["middle"].calls, L["middle"].total_s, L["middle"].self_s) == (1, 5.5, 1.5)
    assert (L["top"].calls, L["top"].total_s, L["top"].self_s) == (1, 8.5, 3.0)


def test_recursion_is_counted_once(clock):
    tracer = Tracer(clock)

    def fact(n):
        clock.now += 1.0
        return 1 if n <= 1 else n * fact_w(n - 1)

    fact_w = tracer.wrap("rec", fact)
    assert fact_w(5) == 120
    stats = tracer.layers["rec"]
    assert (stats.calls, stats.total_s, stats.self_s) == (1, 5.0, 5.0)


def test_same_layer_below_another_layer_opens_a_new_span(clock):
    tracer = Tracer(clock)

    def a(depth):
        clock.now += 1.0
        if depth:
            b_w(depth)

    def b(depth):
        clock.now += 10.0
        a_w(depth - 1)

    a_w = tracer.wrap("a", a)
    b_w = tracer.wrap("b", b)
    a_w(1)
    assert tracer.layers["a"].calls == 2
    assert tracer.layers["a"].self_s == 2.0
    assert tracer.layers["b"].self_s == 10.0


def test_span_closes_when_the_call_raises(clock):
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.layers["boom"].total_s == 1.0
    assert not tracer._stack


def test_install_replaces_every_binding_and_uninstall_restores(monkeypatch, clock):
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class K:
        def m(self):
            return 7

    mod_a.f, mod_a.K = f, K
    mod_b.f = f  # as `from .a import f` would bind it
    for m in (pkg, mod_a, mod_b):
        monkeypatch.setitem(sys.modules, m.__name__, m)

    tracer = Tracer(clock)
    assert tracer.install("fakepkg", "fakepkg.a:f", "L")
    assert tracer.install("fakepkg", "fakepkg.a:K.m", "M")
    assert not tracer.install("fakepkg", "fakepkg.a:gone", "L")
    assert tracer.missing == ["fakepkg.a:gone"]
    assert mod_a.f is not f and mod_b.f is not f
    assert mod_b.f(1) == 2 and mod_a.f(2) == 3 and K().m() == 7
    assert tracer.layers["L"].calls == 2
    assert tracer.layers["M"].calls == 1
    tracer.uninstall()
    assert mod_a.f is f and mod_b.f is f and K.__dict__["m"] is not None
    assert K().m() == 7 and tracer.layers["M"].calls == 1


def test_layers_find_every_target_and_count_work(records):
    import layers
    from fibcat import engine, expr

    before = (engine.sum_series, expr.eval_exact_rational, expr.NumericEvaluator.eval)

    def first(cls, kind):
        return next(
            r for r in sorted(records, key=lambda r: r.id)
            if workloads.row_class(r) == cls and r.kind == kind and not r.params and not r.as_printed
        )

    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span(layers.VERIFY_SPAN):
            rows = engine.verify_all([first("geometric", "series"), first("quadrature", "integral")]).results
    finally:
        tracer.uninstall()
    assert (engine.sum_series, expr.eval_exact_rational, expr.NumericEvaluator.eval) == before
    assert tracer.missing == []
    assert [r.status for r in rows] == ["pass", "pass"]
    m = layers.metrics(tracer, 0.0)
    assert m["engine.geometric.rows"] == 1
    assert m["engine.geometric.terms"] == rows[0].terms_used
    assert m["expr.numeric.calls"] > m["engine.geometric.terms"]
    assert m["arbreal.quadrature.calls"] >= 1
    assert m["arbreal.quadrature.integrand_evals"] > 0
    assert m["engine.richardson.rows"] == 0


# -------------------------------------------------------------------- draw


def test_same_seed_same_draw(records):
    def ids(seed):
        return [(r.id, workloads.binding_text(b)) for r, b in workloads.draw_richardson(records, seed)]

    assert ids(3) == ids(3)
    assert len({tuple(ids(s)) for s in range(10)}) > 1


def test_draw_takes_each_theorem_at_one_shared_value(records):
    rich = [r for r in records if workloads.row_class(r) == "richardson"]
    parameterised = {r.id for r in rich if r.params}
    for seed in range(5):
        draw = workloads.draw_richardson(records, seed)
        drawn = [r.id for r, _ in draw]
        assert sorted(i for i in drawn if i in parameterised) == sorted(parameterised)
        assert sum(1 for i in drawn if i not in parameterised) == 1
        assert len(draw) == len(parameterised) + 1
        assert len({tuple(b.values()) for r, b in draw if r.params}) == 1


def test_classes_cover_the_registry_once(records):
    per_class = {w: 0 for w in workloads.WORKLOADS}
    for r in records:
        per_class[workloads.row_class(r)] += len(workloads.bindings(r))
    assert sum(per_class.values()) == sum(len(workloads.bindings(r)) for r in records)
    assert all(per_class.values())


# ------------------------------------------------------------------ ledger


def _rows():
    return [
        {"id": "a", "binding": "", "status": "pass", "as_printed": False},
        {"id": "a.printed", "binding": "", "status": "fail", "as_printed": True},
        {"id": "b", "binding": "s=1", "status": "pass", "as_printed": False},
    ]


def test_ledger_accepts_the_expected_verdicts():
    assert workloads.ledger_mismatches(_rows()) == []


@pytest.mark.parametrize("index,status", [(0, "fail"), (1, "pass"), (2, "error")])
def test_ledger_flags_a_flipped_verdict(index, status):
    rows = _rows()
    rows[index]["status"] = status
    assert workloads.ledger_mismatches(rows) == [rows[index]]


def test_check_passes_flags_missing_and_changed_rows():
    good = {"rows": _rows(), "expected_rows": 3}
    assert run.check_passes([good, good]) == []
    short = {"rows": _rows()[:2], "expected_rows": 3}
    problems = run.check_passes([good, short])
    assert len(problems) == 2  # a planned row is missing, and the rows differ
    flipped = {"rows": _rows(), "expected_rows": 3}
    flipped["rows"][2]["status"] = "fail"
    assert run.check_passes([flipped]) == [{"pass": 0, "id": "b", "binding": "s=1", "status": "fail"}]


# ------------------------------------------------------------- speed probe


def test_reference_seconds_at_a_steady_speed():
    samples = [(0.1 * i, 2 * speed.REF_KERNEL_S) for i in range(10)]
    points = speed.scale_points(samples)
    assert points[1] == pytest.approx([0.5] * 10)
    assert speed.reference_seconds(points, 0.0, 0.8) == pytest.approx(0.4)
    # before the first sample and after the last, the nearest scale holds
    assert speed.reference_seconds(points, -1.0, 2.0) == pytest.approx(1.5)
    assert speed.reference_seconds(points, 0.5, 0.5) == 0.0


def test_reference_seconds_follow_a_change_of_speed():
    slow, fast = speed.REF_KERNEL_S, speed.REF_KERNEL_S / 2
    samples = [(float(i), slow) for i in range(10)] + [(float(i), fast) for i in range(10, 20)]
    points = speed.scale_points(samples)
    # one clock second is one reference second while slow, two while fast
    assert speed.reference_seconds(points, 2.0, 5.0) == pytest.approx(3.0)
    assert speed.reference_seconds(points, 13.0, 16.0) == pytest.approx(6.0)
    # the median over five samples moves the change by no more than two
    assert 13.0 <= speed.reference_seconds(points, 5.0, 15.0) <= 17.0


def test_reference_seconds_ignore_a_lone_slow_sample():
    samples = [(float(i), speed.REF_KERNEL_S) for i in range(10)]
    samples[4] = (4.0, 50 * speed.REF_KERNEL_S)  # an interrupt hit the kernel
    assert speed.reference_seconds(speed.scale_points(samples), 0.0, 9.0) == pytest.approx(9.0)


def test_probe_samples_and_leaves_its_own_time_out_of_the_clock():
    probe = speed.SpeedProbe(interval=0.005)
    probe.start()
    try:
        wall0, clock0 = speed.time.perf_counter(), probe.clock()
        while speed.time.perf_counter() - wall0 < 0.2:
            pass
        wall, clock = speed.time.perf_counter() - wall0, probe.clock() - clock0
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert probe.samples[0][0] <= clock0  # one sample as the probe starts
    assert all(took > 0 for _, took in probe.samples)
    assert probe.paused > 0
    assert clock == pytest.approx(wall - probe.paused, abs=0.01)


def test_use_clock_replaces_only_perf_counter():
    module = types.SimpleNamespace(time=speed.time)
    child._use_clock(module, lambda: 42.0)
    assert module.time.perf_counter() == 42.0
    assert module.time.monotonic is speed.time.monotonic
    assert speed.time.perf_counter() != 42.0


# -------------------------------------------------------------- statistics


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n,p", [(356, 97), (124, 91), (2012, 99), (11, 9), (10, 100), (7, 100)])
def test_tail_percentile_leaves_ten_rows_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 97) == 97
    assert run.percentile(values, 100) == 100
    assert run.percentile([5.0], 100) == 5.0
