"""Tests of the benchmark's own arithmetic: percentiles, failures as +inf,
self time from nested spans, absent hooks, and the metric list."""

from __future__ import annotations

import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import stats  # noqa: E402
from benchlib.layers import PER_LAYER, layer_values  # noqa: E402
from benchlib.tracing import Hook, Tracer, installed, resolve  # noqa: E402
from benchlib.pace import NOMINAL_S, scaled  # noqa: E402
from benchlib.workloads import (MIN_OPS, WORKLOADS, Outcome,  # noqa: E402
                                check, circle_distance, closed_loop,
                                rounds_for, torsion_value)


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# ---------------------------------------------------------------------------
# percentiles and failures


def test_tail_has_exactly_ten_samples_beyond():
    values = [float(i) for i in range(1, 51)]
    t = stats.tail(values[::-1])
    assert t.value == 40.0
    assert t.percentile == pytest.approx(80.0)
    assert t.samples == 50 and t.beyond == 10
    assert sum(v > t.value for v in values) == 10
    assert t.describe() == "p80.0 of 50 samples (10 beyond)"


def test_tail_of_eleven_samples_is_the_minimum():
    t = stats.tail([5.0, 3.0, 9.0, 1.0, 2.0, 8.0, 7.0, 6.0, 4.0, 10.0, 11.0])
    assert t.value == 1.0
    assert t.percentile == pytest.approx(100.0 / 11)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_failures_count_as_infinite_latency():
    lat = stats.latencies_with_failures([1.0, 2.0, 3.0], [False, True, False])
    assert lat == [1.0, math.inf, 3.0]
    with pytest.raises(ValueError):
        stats.latencies_with_failures([1.0], [False, True])


def test_fixing_a_failure_never_reads_as_a_slowdown():
    base = [float(i) for i in range(1, 31)]
    failed = [i % 7 == 0 for i in range(30)]
    before = stats.latencies_with_failures(base, failed)
    # the fixed operations are now slower than every other one
    after = [100.0 if bad else t for t, bad in zip(base, failed)]
    assert stats.median(after) <= stats.median(before)
    assert stats.tail(after).value <= stats.tail(before).value


def test_tail_is_infinite_when_more_than_ten_fail():
    lat = stats.latencies_with_failures([1.0] * 30, [i < 11 for i in range(30)])
    assert stats.tail(lat).value == math.inf


def test_median_and_quartile_spread():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([1.0, math.inf]) == math.inf
    values = [10.0, 11.0, 9.0, 10.0, 10.0, 12.0, 8.0, 10.0, 10.5, 9.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_subtracts_nested_children():
    # outer 0..10, child 2..5 with grandchild 3..4, second child 6..7
    tracer = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 7, 10]))
    outer = tracer.enter("outer")
    child = tracer.enter("child")
    grand = tracer.enter("grand")
    tracer.exit(grand)
    tracer.exit(child)
    leaf = tracer.enter("leaf", keep=False)
    tracer.exit(leaf)
    tracer.exit(outer)

    assert tracer.self_s["outer"] == 10 - 3 - 1
    assert tracer.self_s["child"] == 3 - 1
    assert tracer.self_s["grand"] == 1
    assert tracer.self_s["leaf"] == 1
    kept = [s for s in tracer.spans if s is not None]
    assert [s.name for s in kept] == ["outer", "child", "grand"]
    assert [s.parent for s in kept] == [None, 0, 1]
    # self times add up to the root span's duration
    assert sum(tracer.self_s.values()) == 10


def test_recursive_spans_and_op_ids():
    tracer = Tracer(clock=FakeClock(range(100)))

    def rec(n):
        frame = tracer.enter("rec")
        try:
            if n:
                rec(n - 1)
        finally:
            tracer.exit(frame)

    with tracer.span("op", op=7):
        rec(2)
    assert tracer.calls["rec"] == 3
    assert tracer.calls["op"] == 1
    assert all(s.op == 7 for s in tracer.spans)
    assert tracer.self_s["rec"] + tracer.self_s["op"] == 7


def test_span_closed_out_of_order_is_an_error():
    tracer = Tracer()
    a = tracer.enter("a")
    tracer.enter("b")
    with pytest.raises(RuntimeError):
        tracer.exit(a)


def test_write_emits_header_and_spans(tmp_path):
    tracer = Tracer(clock=FakeClock([0.0, 1.0]))
    with tracer.span("op", op=0):
        pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path, {"seed": 3})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"seed": 3}
    assert json.loads(lines[1]) == ["op", 0.0, 1.0, None, 0, 1.0]


# ---------------------------------------------------------------------------
# hooks


class Target:
    def work(self, n):
        return n * 2


def test_absent_hooks_are_reported_not_fatal():
    tracer = Tracer()
    hooks = [
        Hook("no_such_module_for_perfbench.f", "missing.module"),
        Hook("json.no_such_function", "missing.attr"),
        Hook(f"{__name__}.Target.no_such_method", "missing.method"),
        Hook(f"{__name__}.Target.work", "target.work"),
    ]
    original = Target.work
    with installed(tracer, hooks):
        assert Target().work(4) == 8
        assert Target.work is not original
    with installed(tracer, hooks):  # absent targets are listed once
        pass
    assert Target.work is original
    assert tracer.absent == ["no_such_module_for_perfbench.f",
                             "json.no_such_function",
                             f"{__name__}.Target.no_such_method"]
    assert tracer.calls["target.work"] == 1


def test_resolve_finds_module_and_class_attributes():
    assert resolve("json.dumps") == (json, "dumps")
    owner, attr = resolve(f"{__name__}.Target.work")
    assert owner is Target and attr == "work"
    assert resolve("json") is None


def test_hooks_see_arguments_and_results():
    tracer = Tracer()

    def after(tr, token, result, args, kwargs):
        tr.counts["seen"] += token + result

    hooks = [Hook(f"{__name__}.Target.work", "target.work",
                  before=lambda args, kwargs: args[1], after=after,
                  rename=lambda tr, args: f"target.work.{args[1]}")]
    with installed(tracer, hooks):
        Target().work(3)
    assert tracer.counts["seen"] == 3 + 6
    assert tracer.calls["target.work.3"] == 1


def test_counted_hook_keeps_no_spans():
    tracer = Tracer()
    with installed(tracer, [Hook(f"{__name__}.Target.work", "target.work",
                                 timed=False)]):
        Target().work(1)
        Target().work(2)
    assert tracer.calls["target.work"] == 2
    assert tracer.spans == [] and not tracer.self_s


def test_layer_values_survive_missing_layers():
    values = layer_values(Tracer(), traced_wall_s=2.0, untraced_wall_s=1.0,
                          import_s=0.25, imports=4)
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["trace.overhead_ratio"] == 2.0
    assert values["share.cli_io"] == pytest.approx(1.0 / 3.0)
    assert values["quantize.key.new_ratio"] == 0.0


# ---------------------------------------------------------------------------
# correctness gate, sizing and the declared metrics


def test_ground_truth_and_gate():
    assert [round(torsion_value(n), 12) for n in (2, 3, 4, 5)] == [
        0.0, round(1 / 3, 12), 0.5, 0.6]
    assert circle_distance(0.9999999999, 0.0) == pytest.approx(1e-10)
    assert check(complex(1 - 1e-12, 1e-9), 1e-15, 0.0) is None
    assert check(complex(0.6, 0.0), 0.0, torsion_value(5)) is None
    assert "mod 1" in check(complex(0.5, 0.0), 0.0, 0.6)
    assert "imaginary" in check(complex(0.6, 1e-5), 0.0, 0.6)
    assert "deviation" in check(complex(0.6, 0.0), 1e-6, 0.6)
    assert check(complex(math.nan, 0.0), 0.0, 0.0) is not None


class FakePace:
    def __init__(self, samples):
        self.samples = list(samples)

    def sample(self):
        return self.samples.pop(0)


def test_each_op_gets_the_mean_pace_around_it():
    outcomes, _ = closed_loop([1, 2, 3], lambda op: Outcome(0.5, None, None),
                              pace=FakePace([0.02, 0.04, 0.03, 0.03]))
    assert [o.pace_s for o in outcomes] == pytest.approx([0.03, 0.035, 0.03])
    plain, _ = closed_loop([1], lambda op: Outcome(0.5, None, None))
    assert plain[0].pace_s is None


def test_scaling_cancels_host_pace_but_not_program_cost():
    assert scaled(1.0, NOMINAL_S) == 1.0
    # the same work in a spell at half speed reads the same
    assert scaled(2.0, 2 * NOMINAL_S) == pytest.approx(1.0)
    # a program 20% slower reads 20% slower in the same spell
    assert scaled(2.4, 2 * NOMINAL_S) == pytest.approx(1.2)


def test_every_run_has_a_tail_and_three_rounds():
    for w in WORKLOADS.values():
        for seconds in (1, 10, 30):
            rounds = rounds_for(w, seconds)
            assert rounds >= 3
            assert rounds * len(w.shape) >= MIN_OPS


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run = _load_run()
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
