"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
from measure import float_bits, golden_mismatches, nearest_rank, tail  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

from repro.telemetry.metrics import nearest_rank_quantile  # noqa: E402


def test_nearest_rank_matches_telemetry_ceil_rank():
    rng = np.random.default_rng(0)
    for n in list(range(1, 25)) + [99, 100, 101, 200, 1000]:
        values = rng.normal(size=n).tolist()
        for q in (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0, 1.0 / 3.0, 0.5 + 1e-12):
            assert nearest_rank(values, q) == nearest_rank_quantile(sorted(values), q)


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(200)))[0] == 0.95  # 10 samples lie beyond p95
    assert tail(list(range(199)))[0] == 0.90
    assert tail(list(range(100)))[0] == 0.90
    assert tail(list(range(99)))[0] == 0.75
    assert tail(list(range(5))) == (0.5, 2.0)


def _span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, None, 0)


def test_self_time_nested_and_siblings():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 5.0, 7.0, parent=1),  # sibling of 2
        _span(4, 2.0, 3.0, parent=2),  # grandchild: charged to 2, not to 1
    ]
    assert self_times(spans) == [10.0 - 3.0 - 2.0, 3.0 - 1.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    # Children on other threads may overlap; their union is subtracted.
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 5.0, 1), _span(3, 3.0, 6.0, 1),
             _span(4, 9.0, 12.0, 1)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_links_parents_and_restores():
    tracer = Tracer()
    original = vars(_Layer)["outer"]
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", "inner")
    root = tracer.begin("request", request="r1")
    assert _Layer().outer(3) == 7
    tracer.end(root)
    tracer.restore()
    assert vars(_Layer)["outer"] is original
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent == root.span_id
    assert {span.request for span in tracer.spans} == {"r1"}
    assert sum(self_times(tracer.spans)) == pytest.approx(root.duration)


def test_golden_check_fires_on_one_ulp():
    history = [-4.338123014391023, -4.5, 0.1]
    golden = {"history": float_bits(history), "end_to_end_ps": 123}
    assert golden_mismatches(golden, history, 123) == []
    for i in range(len(history)):
        nudged = list(history)
        nudged[i] = float(np.nextafter(history[i], np.inf))
        assert golden_mismatches(golden, nudged, 123)
    assert golden_mismatches(golden, history, 124)


def test_put_count_from_plans_equals_barrier_ranges():
    from repro import QtenonSystem
    from repro.core.barrier import MemoryBarrier
    from repro.vqa import vqe_workload

    workload = vqe_workload(4, n_layers=1)
    system = QtenonSystem(4, seed=1, timing_only=True)
    tracer = Tracer()
    layers.install(tracer)
    marks = []
    original = MemoryBarrier.mark_put
    MemoryBarrier.mark_put = lambda self, *a: (marks.append(a), original(self, *a))[1]
    try:
        system.prepare(workload.ansatz, workload.observable)
        values = dict(zip(workload.parameters, np.linspace(0, 1, workload.n_parameters)))
        for shots in (1, 300, 1000):
            system.evaluate(values, shots)
    finally:
        MemoryBarrier.mark_put = original
        tracer.restore()
    puts = tracer.counts["put_batches"]
    assert puts > 3
    assert puts == len(marks) == system.controller.barrier.pending_after(-1)


def test_printed_metrics_match_benchmark_json():
    import json

    import run
    from workloads import Tally

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    tally = Tally(step_s=[0.5], step_evals=[3], step_cal=[1e-3], job_s=[1.0], job_cal=[1e-3],
                  wall_s=1.0, evals=3)
    end_to_end, _raw = run._end_to_end(tally, [(1.0, 1.0)])
    per_layer = run._per_layer("vqe-shift", Tracer(), tally, tally, 0.5)
    for printed, listed in ((end_to_end, spec["end_to_end"]), (per_layer, spec["per_layer"])):
        assert {name: unit for name, (_v, unit) in printed.items()} == {
            metric["name"]: metric["unit"] for metric in listed
        }


def test_rates_scaled_by_bracketing_calibrations():
    from measure import CALIBRATION_REF_S, at_reference_speed

    ref = CALIBRATION_REF_S
    assert at_reference_speed([10.0, 10.0, 10.0], [ref, 2 * ref, 4 * ref]) == [10.0, 15.0, 30.0]
    assert at_reference_speed([], []) == []
