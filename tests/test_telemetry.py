"""Tests for the unified telemetry layer (repro.telemetry)."""

import json
import os
import subprocess
import sys
from collections import Counter as Tally

import pytest

from repro.service.jobs import JobSpec
from repro.service.service import JobService, ServiceConfig
from repro.service.api import ServiceAPI
from repro.sim.stats import StatGroup
from repro.telemetry import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    StepClock,
    TraceGroup,
    TraceSpan,
    Tracer,
    make_trace_id,
    merged_chrome_trace,
    metric_key,
    nearest_rank_quantile,
    parse_prometheus_text,
    prometheus_name,
    to_prometheus_text,
)
from repro.analysis.trace import TraceRecorder


# ----------------------------------------------------------------------
# quantiles
# ----------------------------------------------------------------------
class TestNearestRankQuantile:
    def test_median_of_five_is_third_element(self):
        # The old round(q*n)-1 rank used banker's rounding: round(2.5)
        # == 2 picked the 2nd element.  Ceil-based nearest rank picks
        # the 3rd — the actual median.
        assert nearest_rank_quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_issue_example(self):
        assert nearest_rank_quantile([1, 2], 0.5) == 1.0

    def test_extremes(self):
        values = [10.0, 20.0, 30.0]
        assert nearest_rank_quantile(values, 0.0) == 10.0
        assert nearest_rank_quantile(values, 1.0) == 30.0

    def test_empty_is_zero(self):
        assert nearest_rank_quantile([], 0.5) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], -0.1)

    def test_service_quantile_delegates(self):
        # The service's metrics snapshot reads its latency histogram,
        # which uses the fixed quantile.
        service = JobService()
        assert service.metrics_snapshot()["latency_s"]["p50"] == 0.0
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            service.telemetry.histogram("service.job.latency_s").observe(value)
        assert service.metrics_snapshot()["latency_s"]["p50"] == 3.0


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_monotone_integral(self):
        counter = Counter("service.jobs")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.increment(-1)
        with pytest.raises(TypeError):
            counter.increment(True)
        with pytest.raises(TypeError):
            counter.increment(1.5)

    def test_gauge_finite(self):
        gauge = Gauge("service.backlog")
        gauge.set(3.5)
        gauge.inc(0.5)
        assert gauge.value == 4.0
        with pytest.raises(ValueError):
            gauge.set(float("nan"))

    def test_histogram_buckets_and_quantiles(self):
        hist = Histogram("latency", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 3.0, 10.0):
            hist.observe(value)
        # le semantics: 1.0 lands in the le=1.0 bucket.
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(16.0)
        assert hist.quantile(0.5) == 1.5  # exact, not bucket-edge
        assert hist.percentiles()["p99"] == 10.0

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=())
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("x", buckets=(1.0, float("inf")))

    def test_histogram_rejects_non_finite_samples(self):
        hist = Histogram("x", buckets=(1.0,))
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        assert hist.count == 0


class TestRegistry:
    def test_get_or_create_same_kind_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("service.jobs.settled")
        b = registry.counter("service.jobs.settled")
        assert a is b

    def test_name_uniqueness_litmus(self):
        # The registry's core contract: one name, one kind, forever.
        registry = MetricsRegistry()
        registry.counter("runtime.evaluations")
        with pytest.raises(TypeError):
            registry.gauge("runtime.evaluations")
        with pytest.raises(TypeError):
            registry.histogram("runtime.evaluations")
        registry.histogram("service.latency", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("service.latency", buckets=(1.0, 3.0))

    def test_rejects_invalid_names(self):
        registry = MetricsRegistry()
        for bad in ("", "Upper.case", "1leading", "trailing.", "a..b", "a-b"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_collectors_merge_and_sum(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"runtime.evaluations": 3.0})
        registry.register_collector(lambda: {"runtime.evaluations": 4.0})
        assert registry.collect_external() == {"runtime.evaluations": 7.0}
        assert registry.names() == ["runtime.evaluations"]

    def test_snapshot_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        registry.register_collector(lambda: {"a.b": 1.0})
        with pytest.raises(ValueError):
            registry.snapshot()

    def test_equal_collector_registers_once(self):
        registry = MetricsRegistry()
        group = StatGroup("engine")
        group.counter("hits").increment(3)
        registry.register_collector(group.as_dict)
        registry.register_collector(group.as_dict)
        assert registry.collect_external() == {"engine.hits": 3.0}

    def test_collector_names_are_validated(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"Engine.Hits": 1.0})
        with pytest.raises(ValueError):
            registry.collect_external()

    def test_metric_key_sanitises(self):
        # [a-z0-9] names stay as they are; anything else is escaped
        # injectively, so distinct user strings never share a series.
        assert metric_key("tenant0", "scheduler") == "scheduler.tenant0"
        assert metric_key("tenant-0", "scheduler") == "scheduler.tenant_2d_0"
        assert metric_key("team_a", "s") != metric_key("team-a", "s")
        assert metric_key("Alice", "s") != metric_key("alice", "s")
        assert metric_key("a.b", "s") == "s.a_2e_b"
        assert metric_key("", "s") == "s._"


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("service.jobs.done").increment(3)
        registry.gauge("service.backlog").set(2.0)
        hist = registry.histogram("service.latency_s", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        registry.register_collector(lambda: {"runtime.evaluations": 12.0})
        return registry

    def test_round_trip(self):
        registry = self._registry()
        families = parse_prometheus_text(to_prometheus_text(registry))
        assert families["repro_service_jobs_done_total"]["type"] == "counter"
        assert families["repro_service_backlog"]["type"] == "gauge"
        hist = families["repro_service_latency_s"]
        assert hist["type"] == "histogram"
        buckets = [
            (labels["le"], value)
            for name, labels, value in hist["samples"]
            if name.endswith("_bucket")
        ]
        assert buckets == [("0.1", 1.0), ("1.0", 2.0), ("+Inf", 3.0)]
        assert families["repro_runtime_evaluations"]["type"] == "gauge"

    def test_prometheus_name(self):
        assert prometheus_name("service.jobs.done", "repro") == (
            "repro_service_jobs_done"
        )

    def test_parser_rejects_untyped_samples(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("repro_x 1\n")

    def test_parser_rejects_bad_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1.0"} 5\n'
            'h_bucket{le="+Inf"} 3\n'  # decreasing
            "h_sum 1\nh_count 3\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_parser_rejects_inf_count_mismatch(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 4\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_export_is_deterministic(self):
        assert to_prometheus_text(self._registry()) == to_prometheus_text(
            self._registry()
        )


class TestEventLog:
    def test_keeps_every_nth(self):
        log = EventLog(sample_every=3)
        kept = [log.emit("tick", i=i) for i in range(7)]
        assert kept == [True, False, False, True, False, False, True]
        assert [event["seq"] for event in log.events] == [0, 3, 6]
        assert log.seen == 7 and log.sampled == 3

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("job_settled", job_id="j1", state="done")
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "job_settled"

    def test_rejects_bad_sampling(self):
        with pytest.raises(ValueError):
            EventLog(sample_every=0)
        with pytest.raises(TypeError):
            EventLog(sample_every=True)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_trace_id_deterministic(self):
        assert make_trace_id("job-1") == make_trace_id("job-1")
        assert make_trace_id("job-1") != make_trace_id("job-2")
        assert len(make_trace_id("job-1")) == 16

    def test_span_ids_sequential_under_trace_id(self):
        tracer = Tracer(make_trace_id("job-1"))
        assert tracer.root_span_id.endswith(":0000")
        first = tracer.record("evaluation", "e0", 0, 10)
        second = tracer.record("evaluation", "e1", 10, 20)
        assert first.endswith(":0001") and second.endswith(":0002")
        # children default to the root span
        assert all(s.parent_id == tracer.root_span_id for s in tracer.spans)

    def test_adopt_parents_to_narrowest_enclosing_span(self):
        tracer = Tracer("t" * 16)
        outer_id = tracer.record("evaluation", "outer", 0, 100)
        inner_id = tracer.record("evaluation", "inner", 10, 50)
        spans = {s.span_id: s for s in tracer.spans}
        recorder = TraceRecorder()
        recorder.record("quantum", "shot", 20, 30)  # inside both
        recorder.record("bus", "put", 60, 90)  # inside outer only
        recorder.record("host", "late", 200, 300)  # inside neither
        adopted = tracer.adopt(
            recorder, parents=[spans[outer_id], spans[inner_id]]
        )
        assert adopted == 3
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["shot"].parent_id == inner_id
        assert by_name["put"].parent_id == outer_id
        assert by_name["late"].parent_id == tracer.root_span_id

    def test_merged_trace_layout(self):
        tracer = Tracer(make_trace_id("job-1"))
        tracer.record("evaluation", "e0", 0, 10)
        root = TraceSpan(
            trace_id=tracer.trace_id,
            span_id=tracer.root_span_id,
            parent_id=None,
            track="alice",
            name="job-1",
            start_ps=1000,
            end_ps=5000,
        )
        doc = json.loads(
            merged_chrome_trace(
                [
                    TraceGroup(1, "service", [root]),
                    TraceGroup(2, "job job-1", list(tracer.spans), 1000),
                ]
            )
        )
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {1, 2}
        job_span = next(e for e in spans if e["pid"] == 2)
        # offset by the job's wall start and linked by trace/span ids
        assert job_span["ts"] == pytest.approx(1000 / 1e6)
        assert job_span["args"]["trace_id"] == tracer.trace_id
        assert job_span["args"]["parent_id"] == tracer.root_span_id
        names = {
            (e["pid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert (1, "alice") in names and (2, "evaluation") in names


# ----------------------------------------------------------------------
# end-to-end determinism through the job service
# ----------------------------------------------------------------------
def _seeded_run(tenants=("tenant0", "tenant1"), seed_of=lambda i: i // 2):
    registry = MetricsRegistry()
    events = EventLog(sample_every=2)
    service = JobService(
        ServiceConfig(workers=1, sim_trace=True),
        clock=StepClock(),
        telemetry=registry,
        events=events,
    )
    api = ServiceAPI(service=service)
    submissions = [
        (
            tenants[i % 2],
            JobSpec(
                workload="qaoa", n_qubits=4, shots=32, iterations=1, seed=seed_of(i)
            ),
        )
        for i in range(4)
    ]
    batch = api.run_batch(submissions)
    return registry, events, service, batch


def _engine_sweep_registry():
    """The telemetry-on sweep of ``benchmarks/bench_telemetry.py``."""
    from repro import EvaluationEngine, HybridRunner, QtenonSystem
    from repro.vqa import make_optimizer
    from repro.vqa.ansatz import hardware_efficient_ansatz
    from repro.vqa.hamiltonians import molecular_hamiltonian

    ansatz, parameters = hardware_efficient_ansatz(8, n_layers=1, rotations=("ry",))
    engine = EvaluationEngine(QtenonSystem(8, seed=7), max_workers=1, seed=7)
    registry = MetricsRegistry()
    engine.attach_telemetry(registry)
    engine.tracer = Tracer(make_trace_id("bench"))
    HybridRunner(
        engine,
        ansatz,
        parameters,
        molecular_hamiltonian(8, seed=0),
        make_optimizer("gd"),
        shots=4_000,
        iterations=1,
    ).run(seed=7)
    engine.close()
    return registry


#: Families a fresh process exports for ``_seeded_run()`` and then the
#: engine sweep.  Dashboards key on these names: a change here is an
#: interface change, not a refactor.
SEEDED_RUN_FAMILIES = [
    ("repro_admission_admitted", "gauge"),
    ("repro_admission_open_jobs_count", "gauge"),
    ("repro_admission_open_jobs_mean", "gauge"),
    ("repro_eval_cache_evictions", "gauge"),
    ("repro_eval_cache_hit_rate", "gauge"),
    ("repro_eval_cache_hits", "gauge"),
    ("repro_eval_cache_insertions", "gauge"),
    ("repro_eval_cache_misses", "gauge"),
    ("repro_planner_chosen_statevector", "gauge"),
    ("repro_planner_class_general", "gauge"),
    ("repro_planner_decisions", "gauge"),
    ("repro_planner_forced", "gauge"),
    ("repro_service_backend_qtenon_attempts", "gauge"),
    ("repro_service_backend_qtenon_consecutive_failures", "gauge"),
    ("repro_service_backend_qtenon_failure_rate", "gauge"),
    ("repro_service_backend_qtenon_failures", "gauge"),
    ("repro_service_backend_qtenon_healthy", "gauge"),
    ("repro_service_backend_qtenon_successes", "gauge"),
    ("repro_service_coalesced", "gauge"),
    ("repro_service_dispatched", "gauge"),
    ("repro_service_job_latency_s", "histogram"),
    ("repro_service_job_sim_end_to_end_ps", "histogram"),
    ("repro_service_jobs_done", "gauge"),
    ("repro_service_queue_depth_count", "gauge"),
    ("repro_service_queue_depth_mean", "gauge"),
    ("repro_service_scheduler_backlog", "gauge"),
    ("repro_service_scheduler_fairness_jain", "gauge"),
    ("repro_service_scheduler_served_cost_tenant0", "gauge"),
    ("repro_service_sim_comm_ps_total", "counter"),
    ("repro_service_sim_host_compute_ps_total", "counter"),
    ("repro_service_sim_pulse_gen_ps_total", "counter"),
    ("repro_service_sim_quantum_ps_total", "counter"),
    ("repro_service_submitted", "gauge"),
    ("repro_sessions_open", "gauge"),
    ("repro_sessions_pinned_programs", "gauge"),
    ("repro_stabilizer_gates_applied", "gauge"),
    ("repro_stabilizer_shots_sampled", "gauge"),
    ("repro_stabilizer_tableau_runs", "gauge"),
    ("repro_stabilizer_wide_path_samples", "gauge"),
]

ENGINE_SWEEP_FAMILIES = [
    ("repro_adjoint_batch_rows", "gauge"),
    ("repro_adjoint_batch_sweeps", "gauge"),
    ("repro_adjoint_forward_passes", "gauge"),
    ("repro_adjoint_partials", "gauge"),
    ("repro_adjoint_reverse_sweeps", "gauge"),
    ("repro_adjoint_shift_fallbacks", "gauge"),
    ("repro_kernels_batch_replays", "gauge"),
    ("repro_kernels_batch_rows", "gauge"),
    ("repro_kernels_diag_fast_applies", "gauge"),
    ("repro_kernels_gates_applied", "gauge"),
    ("repro_kernels_gates_fused", "gauge"),
    ("repro_kernels_program_cache_hits", "gauge"),
    ("repro_kernels_programs_compiled", "gauge"),
    ("repro_kernels_replays", "gauge"),
    ("repro_planner_chosen_statevector", "gauge"),
    ("repro_planner_class_general", "gauge"),
    ("repro_planner_decisions", "gauge"),
    ("repro_planner_forced", "gauge"),
    ("repro_replay_cache_evictions", "gauge"),
    ("repro_replay_cache_hits", "gauge"),
    ("repro_replay_cache_misses", "gauge"),
    ("repro_replay_cache_programs", "gauge"),
    ("repro_runtime_evaluations", "gauge"),
    ("repro_runtime_serial_evaluations", "gauge"),
    ("repro_stabilizer_gates_applied", "gauge"),
    ("repro_stabilizer_shots_sampled", "gauge"),
    ("repro_stabilizer_tableau_runs", "gauge"),
    ("repro_stabilizer_wide_path_samples", "gauge"),
]

#: Runs in a fresh interpreter: the process-wide planner counters are
#: created lazily, so names depend on what the process ran before.
_FAMILIES_SCRIPT = """
import json
from repro.telemetry import parse_prometheus_text, to_prometheus_text
from tests.test_telemetry import _engine_sweep_registry, _seeded_run

def families(registry):
    parsed = parse_prometheus_text(to_prometheus_text(registry))
    return sorted((name, family["type"]) for name, family in parsed.items())

print(json.dumps([families(_seeded_run()[0]), families(_engine_sweep_registry())]))
"""


class TestServiceTelemetry:
    def test_two_seeded_runs_export_identical_bytes(self):
        reg_a, log_a, svc_a, _ = _seeded_run()
        reg_b, log_b, svc_b, _ = _seeded_run()
        assert to_prometheus_text(reg_a) == to_prometheus_text(reg_b)
        assert svc_a.merged_chrome_trace() == svc_b.merged_chrome_trace()
        assert log_a.to_jsonl() == log_b.to_jsonl()

    def test_merged_trace_threads_job_to_sim_phases(self):
        _registry, _events, service, batch = _seeded_run()
        assert batch.accepted == 4
        doc = json.loads(service.merged_chrome_trace())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        roots = {
            e["args"]["trace_id"]: e["args"]["span_id"]
            for e in spans
            if e["pid"] == 1
        }
        job_spans = [e for e in spans if e["pid"] != 1]
        assert job_spans, "sim_trace=True must produce per-job processes"
        # every sim/evaluation span belongs to a service job's trace
        assert all(e["args"]["trace_id"] in roots for e in job_spans)
        by_id = {e["args"]["span_id"]: e for e in spans}
        evaluation = [e for e in job_spans if e["cat"] == "evaluation"]
        assert evaluation
        # evaluation spans parent to the job root; sim phases parent to
        # an evaluation span (or the root for prepare-time phases)
        assert all(
            e["args"]["parent_id"] == roots[e["args"]["trace_id"]]
            for e in evaluation
        )
        sim_phases = [
            e
            for e in job_spans
            if e["cat"] in TraceRecorder.TRACKS
            and by_id.get(e["args"].get("parent_id"), {}).get("cat")
            == "evaluation"
        ]
        assert sim_phases, "sim-phase spans must descend from evaluations"

    def test_registry_carries_breakdown_and_latency_metrics(self):
        registry, _events, _service, _batch = _seeded_run()
        names = set(registry.names())
        for category in ("quantum", "pulse_gen", "host_compute", "comm"):
            assert f"service.sim.{category}_ps" in names
        assert "service.job.latency_s" in names
        assert "service.job.sim_end_to_end_ps" in names
        hist = registry.histogram("service.job.latency_s")
        assert hist.count == 4  # one observation per settled job

    def test_prometheus_export_parses(self):
        registry, _events, _service, _batch = _seeded_run()
        families = parse_prometheus_text(to_prometheus_text(registry))
        assert "repro_service_job_latency_s" in families

    def test_planner_and_stabilizer_metrics_round_trip(self):
        """A JobService publishes the process-wide planner/stabilizer
        counters; they must survive the Prometheus round trip."""
        registry, _events, _service, _batch = _seeded_run()
        families = parse_prometheus_text(to_prometheus_text(registry))
        for name in (
            "repro_planner_decisions",
            "repro_planner_forced",
            "repro_stabilizer_tableau_runs",
            "repro_stabilizer_shots_sampled",
        ):
            assert name in families, name

    def test_exported_family_names_are_stable(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        out = subprocess.run(
            [sys.executable, "-c", _FAMILIES_SCRIPT],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        seeded, engine = json.loads(out.splitlines()[-1])
        assert [tuple(entry) for entry in seeded] == SEEDED_RUN_FAMILIES
        assert [tuple(entry) for entry in engine] == ENGINE_SWEEP_FAMILIES

    def test_one_source_per_exported_name(self):
        """One registry hosting an engine and a service that share an
        EvalCache: every name comes from exactly one collector, and the
        process-wide groups and the shared cache register once."""
        from repro import EvaluationEngine, QtenonSystem
        from repro.planner import PLANNER_STATS
        from repro.quantum.adjoint import ADJOINT_STATS
        from repro.quantum.kernels import kernel_stats
        from repro.quantum.stabilizer import STABILIZER_STATS
        from repro.vqa import make_optimizer, vqe_workload
        from repro.vqa.runner import HybridRunner

        registry = MetricsRegistry()
        service = JobService(
            ServiceConfig(workers=1, cache_entries=64), telemetry=registry
        )
        engine = EvaluationEngine(QtenonSystem(4, seed=0), cache=service.cache)
        engine.attach_telemetry(registry)
        workload = vqe_workload(4)
        HybridRunner(
            engine,
            workload.ansatz,
            workload.parameters,
            workload.observable,
            make_optimizer("spsa"),
            shots=64,
            iterations=1,
        ).run(seed=0)
        ServiceAPI(service=service).run_batch(
            [("alice", JobSpec(workload="qaoa", n_qubits=4, shots=32, iterations=1))]
        )
        sources = Tally(
            name for collect in registry._collectors for name in collect()
        )
        assert sources and set(sources.values()) == {1}
        for shared in (
            PLANNER_STATS.as_dict,
            STABILIZER_STATS.as_dict,
            ADJOINT_STATS.as_dict,
            kernel_stats,
            service.cache.as_dict,
        ):
            assert registry._collectors.count(shared) == 1
        assert registry.collect_external()["eval_cache.hit_rate"] == (
            service.cache.hit_rate
        )
        registry.snapshot()  # no collector/instrument collision

    def test_distinct_tenants_export_distinct_series(self):
        """``team-a`` and ``team_a`` used to share one Prometheus series."""
        registry, _events, service, _batch = _seeded_run(
            tenants=("team-a", "team_a"), seed_of=lambda i: i
        )
        served = service.metrics_snapshot()["scheduler"]["served_cost_by_tenant"]
        assert set(served) == {"team-a", "team_a"}
        families = parse_prometheus_text(to_prometheus_text(registry))
        exported = {
            name: family["samples"][0][2]
            for name, family in families.items()
            if name.startswith("repro_service_scheduler_served_cost_")
        }
        assert len(exported) == 2
        assert exported == {
            prometheus_name(
                metric_key(tenant, "service.scheduler.served_cost"), "repro"
            ): cost
            for tenant, cost in served.items()
        }

    def test_events_cover_lifecycle(self):
        _registry, events, _service, _batch = _seeded_run()
        kinds = {event["kind"] for event in events.events}
        assert kinds & {"job_submitted", "job_dispatched", "job_settled"}
