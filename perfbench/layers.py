"""Which public ``repro`` calls are traced, under which layer names.

Layer names follow the package's modules (``core.controller``,
``runtime.engine``...).  Module-level functions are patched where their
caller looks them up: ``plan_transmissions`` is called by
``repro.core.controller`` through its own import, so that module's
binding is the one wrapped.

``MemoryBarrier.mark_put`` is deliberately not wrapped: it runs once per
PUT (~300k calls per two GD steps of the 50k-shot workload) and a span
wrapper there makes the run about half again as long.  PUT counts come from the
plans ``plan_transmissions`` returns, and barrier time is what remains
of ``execute_q_run`` after its plan and timeline children.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from measure import nearest_rank
from tracing import Span, Tracer, self_times


def _count_puts(tracer: Tracer, plan) -> None:
    tracer.count("put_batches", len(plan))


def _count_slt(tracer: Tracer, report) -> None:
    tracer.count("slt_hits", report.slt_hits)
    tracer.count("slt_lookups", report.entries_processed)


def _submit_key(_service, spec, *args, **kwargs):
    return ("spec", spec.digest)


def _build_key(spec, *args, **kwargs):
    return ("spec", spec.digest)


def _session_key(_manager, session, *args, **kwargs):
    return ("session", session.session_id)


def install(tracer: Tracer) -> None:
    """Patch every traced boundary (undone by ``tracer.restore()``)."""
    import repro.core.controller as controller
    import repro.runtime.engine as engine
    import repro.service.service as service
    from repro.compiler.incremental import IncrementalCompiler
    from repro.core.system import QtenonSystem
    from repro.service.sessions import SessionManager
    from repro.vqa.runner import HybridRunner

    Engine = engine.EvaluationEngine
    wrap = tracer.wrap
    wrap(HybridRunner, "run", "vqa.runner.run")
    wrap(Engine, "prepare", "runtime.engine.prepare")
    wrap(engine, "build_spec", "runtime.engine.build_spec")
    wrap(Engine, "evaluate_many", "runtime.engine.evaluate")
    wrap(Engine, "evaluate_vectors", "runtime.engine.evaluate")
    wrap(Engine, "evaluate_gradients", "runtime.engine.evaluate_gradients")
    wrap(engine, "evaluate_spec_batch", "runtime.engine.evaluate_spec_batch")
    wrap(engine, "evaluate_spec_gradients", "runtime.engine.evaluate_spec_gradients")
    wrap(QtenonSystem, "prepare", "core.system.prepare")
    wrap(QtenonSystem, "evaluate", "core.system.evaluate")
    wrap(IncrementalCompiler, "plan", "compiler.incremental.plan")
    Controller = controller.QuantumController
    wrap(Controller, "execute_q_gen", "core.controller.execute_q_gen", on_result=_count_slt)
    wrap(Controller, "execute_q_run", "core.controller.execute_q_run")
    wrap(controller, "plan_transmissions", "core.scheduler.plan_transmissions",
         on_result=_count_puts)
    wrap(controller, "compute_run_timeline", "core.scheduler.compute_run_timeline")
    wrap(service.JobService, "submit", "service.service.submit", binding=_submit_key)
    wrap(service, "build_engine", "service.platforms.build_engine", binding=_build_key)
    wrap(SessionManager, "run_batch", "service.sessions.evaluate", binding=_session_key)


def wrap_codec(tracer: Tracer) -> None:
    """The session frame codec, as the stream client calls it."""
    import repro.service.stream as stream

    for owner, attr in ((stream.StreamWriter, "encode"), (stream.StreamDecoder, "feed"),
                        (stream, "pack_eval"), (stream, "unpack_eval"),
                        (stream, "pack_values"), (stream, "unpack_values")):
        tracer.wrap(owner, attr, "service.stream.codec")


#: per-layer metric -> span name whose inclusive seconds it reports.
INCLUSIVE = {
    "runtime.engine.build_spec_s": "runtime.engine.build_spec",
    "core.system.prepare_s": "core.system.prepare",
    "core.system.evaluate_s": "core.system.evaluate",
    "core.controller.execute_q_run_s": "core.controller.execute_q_run",
    "core.scheduler.plan_transmissions_s": "core.scheduler.plan_transmissions",
    "core.scheduler.compute_run_timeline_s": "core.scheduler.compute_run_timeline",
    "core.controller.execute_q_gen_s": "core.controller.execute_q_gen",
    "compiler.incremental.plan_s": "compiler.incremental.plan",
    "runtime.engine.evaluate_s": "runtime.engine.evaluate",
    "runtime.engine.evaluate_spec_batch_s": "runtime.engine.evaluate_spec_batch",
    "runtime.engine.evaluate_spec_gradients_s": "runtime.engine.evaluate_spec_gradients",
    "vqa.runner.run_s": "vqa.runner.run",
    "service.stream.codec_s": "service.stream.codec",
    "service.sessions.evaluate_s": "service.sessions.evaluate",
    "service.service.submit_s": "service.service.submit",
    "service.platforms.build_engine_s": "service.platforms.build_engine",
}

STREAM_REQUEST = "service.stream.request"
JOB_REQUEST = "service.job.request"


def _per_request(spans: Sequence[Span], root: str, minus: Sequence[str]) -> List[float]:
    """Per request: root span duration minus its named descendants."""
    latency: Dict[str, float] = {}
    removed: Dict[str, float] = {}
    for span in spans:
        if span.request is None:
            continue
        if span.name == root:
            latency[span.request] = span.duration
        elif span.name in minus:
            removed[span.request] = removed.get(span.request, 0.0) + span.duration
    return [latency[r] - removed.get(r, 0.0) for r in latency]


def _quantile_ms(values: Sequence[float], q: float) -> float:
    return nearest_rank(values, q) * 1e3 if values else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  client_threads: Optional[int] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced phase.

    ``traced_wall``/``untraced_wall`` are the wall times of the same
    work with and without tracing.  Coverage is the self time of every
    span over the traced wall time; with ``client_threads`` set (the
    service mix, where spans run on several threads at once) the
    uncovered share is instead the part of client request latency that
    no named layer below the request accounts for.
    """
    totals = tracer.totals()
    own = self_times(tracer.spans)
    out = {metric: totals.get(name, 0.0) for metric, name in INCLUSIVE.items()}
    q_run_self = sum(
        t for span, t in zip(tracer.spans, own) if span.name == "core.controller.execute_q_run"
    )
    out["core.controller.q_run_self_s"] = q_run_self
    out["core.system.evaluate_share"] = totals.get("core.system.evaluate", 0.0) / traced_wall
    out["core.scheduler.put_batches"] = tracer.counts.get("put_batches", 0)
    lookups = tracer.counts.get("slt_lookups", 0)
    out["core.slt.hit_rate"] = tracer.counts.get("slt_hits", 0) / lookups if lookups else 0.0
    out["service.platforms.build_engine_calls"] = sum(
        1 for span in tracer.spans if span.name == "service.platforms.build_engine"
    )
    stream_wait = _per_request(tracer.spans, STREAM_REQUEST, ["service.sessions.evaluate"])
    job_wait = _per_request(
        tracer.spans, JOB_REQUEST, ["service.platforms.build_engine", "vqa.runner.run"]
    )
    out["service.stream_wait_p50_ms"] = _quantile_ms(stream_wait, 0.50)
    out["service.stream_wait_p95_ms"] = _quantile_ms(stream_wait, 0.95)
    out["service.job_wait_p50_ms"] = _quantile_ms(job_wait, 0.50)
    out["service.job_wait_p90_ms"] = _quantile_ms(job_wait, 0.90)
    if client_threads is None:
        covered = sum(own)
        out["trace.coverage"] = covered / traced_wall
        out["trace.uncovered_share"] = max(0.0, 1.0 - covered / traced_wall)
    else:
        requests = [s for s in tracer.spans if s.name in (STREAM_REQUEST, JOB_REQUEST)]
        busy = sum(s.duration for s in requests)
        request_self = sum(
            t for span, t in zip(tracer.spans, own) if span.name in (STREAM_REQUEST, JOB_REQUEST)
        )
        out["trace.coverage"] = busy / (client_threads * traced_wall)
        out["trace.uncovered_share"] = request_self / busy if busy else 0.0
    out["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    return out
