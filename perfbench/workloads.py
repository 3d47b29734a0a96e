"""The four closed-loop workloads.

Every workload draws its inputs from ``--seed`` alone (initial
parameters, platform seeds, the job sequence and its duplicate
pattern); the program only ever sees the generated values.  Each one
offers:

* ``setup()`` — build the platform/engine/service and prepare or open
  the session, up to the first timed operation;
* ``measure(seconds)`` — the untraced, time-bound closed loop;
* ``traced(seconds, tracer)`` — a fixed amount of work run twice, once
  untraced and once with every layer wrapped, compared bit for bit;
* ``reference()`` — the default-seed run whose cost histories and
  simulated picoseconds are kept in ``goldens.json``;
* ``close()``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from measure import calibrate, float_bits
from tracing import Tracer

from repro import EvaluationEngine, HybridRunner, QtenonSystem
from repro.core import QtenonConfig, QtenonFeatures
from repro.service import stream
from repro.service.api import ServiceHost
from repro.service.jobs import JobSpec
from repro.service.service import ServiceConfig
from repro.service.sessions import SessionError
from repro.vqa import make_optimizer, qaoa_workload, vqe_workload
from repro.vqa.ansatz import hardware_efficient_ansatz
from repro.vqa.hamiltonians import molecular_hamiltonian

#: the seed whose outputs ``goldens.json`` records.
DEFAULT_SEED = 0
#: distinct campaign inputs per run; campaigns cycle through them in a
#: seeded order, and every repeat must reproduce its first run exactly.
INPUT_POOL = 4
MAX_PROBLEMS = 20


@dataclass
class Tally:
    """What one phase did: latencies, evaluation count, failures."""

    step_s: List[float] = field(default_factory=list)
    #: evaluations completed by each step, parallel to ``step_s``.
    step_evals: List[int] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    #: with ``calibrated``, a ``calibrate()`` reading taken right after
    #: each step / job (parallel to ``step_s`` / ``job_s``).
    calibrated: bool = False
    step_cal: List[float] = field(default_factory=list)
    job_cal: List[float] = field(default_factory=list)
    evals: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    problems: List[str] = field(default_factory=list)
    #: per-operation outputs (cost history bits, simulated ps) in order.
    outputs: List[Tuple[Tuple[str, ...], int]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: input index -> output of its first run in this phase.
    first: Dict[int, Tuple[Tuple[str, ...], int]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> None:
        """One correctness check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    def step(self, seconds: float, evals: int) -> None:
        self.step_s.append(seconds)
        self.step_evals.append(evals)
        if self.calibrated:
            self.step_cal.append(calibrate())

    def job(self, seconds: float) -> None:
        self.job_s.append(seconds)
        if self.calibrated:
            self.job_cal.append(calibrate())


class _TimedSteps:
    """Optimizer proxy timing each ``run_iteration`` (one closed-loop step)."""

    def __init__(self, inner, tally: Tally, evals_per_step: int) -> None:
        self._inner = inner
        self._tally = tally
        self._evals = evals_per_step

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run_iteration(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self._inner.run_iteration(*args, **kwargs)
        finally:
            self._tally.step(time.perf_counter() - start, self._evals)


# ----------------------------------------------------------------------
# single-threaded campaigns: vqe-shift, vqe-adjoint, qaoa-paper
# ----------------------------------------------------------------------
class CampaignWorkload:
    """One client running whole optimisation campaigns back to back.

    A campaign builds a fresh platform (so its simulated timeline is
    its own), runs ``iterations`` optimizer steps through
    ``HybridRunner`` and is one job; each optimizer step is one step.
    """

    salt = 0
    iterations = 1
    shots = 0
    #: campaigns per second of ``--seconds`` in a traced run (each is
    #: run twice, untraced then traced).
    traced_rate = 1.0

    def __init__(self, seed: int) -> None:
        self.ansatz, self.parameters, self.observable = self.problem()
        rng = np.random.default_rng([seed % 2**64, self.salt])
        self.platform_seed = int(rng.integers(2**31))
        self.inputs = [
            rng.uniform(-0.5, 0.5, size=len(self.parameters)) for _ in range(INPUT_POOL)
        ]
        self.order = rng.integers(0, INPUT_POOL, size=100_000)

    # -- per workload --------------------------------------------------
    def problem(self):
        raise NotImplementedError

    def platform(self):
        raise NotImplementedError

    def optimizer(self):
        raise NotImplementedError

    def expected_evaluations(self) -> int:
        raise NotImplementedError

    # -- protocol ------------------------------------------------------
    def setup(self) -> None:
        self.platform().prepare(self.ansatz, self.observable)

    def campaign(self, index: int, tally: Tally) -> None:
        start = time.perf_counter()
        try:
            runner = HybridRunner(
                self.platform(), self.ansatz, self.parameters, self.observable,
                _TimedSteps(self.optimizer(), tally,
                            self.expected_evaluations() // self.iterations),
                shots=self.shots, iterations=self.iterations,
            )
            result = runner.run(initial_params=self.inputs[self.order[index]].copy())
        except Exception as exc:  # one failed operation; the loop goes on
            tally.check(False, f"campaign {index}: {type(exc).__name__}: {exc}")
            tally.outputs.append(((), 0))
            return
        tally.job(time.perf_counter() - start)
        report = result.report
        tally.evals += report.evaluations
        history = tuple(float_bits(result.cost_history))
        tally.outputs.append((history, int(report.end_to_end_ps)))
        tally.check(
            len(history) == self.iterations
            and bool(np.all(np.isfinite(result.cost_history)))
            and report.end_to_end_ps > 0
            and report.evaluations == self.expected_evaluations(),
            f"campaign {index}: {len(history)} costs, {report.evaluations} evaluations, "
            f"{report.end_to_end_ps} ps",
        )
        pool_index = int(self.order[index])
        if pool_index in tally.first:
            tally.check(tally.first[pool_index] == tally.outputs[-1],
                        f"campaign {index} differs from an earlier run of the same input")
        else:
            tally.first[pool_index] = tally.outputs[-1]

    def measure(self, seconds: float) -> Tally:
        tally = Tally(calibrated=True)
        start = time.perf_counter()
        index = 0
        while True:
            self.campaign(index, tally)
            index += 1
            if time.perf_counter() - start >= seconds:
                break
        tally.wall_s = time.perf_counter() - start
        return tally

    def traced(self, seconds: float, tracer: Tracer) -> Tuple[Tally, Tally]:
        plain, traced = Tally(), Tally()
        for index in range(max(1, round(seconds * self.traced_rate))):
            start = time.perf_counter()
            self.campaign(index, plain)
            plain.wall_s += time.perf_counter() - start
            layers.install(tracer)
            start = time.perf_counter()
            try:
                self.campaign(index, traced)
            finally:
                traced.wall_s += time.perf_counter() - start
                tracer.restore()
        return plain, traced

    def reference(self) -> Dict[str, object]:
        tally = Tally()
        self.campaign(0, tally)
        history, ps = tally.outputs[0]
        return {"history": list(history), "end_to_end_ps": ps, "problems": tally.problems}

    def close(self) -> None:
        pass


class VqeShift(CampaignWorkload):
    """Default sampled path: serial engine, 50k shots, parameter-shift GD."""

    salt = 1
    shots = 50_000
    traced_rate = 0.3

    def problem(self):
        ansatz, parameters = hardware_efficient_ansatz(8, n_layers=1, rotations=("ry",))
        return ansatz, parameters, molecular_hamiltonian(8, seed=0)

    def platform(self):
        return EvaluationEngine(
            QtenonSystem(self.ansatz.n_qubits, seed=self.platform_seed),
            max_workers=1, cache=None, seed=self.platform_seed,
        )

    def optimizer(self):
        return make_optimizer("gd")

    def expected_evaluations(self) -> int:
        return self.iterations * (2 * len(self.parameters) + 1)


class VqeAdjoint(VqeShift):
    """Exact statevector with adjoint gradients: the kernel-bound path."""

    salt = 2
    shots = 0
    iterations = 10
    traced_rate = 1.6

    def problem(self):
        workload = vqe_workload(12, n_layers=4)
        return workload.ansatz, workload.parameters, workload.observable

    def optimizer(self):
        return make_optimizer("gd", gradient="adjoint")

    def expected_evaluations(self) -> int:
        return self.iterations  # one forward pass per adjoint step


class QaoaPaper(CampaignWorkload):
    """The paper-figure path: timing-only 64-qubit QAOA, SPSA, 500 shots."""

    salt = 3
    shots = 500
    iterations = 5
    traced_rate = 0.9

    def problem(self):
        workload = qaoa_workload(64, n_layers=5, seed=0)
        return workload.ansatz, workload.parameters, workload.observable

    def platform(self):
        # Built exactly as the paper-figure harness builds it.
        return QtenonSystem(
            64,
            features=QtenonFeatures.full(),
            config=QtenonConfig(n_qubits=64, regfile_entries=max(1024, 8 * 64)),
            seed=self.platform_seed,
            timing_only=True,
        )

    def optimizer(self):
        return make_optimizer("spsa", seed=self.platform_seed)

    def expected_evaluations(self) -> int:
        return 3 * self.iterations


# ----------------------------------------------------------------------
# service-mix: a streamed session and one-shot jobs on one ServiceHost
# ----------------------------------------------------------------------
#: one job-pool spec per shape (workload, qubits); the seed picks the
#: specs' own seeds and the order, never the shapes, so the work mix of a
#: run does not depend on the seed.
JOB_SHAPES = (("qaoa", 4), ("qaoa", 5), ("qaoa", 6), ("vqe", 4), ("vqe", 5), ("vqe", 6),
              ("qnn", 4), ("qnn", 5))
JOB_TIMEOUT_S = 60.0
#: streamed iterations a parity / golden check compares.
PREFIX_ITERATIONS = 4
#: big enough that no run evicts: the cache-hit pattern, and with it
#: every job's simulated timeline, is then a function of the seed alone.
CACHE_ENTRIES = 1 << 16


class StreamClient:
    """Client A: an SPSA loop streamed through the session frame codec.

    Each request is encoded and decoded by the real codec on both sides
    of an in-process stand-in for the socket server, then served by
    ``ServiceHost.evaluate``.  The loop mirrors ``drive_session`` (same
    initial draw, optimizer seed and batch order), so its history must
    equal a one-shot job of the same spec.
    """

    def __init__(self, host: ServiceHost, session, spec: JobSpec,
                 tracer: Optional[Tracer], calibrated: bool) -> None:
        self.host, self.session, self.spec, self.tracer = host, session, spec, tracer
        self.tally = Tally(calibrated=calibrated)
        self.client_out, self.server_in = stream.StreamWriter(), stream.StreamDecoder()
        self.server_out, self.client_in = stream.StreamWriter(), stream.StreamDecoder()
        self.params = np.random.default_rng(spec.seed).uniform(-0.5, 0.5, size=session.n_params)
        self.optimizer = make_optimizer(spec.optimizer, seed=spec.seed)
        self.optimizer.reset()
        self.history: List[float] = []
        self.requests = 0
        self.done = 0  #: iterations attempted

    def _serve(self, frame: bytes) -> bytes:
        (_seq, _kind, body), = self.server_in.feed(frame)
        vectors, shots = stream.unpack_eval(body)
        try:
            values = self.host.evaluate(self.session.session_id, list(vectors), shots)
        except SessionError as exc:
            return self.server_out.encode(stream.KIND_ERROR, stream.pack_error(exc.code, exc.message))
        return self.server_out.encode(stream.KIND_VALUE, stream.pack_values(values))

    def request(self, vectors) -> List[float]:
        """One closed-loop round trip: encode, serve, decode."""
        tracer, span = self.tracer, None
        if tracer is not None:
            span = tracer.begin(layers.STREAM_REQUEST, request=f"s{self.requests}")
            tracer.bind(("session", self.session.session_id), span.request, span)
        self.requests += 1
        start = time.perf_counter()
        try:
            frame = self.client_out.encode(stream.KIND_EVAL, stream.pack_eval(vectors, self.spec.shots))
            (_seq, kind, body), = self.client_in.feed(self._serve(frame))
            if kind == stream.KIND_ERROR:
                raise stream.StreamRemoteError(*stream.unpack_error(body))
            values = stream.unpack_values(body)
        finally:
            if span is not None:
                tracer.end(span)
        self.tally.step(time.perf_counter() - start, len(values))
        self.tally.evals += len(values)
        return values

    def step(self) -> None:
        """One SPSA iteration (two requests: the probe pair, then the cost)."""
        self.done += 1
        self.tally.attempted += 1
        try:
            outcome = self.optimizer.run_iteration(
                self.params, lambda v: self.request([v])[0], evaluate_many=self.request
            )
        except Exception as exc:
            self.tally.fail(f"stream iteration {len(self.history)}: {type(exc).__name__}: {exc}")
            return
        self.params = outcome.params
        self.history.append(outcome.cost)


class JobClient:
    """Client B: one-shot jobs drawn from a small seeded pool, one at a time."""

    def __init__(self, host: ServiceHost, pool: List[JobSpec], order,
                 tracer: Optional[Tracer], calibrated: bool) -> None:
        self.host, self.pool, self.order, self.tracer = host, pool, order, tracer
        self.tally = Tally(calibrated=calibrated)
        self.first: Dict[int, Tuple[str, ...]] = {}
        self.done = 0  #: jobs attempted

    def submit(self, spec: JobSpec):
        """Submit, wait for ``on_done``; returns (latency s, settled record)."""
        done = threading.Event()
        stamp: List[float] = []

        def on_done(_record) -> None:
            stamp.append(time.perf_counter())
            done.set()

        start = time.perf_counter()
        outcome = self.host.call(self.host.service.submit, spec, "jobs", on_done)
        if not outcome.accepted:
            raise RuntimeError(f"rejected: {outcome.rejection.code}")
        if not done.wait(JOB_TIMEOUT_S):
            raise RuntimeError(f"job {outcome.job_id} not settled in {JOB_TIMEOUT_S}s")
        record = self.host.call(self.host.service.status, outcome.job_id)
        if record.result is None:
            raise RuntimeError(f"job {outcome.job_id} ended {record.state.value}: {record.error}")
        return stamp[0] - start, record

    def step(self) -> None:
        number = self.done
        index = int(self.order[number])
        spec = self.pool[index]
        tracer, span = self.tracer, None
        if tracer is not None:
            span = tracer.begin(layers.JOB_REQUEST, request=f"j{number}")
            tracer.bind(("spec", spec.digest), span.request, span)
        self.done += 1
        self.tally.attempted += 1
        try:
            latency, record = self.submit(spec)
        except Exception as exc:
            self.tally.fail(f"job {number}: {type(exc).__name__}: {exc}")
            self.tally.outputs.append(((), 0))
            return
        finally:
            if span is not None:
                tracer.end(span)
        self.tally.job(latency)
        self.tally.evals += 3 * spec.iterations  # SPSA probes, cached or not
        output = (tuple(float_bits(record.result.cost_history)),
                  int(record.result.report.end_to_end_ps))
        self.tally.outputs.append(output)
        if index in self.first:
            # A repeat may be served from the cache (charging less
            # simulated time) but its costs must be bit-identical.
            self.tally.check(output[0] == self.first[index],
                             f"job {number} history differs from its first run")
        else:
            self.first[index] = output[0]


class ServiceMix:
    """Streams and one-shot jobs sharing one ServiceHost's DRR queue."""

    #: fixed work of a traced phase per second of it (each phase takes
    #: half of ``--seconds``): both clients stay busy about equally long.
    traced_iterations_rate = 16.0  #: streamed SPSA iterations
    traced_jobs_rate = 36.0  #: one-shot jobs

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed % 2**64, 4])
        self.stream_spec = JobSpec(workload="vqe", n_qubits=6, optimizer="spsa", shots=500,
                                   iterations=1, seed=int(rng.integers(2**31)))
        self.pool = [
            JobSpec(workload=workload, n_qubits=n_qubits, optimizer="spsa", shots=200,
                    iterations=2, seed=int(rng.integers(2**31)))
            for workload, n_qubits in JOB_SHAPES
        ]
        self.order = rng.integers(0, len(self.pool), size=100_000)
        self.host: Optional[ServiceHost] = None
        self.session = None

    def setup(self) -> None:
        self.host = ServiceHost(ServiceConfig(workers=2, cache_entries=CACHE_ENTRIES)).start()
        self.session = self.host.open_session(self.stream_spec, tenant="stream")

    def close(self) -> None:
        if self.host is not None:
            self.host.stop()
            self.host = None

    def _run(self, tracer: Optional[Tracer], stream_done, jobs_done, calibrated=False):
        """Both clients on their own threads until each is done."""
        streamer = StreamClient(self.host, self.session, self.stream_spec, tracer, calibrated)
        jobs = JobClient(self.host, self.pool, self.order, tracer, calibrated)

        def loop(client, done) -> None:
            while not done(client):
                client.step()

        threads = [threading.Thread(target=loop, args=(streamer, stream_done)),
                   threading.Thread(target=loop, args=(jobs, jobs_done))]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally = Tally(step_s=streamer.tally.step_s, step_evals=streamer.tally.step_evals,
                      step_cal=streamer.tally.step_cal, job_s=jobs.tally.job_s,
                      job_cal=jobs.tally.job_cal, wall_s=time.perf_counter() - start)
        for part in (streamer.tally, jobs.tally):
            tally.evals += part.evals
            tally.attempted += part.attempted
            tally.failed += part.failed
            tally.problems += part.problems
        tally.outputs = [(tuple(float_bits(streamer.history)), self._stream_ps())]
        tally.outputs += jobs.tally.outputs
        return tally, streamer, jobs

    def _finish(self, tally: Tally, streamer: StreamClient, jobs: JobClient) -> Tally:
        """Untimed, untraced: parity check and the service's own counters."""
        self._parity(streamer, jobs, tally)
        cache = self.host.service.cache
        lookups = cache.hits + cache.misses
        tally.extra["runtime.cache.hit_rate"] = cache.hits / lookups if lookups else 0.0
        tally.extra["service.coalesced"] = float(
            self.host.metrics()["service"].get("service.coalesced", 0)
        )
        return tally

    def _stream_ps(self) -> int:
        return int(self.session.engine.platform.now)

    def _parity(self, streamer: StreamClient, jobs: JobClient, tally: Tally) -> None:
        """The streamed history equals a one-shot job of the same spec."""
        k = min(PREFIX_ITERATIONS, len(streamer.history))
        try:
            _latency, record = jobs.submit(replace(self.stream_spec, iterations=max(1, k)))
            ok = k > 0 and (float_bits(record.result.cost_history)
                            == float_bits(streamer.history[:k]))
        except Exception as exc:
            tally.check(False, f"parity job: {type(exc).__name__}: {exc}")
            return
        tally.check(ok, "streamed history differs from the one-shot job of the same spec")

    def measure(self, seconds: float) -> Tally:
        deadline = time.perf_counter() + seconds

        def done(_client) -> bool:
            return time.perf_counter() >= deadline

        return self._finish(*self._run(None, done, done, calibrated=True))

    def _fixed(self, iterations: int, n_jobs: int, tracer: Optional[Tracer]) -> Tally:
        """A fixed amount of work on a fresh host (its setup untimed)."""
        self.setup()
        try:
            if tracer is not None:
                layers.install(tracer)
                layers.wrap_codec(tracer)
            try:
                result = self._run(tracer, lambda c: c.done >= iterations,
                                   lambda c: c.done >= n_jobs)
            finally:
                if tracer is not None:
                    tracer.restore()
            return self._finish(*result)
        finally:
            self.close()

    def traced(self, seconds: float, tracer: Tracer) -> Tuple[Tally, Tally]:
        self.close()  # each phase gets its own host and an empty cache
        iterations = max(PREFIX_ITERATIONS, round(seconds / 2 * self.traced_iterations_rate))
        n_jobs = max(1, round(seconds / 2 * self.traced_jobs_rate))
        return (self._fixed(iterations, n_jobs, None),
                self._fixed(iterations, n_jobs, tracer))

    def reference(self) -> Dict[str, object]:
        tally = self._fixed(PREFIX_ITERATIONS, 5, None)
        (history, stream_ps), *jobs = tally.outputs
        return {
            "history": list(history),
            "end_to_end_ps": stream_ps,
            "jobs": [{"history": list(h), "end_to_end_ps": ps} for h, ps in jobs],
            "problems": tally.problems,
        }


WORKLOADS = {
    "vqe-shift": VqeShift,
    "vqe-adjoint": VqeAdjoint,
    "qaoa-paper": QaoaPaper,
    "service-mix": ServiceMix,
}
