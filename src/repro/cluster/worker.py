"""Worker node: an evaluation engine behind the cluster wire protocol.

:class:`WorkerNode` is the transport-free core — a node id, a warm
per-node :class:`~repro.runtime.cache.EvalCache` (the payoff of the
master's digest-affine routing), and :meth:`execute`, which turns a
dispatch payload into a result payload via
:func:`repro.cluster.executor.execute_spec`.

:func:`run_worker` wraps that core in a socket client: it says hello,
renews its lease from a background heartbeat thread, and serves
dispatches from a bounded thread pool (``capacity`` concurrent jobs —
matching the capacity it advertised, so the master never overcommits
it).  With ``engine_workers > 1`` each job's engine additionally runs
behind its own :class:`~repro.runtime.workers.SharedMemoryPool` for
intra-node parallelism.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro import net
from repro.cluster import wire
from repro.runtime.cache import EvalCache
from repro.service.jobs import JobSpec
from repro.service.platforms import build_engine
from repro.service.sessions import SessionManager
from repro.cluster.executor import execute_spec
from repro.sim.stats import StatGroup

DEFAULT_HEARTBEAT_INTERVAL_S = 0.5


class WorkerNode:
    """Executes dispatched specs with a node-local result cache."""

    def __init__(
        self,
        node_id: str,
        *,
        core: str = "boom-large",
        timing_only: bool = False,
        cache_entries: int = 4096,
        engine_workers: int = 1,
    ) -> None:
        if engine_workers < 1:
            raise ValueError(f"engine_workers must be >= 1, got {engine_workers}")
        self.node_id = node_id
        self.core = core
        self.timing_only = timing_only
        self.engine_workers = engine_workers
        self.cache: Optional[EvalCache] = (
            EvalCache(cache_entries) if cache_entries > 0 else None
        )
        self.stats = StatGroup(f"worker.{node_id}")
        self.completions = 0
        # Streamed sessions pinned to this node by the master's
        # rendezvous routing.  The manager shares the node's eval
        # cache and engine construction, so a streamed evaluation and
        # a dispatched one-shot of the same content hit the same
        # entries and derive the same sampler seeds (bit-identical).
        self.sessions = SessionManager(
            engine_factory=self._session_engine
        )

    def _session_engine(self, spec: JobSpec):
        return build_engine(
            spec,
            core=self.core,
            timing_only=self.timing_only,
            cache=self.cache,
            engine_workers=self.engine_workers,
        )

    def open_session(
        self, spec_payload: Dict[str, object], tenant: str = "default"
    ) -> Dict[str, object]:
        """Open a pinned session from an untrusted spec payload.

        Raises ``ValueError`` on malformed payloads and
        :class:`~repro.service.sessions.SessionError` on admission or
        setup failure — both reported back over the wire as structured
        errors, mirroring :meth:`execute`.
        """
        spec = JobSpec.from_dict(spec_payload)
        session = self.sessions.open(spec, tenant=tenant)
        self.stats.counter("sessions_opened").increment()
        return session.handle_dict(self.sessions.lease_timeout_s)

    def stream_session(self, session_id: str, vectors, shots: int = 0):
        """One streamed batch against a session pinned on this node."""
        values = self.sessions.evaluate(session_id, vectors, shots)
        self.stats.counter("session_batches").increment()
        return values

    def close_session(self, session_id: str) -> Dict[str, object]:
        stats = self.sessions.close(session_id)
        self.stats.counter("sessions_closed").increment()
        return stats

    def execute(self, spec_payload: Dict[str, object]) -> Dict[str, object]:
        """Run one dispatched spec; raises ``ValueError`` on malformed
        payloads (reported back to the master as a job error)."""
        spec = JobSpec.from_dict(spec_payload)
        payload = execute_spec(
            spec,
            core=self.core,
            timing_only=self.timing_only,
            cache=self.cache,
            engine_workers=self.engine_workers,
        )
        self.completions += 1
        self.stats.counter("executed").increment()
        return payload


def run_worker(
    host: str,
    port: int,
    node_id: str,
    *,
    capacity: int = 1,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    core: str = "boom-large",
    timing_only: bool = False,
    cache_entries: int = 4096,
    engine_workers: int = 1,
) -> int:
    """Connect to a master and serve dispatches until shutdown.

    Returns the number of jobs executed (for the CLI exit report).
    The heartbeat thread renews the lease even while every execution
    slot is busy — a *loaded* node is not a *lost* node; only a dead or
    partitioned one misses its lease.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    node = WorkerNode(
        node_id,
        core=core,
        timing_only=timing_only,
        cache_entries=cache_entries,
        engine_workers=engine_workers,
    )
    writer = wire.MessageWriter()
    send_lock = threading.Lock()
    stop = threading.Event()
    sock = net.connect(host, port)

    def send(message: Dict[str, object]) -> None:
        with send_lock:
            sock.sendall(writer.encode(message))

    def heartbeat_loop() -> None:
        while not stop.wait(heartbeat_interval_s):
            try:
                send(wire.heartbeat(node_id))
            except OSError:
                return

    def serve_one(message: Dict[str, object]) -> None:
        job_id = str(message.get("job_id", ""))
        try:
            payload = node.execute(dict(message.get("spec", {})))
        except Exception as exc:  # any failure is the master's signal
            try:
                send(wire.error(node_id, job_id, f"{type(exc).__name__}: {exc}"))
            except OSError:
                pass
            return
        try:
            send(wire.result(node_id, job_id, payload))
        except OSError:
            pass

    pool = ThreadPoolExecutor(
        max_workers=capacity, thread_name_prefix=f"repro-{node_id}"
    )
    heartbeats = threading.Thread(target=heartbeat_loop, daemon=True)
    try:
        send(wire.hello(node_id, capacity))
        heartbeats.start()
        try:
            for message in net.iter_frames(sock, wire.FrameDecoder()):
                if message["type"] == wire.MSG_DISPATCH:
                    pool.submit(serve_one, message)
                elif message["type"] == wire.MSG_SHUTDOWN:
                    break
        except (OSError, wire.WireError):
            pass  # broken stream: the master's lease catches the loss
    finally:
        stop.set()
        pool.shutdown(wait=True)
        try:
            sock.close()
        except OSError:
            pass
    return node.completions
