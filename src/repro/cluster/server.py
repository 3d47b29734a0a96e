"""Threaded socket front-end for the cluster master.

:class:`MasterServer` runs one reader per worker connection on a
:class:`repro.net.Server` (which owns the listener, the accept loop and
the stop contract) plus a ticker that drives :meth:`ClusterMaster.tick`
on a fixed cadence.  Every touch of the master state machine happens
under one lock: the machine itself stays single-threaded (and
therefore identical to the one the deterministic harness exercises),
the server is just its mailroom.

A connection error or close is reported to the master as a node loss;
lease expiry catches the cases TCP never reports (silent partition,
frozen peer).
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro import net
from repro.cluster import wire
from repro.cluster.master import ClusterMaster

DEFAULT_TICK_INTERVAL_S = 0.1


class MasterServer:
    """Serve one :class:`ClusterMaster` over TCP."""

    def __init__(
        self,
        master: ClusterMaster,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval_s: float = DEFAULT_TICK_INTERVAL_S,
    ) -> None:
        self.master = master
        self.tick_interval_s = tick_interval_s
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._server = net.Server(self._reader, host, port, "repro-master")
        self.host, self.port = self._server.address
        #: node_id -> (socket, per-connection sequence stamper)
        self._links: Dict[str, Tuple[socket.socket, wire.MessageWriter]] = {}
        self._ticker = threading.Thread(
            target=self._tick_loop, name="repro-master-tick", daemon=True
        )

    # ------------------------------------------------------------------
    def start(self) -> "MasterServer":
        self._server.start()
        self._ticker.start()
        return self

    def _reader(self, conn: socket.socket) -> None:
        node_id: Optional[str] = None
        try:
            for message in net.iter_frames(conn, wire.FrameDecoder()):
                node_id = self._handle(conn, message, node_id)
        finally:
            if node_id is not None:
                with self._lock:
                    # Only the reader that owns the stored socket may
                    # retire the link: a reconnect replaces the link, and
                    # the stale reader's exit must not declare the fresh,
                    # healthy connection lost.
                    link = self._links.get(node_id)
                    if link is not None and link[0] is conn:
                        del self._links[node_id]
                        self.master.node_lost(node_id)

    def _handle(
        self,
        conn: socket.socket,
        message: Dict[str, object],
        node_id: Optional[str],
    ) -> Optional[str]:
        with self._lock:
            # The wire layer only guarantees a well-framed dict with a
            # "type" key; fields are still untrusted.  A message with
            # missing or wrongly-typed fields (or a hello the master
            # refuses) is counted and dropped — it must not kill the
            # reader thread and take the whole connection with it.
            try:
                kind = message["type"]
                if kind == wire.MSG_HELLO:
                    hello_id = str(message["node_id"])
                    self.master.register_node(hello_id, int(message["capacity"]))
                    stale = self._links.get(hello_id)
                    if stale is not None and stale[0] is not conn:
                        # Reconnect with the same node id: retire the old
                        # socket so its reader exits (the ownership check
                        # above keeps it from touching the new link).
                        net.wake(stale[0])
                    self._links[hello_id] = (conn, wire.MessageWriter())
                    node_id = hello_id
                elif kind == wire.MSG_HEARTBEAT:
                    self.master.heartbeat(str(message["node_id"]))
                elif kind == wire.MSG_RESULT:
                    self.master.handle_result(
                        str(message["node_id"]),
                        str(message["job_id"]),
                        dict(message["payload"]),
                    )
                elif kind == wire.MSG_ERROR:
                    self.master.handle_error(
                        str(message["node_id"]),
                        str(message["job_id"]),
                        str(message.get("error", "worker error")),
                    )
            except (KeyError, TypeError, ValueError):
                self.master.stats.counter("malformed_messages").increment()
        return node_id

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.tick_interval_s):
            self.tick_once()

    def tick_once(self) -> None:
        """One master tick plus delivery of its dispatches."""
        with self._lock:
            outbox = self.master.tick()
            for target_node, message in outbox:
                link = self._links.get(target_node)
                if link is None:
                    # Connection vanished between tick and delivery:
                    # treat as a node loss so the job is redispatched.
                    self.master.node_lost(target_node)
                    continue
                sock, writer = link
                try:
                    sock.sendall(writer.encode(message))
                except OSError:
                    self._links.pop(target_node, None)
                    self.master.node_lost(target_node)

    # ------------------------------------------------------------------
    def wait_for_nodes(self, count: int, timeout_s: float = 30.0) -> bool:
        """Block until ``count`` workers said hello (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                alive = sum(1 for h in self.master.nodes.values() if h.alive)
            if alive >= count:
                return True
            time.sleep(0.02)
        return False

    def submit_dict(self, payload, tenant: str = "default"):
        with self._lock:
            return self.master.submit_dict(payload, tenant)

    def submit(self, spec, tenant: str = "default"):
        with self._lock:
            return self.master.submit(spec, tenant)

    def drain(self, timeout_s: float = 300.0) -> bool:
        """Block until every accepted job settles (or timeout)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                done = self.master.all_settled
            if done:
                return True
            time.sleep(0.02)
        return False

    def metrics_snapshot(self):
        with self._lock:
            return self.master.metrics_snapshot()

    def shutdown(self) -> None:
        """Tell workers to drain, then stop serving.

        The links are dropped before the connections are woken, so
        the exiting readers do not declare their nodes lost.
        """
        self._stop.set()
        if self._ticker.is_alive():
            self._ticker.join()
        with self._lock:
            for sock, writer in self._links.values():
                try:
                    sock.sendall(writer.encode(wire.shutdown()))
                except OSError:
                    pass
            self._links.clear()
        self._server.stop()
        self.master.close()
