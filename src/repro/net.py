"""The one transport under every socket tier: framing and server lifecycle.

Both the cluster's master↔worker link (:mod:`repro.cluster.wire`) and
the session stream (:mod:`repro.service.stream`) speak the same
self-checking frames, built on the controller's measurement-path
primitives (:mod:`repro.faults.protocol`)::

    <u32 payload length> <u32 sequence> <u32 adler32> <payload bytes>

Every frame carries a monotonically increasing per-direction
**sequence number** (a gap means a lost or replayed frame — on TCP that
signals a desynchronised or hostile peer) and an **Adler-32 checksum**
over the payload (a mismatch means corruption in flight or a framing
bug; the frame is rejected, never parsed).  A tier chooses only its
payload codec and its payload bound.

:class:`Server` owns the other half of the contract: one listener, one
accept loop and a registry of live connections.  :meth:`Server.stop`
``shutdown(2)``s the listener and every live connection — ``close()``
alone wakes neither a blocked ``accept()`` nor a blocked ``recv()`` —
then joins every thread the server started.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.faults.protocol import checksum32

#: Frame header: payload length, sequence number, Adler-32 checksum.
HEADER = struct.Struct("<III")

_SEQUENCE_MASK = 0xFFFFFFFF
_RECV_BYTES = 65536


class FrameError(ValueError):
    """A frame failed validation (checksum, sequence, length, payload)."""


def encode_frame(sequence: int, payload: bytes) -> bytes:
    """One framed payload, ready for ``sendall``."""
    return (
        HEADER.pack(len(payload), sequence & _SEQUENCE_MASK, checksum32(payload))
        + payload
    )


class FrameWriter:
    """Sender side: bounds each payload and stamps the next sequence."""

    def __init__(self, max_payload: int) -> None:
        self.max_payload = max_payload
        self._next_sequence = 0

    def encode(self, payload: bytes) -> bytes:
        if len(payload) > self.max_payload:
            raise FrameError(
                f"payload of {len(payload)} bytes exceeds the "
                f"{self.max_payload}-byte frame bound"
            )
        data = encode_frame(self._next_sequence, payload)
        self._next_sequence = (self._next_sequence + 1) & _SEQUENCE_MASK
        return data


class FrameDecoder:
    """Incremental receiver: feed bytes, collect validated ``(seq, payload)``.

    One decoder per connection per direction.  Frames must arrive in
    sequence with valid checksums; a violation raises
    :class:`FrameError` and the connection should be dropped — on a
    reliable stream there is no point NACKing, the peer is broken.
    """

    def __init__(self, max_payload: int) -> None:
        self.max_payload = max_payload
        self._buffer = bytearray()
        self._expected_sequence = 0
        self.frames_accepted = 0

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Consume bytes; return every complete, validated frame."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Tuple[int, bytes]] = []
        while len(buffer) >= HEADER.size:
            length, sequence, checksum = HEADER.unpack_from(buffer)
            if length > self.max_payload:
                # Reject before buffering what the prefix claims.
                raise FrameError(
                    f"frame claims {length} payload bytes "
                    f"(bound {self.max_payload}); stream desynchronised"
                )
            end = HEADER.size + length
            if len(buffer) < end:
                break
            payload = bytes(buffer[HEADER.size:end])
            del buffer[:end]
            if sequence != self._expected_sequence:
                raise FrameError(
                    f"sequence gap: expected {self._expected_sequence}, "
                    f"got {sequence}"
                )
            if checksum32(payload) != checksum:
                raise FrameError(f"checksum mismatch on frame {sequence}")
            self._expected_sequence = (sequence + 1) & _SEQUENCE_MASK
            self.frames_accepted += 1
            frames.append((sequence, payload))
        return frames


def iter_frames(sock: socket.socket, decoder) -> Iterator[object]:
    """Yield each decoded frame read from ``sock`` until the peer closes.

    ``decoder`` is any object whose ``feed(bytes)`` returns a list of
    decoded frames.  Socket and framing errors propagate to the caller.
    """
    while True:
        data = sock.recv(_RECV_BYTES)
        if not data:
            return
        yield from decoder.feed(data)


def connect(
    host: str, port: int, timeout_s: Optional[float] = None
) -> socket.socket:
    """Client side of a link: a connected socket with Nagle off."""
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def wake(sock: socket.socket) -> None:
    """``shutdown(2)`` ``sock``: a thread blocked on it sees EOF.

    ``close()`` alone wakes neither a blocked ``accept()`` nor a
    blocked ``recv()``.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, already closed, or reset by the peer


class Server:
    """A TCP listener that runs ``handler(conn)`` on a thread per connection.

    The handler returns when its peer is done; the server then closes
    the connection.  Socket and framing errors out of the handler mean
    a broken peer and just end that connection.  Threads are named
    ``<name>-accept`` and ``<name>-conn``.
    """

    def __init__(
        self,
        handler: Callable[[socket.socket], None],
        host: str,
        port: int,
        name: str,
    ) -> None:
        self._handler = handler
        self._name = name
        self._listener = socket.create_server((host, port), backlog=32)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._stopping = False
        #: Open connections only: a handler's exit removes its socket.
        self._conns: Set[socket.socket] = set()
        self._threads: List[threading.Thread] = []

    def start(self) -> "Server":
        self._spawn(self._accept_loop, "accept")
        return self

    def _spawn(self, target, role: str, *args) -> None:
        thread = threading.Thread(
            target=target, args=args, name=f"{self._name}-{role}", daemon=True
        )
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener shut down
            with self._lock:
                if self._stopping:
                    conn.close()
                    return
                self._conns.add(conn)
                self._spawn(self._serve, "conn", conn)

    def _serve(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._handler(conn)
        except (OSError, FrameError):
            pass  # broken or desynchronised peer: drop the connection
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def stop(self) -> None:
        """Stop accepting, wake every connection, join every thread."""
        with self._lock:
            self._stopping = True
            conns = list(self._conns)
            threads = list(self._threads)
        wake(self._listener)
        self._listener.close()
        for conn in conns:
            wake(conn)
        for thread in threads:
            thread.join()
