"""Binary streaming protocol for parametric-compilation sessions.

The session tier's hot path: after ``open_session`` registered a
circuit structure, every request is *just a parameter vector* — no
JobSpec, no dict validation, no JSON.  Framing (sequence numbers,
Adler-32 checksums, the length bound) is :mod:`repro.net`'s, shared
with the cluster link; this module fixes the payload, whose first byte
selects the message kind.  The two
request/response kinds that carry floats (``EVAL`` / ``VALUE``) pack
them as little-endian IEEE-754 doubles
(:func:`repro.faults.protocol.pack_doubles`), so streamed vectors and
returned energies are bit-exact by construction.  Control kinds
(``OPEN`` / ``OPENED`` / ``ERROR`` / ``CLOSE`` / ``CLOSED``) happen
once per session or on failures, where canonical JSON
(:func:`~repro.faults.protocol.dumps_wire`) wins on debuggability.

Payload layouts after the kind byte::

    OPEN    canonical JSON {"spec": <job-spec dict>, "tenant": str}
    OPENED  canonical JSON {"session_id", "n_params", "structure_hash",
                            "backend_id", "lease_s"}
    EVAL    <u32 shots> <u32 n_vectors> <u32 n_params> + f64[v*p]
            (shots == 0 means "the session's default")
    VALUE   f64[n_vectors] energies, request order
    GRAD    EVAL-shaped body (shots == 0: the adjoint pass is
            analytic; any other value is rejected by the server)
    GRADS   <u32 n_vectors> <u32 n_params> + f64[v*(1+p)] rows of
            (energy, gradient...), request order
    ERROR   canonical JSON {"code": str, "message": str}
    CLOSE   empty
    CLOSED  canonical JSON session stats
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import net
from repro.faults.protocol import dumps_wire, loads_wire, pack_doubles

#: A parameter vector is a few hundred doubles at most; anything
#: claiming more than this is a desynchronised stream.
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024

_EVAL_HEADER = struct.Struct("<3I")

# -- message kinds (payload byte 0) -------------------------------------
KIND_OPEN = 0x01    #: client -> server: register structure, open session
KIND_OPENED = 0x02  #: server -> client: session handle
KIND_EVAL = 0x03    #: client -> server: parameter vector batch
KIND_VALUE = 0x04   #: server -> client: energies for one EVAL
KIND_ERROR = 0x05   #: server -> client: structured failure
KIND_CLOSE = 0x06   #: client -> server: release the session
KIND_CLOSED = 0x07  #: server -> client: final session stats
KIND_GRAD = 0x08    #: client -> server: adjoint-gradient vector batch
KIND_GRADS = 0x09   #: server -> client: energies + gradients for one GRAD

_KNOWN_KINDS = frozenset(
    (KIND_OPEN, KIND_OPENED, KIND_EVAL, KIND_VALUE, KIND_ERROR,
     KIND_CLOSE, KIND_CLOSED, KIND_GRAD, KIND_GRADS)
)

_GRADS_HEADER = struct.Struct("<II")


#: A frame or payload failed validation (checksum, sequence, length, kind).
StreamError = net.FrameError


class StreamRemoteError(RuntimeError):
    """The server answered a request with a structured ERROR frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code


# -- payload codecs ---------------------------------------------------
def pack_eval(vectors: Sequence[np.ndarray], shots: int = 0) -> bytes:
    """EVAL body: shot count + vector batch as packed doubles."""
    if not len(vectors):
        raise StreamError("an EVAL frame needs at least one vector")
    first = np.asarray(vectors[0], dtype=np.float64)
    n_params = int(first.size)
    flat: List[float] = []
    for vector in vectors:
        array = np.asarray(vector, dtype=np.float64)
        if array.size != n_params:
            raise StreamError(
                f"ragged vector batch: {array.size} params after {n_params}"
            )
        flat.extend(float(v) for v in array)
    return (
        _EVAL_HEADER.pack(int(shots), len(vectors), n_params)
        + pack_doubles(flat)
    )


def unpack_eval(body: bytes) -> Tuple[np.ndarray, int]:
    """Inverse of :func:`pack_eval` → ``(vectors (v, p), shots)``."""
    if len(body) < _EVAL_HEADER.size:
        raise StreamError("EVAL body shorter than its header")
    shots, n_vectors, n_params = _EVAL_HEADER.unpack_from(body)
    expected = _EVAL_HEADER.size + 8 * n_vectors * n_params
    if n_vectors < 1 or len(body) != expected:
        raise StreamError(
            f"EVAL body of {len(body)} bytes does not hold "
            f"{n_vectors}x{n_params} doubles"
        )
    flat = np.frombuffer(body, dtype="<f8", offset=_EVAL_HEADER.size)
    return flat.reshape(n_vectors, n_params).copy(), int(shots)


def pack_values(values: Sequence[float]) -> bytes:
    """VALUE body: energies as packed doubles (bit-exact)."""
    return pack_doubles([float(v) for v in values])


def unpack_values(body: bytes) -> List[float]:
    if len(body) % 8:
        raise StreamError(f"VALUE body of {len(body)} bytes is not doubles")
    return [float(v) for v in np.frombuffer(body, dtype="<f8")]


def pack_grads(
    energies: Sequence[float], grads: Sequence[np.ndarray]
) -> bytes:
    """GRADS body: per-vector rows of ``(energy, gradient...)``."""
    if len(energies) != len(grads):
        raise StreamError(
            f"got {len(energies)} energies for {len(grads)} gradients"
        )
    if not len(grads):
        raise StreamError("a GRADS frame needs at least one row")
    n_params = int(np.asarray(grads[0]).size)
    flat: List[float] = []
    for energy, grad in zip(energies, grads):
        array = np.asarray(grad, dtype=np.float64)
        if array.size != n_params:
            raise StreamError(
                f"ragged gradient batch: {array.size} params after {n_params}"
            )
        flat.append(float(energy))
        flat.extend(float(v) for v in array)
    return _GRADS_HEADER.pack(len(grads), n_params) + pack_doubles(flat)


def unpack_grads(body: bytes) -> Tuple[List[float], List[np.ndarray]]:
    """Inverse of :func:`pack_grads` → ``(energies, gradients)``."""
    if len(body) < _GRADS_HEADER.size:
        raise StreamError("GRADS body shorter than its header")
    n_vectors, n_params = _GRADS_HEADER.unpack_from(body)
    expected = _GRADS_HEADER.size + 8 * n_vectors * (1 + n_params)
    if n_vectors < 1 or len(body) != expected:
        raise StreamError(
            f"GRADS body of {len(body)} bytes does not hold "
            f"{n_vectors}x(1+{n_params}) doubles"
        )
    rows = np.frombuffer(body, dtype="<f8", offset=_GRADS_HEADER.size)
    rows = rows.reshape(n_vectors, 1 + n_params)
    energies = [float(value) for value in rows[:, 0]]
    grads = [row.copy() for row in rows[:, 1:]]
    return energies, grads


def pack_json(obj: Dict[str, object]) -> bytes:
    return dumps_wire(obj).encode()


def unpack_json(body: bytes) -> Dict[str, object]:
    try:
        obj = loads_wire(body.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        raise StreamError(f"control payload is not canonical JSON: {exc}")
    if not isinstance(obj, dict):
        raise StreamError("control payload is not a JSON object")
    return obj


def pack_error(code: str, message: str) -> bytes:
    return pack_json({"code": code, "message": message})


def unpack_error(body: bytes) -> Tuple[str, str]:
    obj = unpack_json(body)
    return str(obj.get("code", "error")), str(obj.get("message", ""))


# -- framing ------------------------------------------------------------
class StreamDecoder(net.FrameDecoder):
    """Receiver side: validated frames → ``(seq, kind, body)``."""

    def __init__(self) -> None:
        super().__init__(MAX_PAYLOAD_BYTES)

    def feed(self, data: bytes) -> List[Tuple[int, int, bytes]]:
        frames: List[Tuple[int, int, bytes]] = []
        for sequence, payload in super().feed(data):
            if not payload or payload[0] not in _KNOWN_KINDS:
                raise StreamError(
                    f"frame {sequence} has unknown kind "
                    f"{payload[0] if payload else 'none'}"
                )
            frames.append((sequence, payload[0], payload[1:]))
        return frames


class StreamWriter(net.FrameWriter):
    """Sender side: frames ``kind + body`` with the next sequence."""

    def __init__(self) -> None:
        super().__init__(MAX_PAYLOAD_BYTES)

    def encode(self, kind: int, body: bytes = b"") -> bytes:
        return super().encode(bytes((kind,)) + body)


# -- client -------------------------------------------------------------
class SessionClient:
    """Blocking socket client for one streamed session.

    Protocol per connection: one OPEN, any number of EVALs (each
    answered by VALUE or ERROR in order), one CLOSE.  ERROR answers
    raise :class:`StreamRemoteError` with the server's structured code;
    the session itself stays usable unless the code says otherwise.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self._sock = net.connect(host, port, timeout_s)
        self._writer = StreamWriter()
        self._frames = net.iter_frames(self._sock, StreamDecoder())
        self.session: Optional[Dict[str, object]] = None

    def _exchange(self, kind: int, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request; block for the reply's ``(kind, body)``."""
        self._sock.sendall(self._writer.encode(kind, body))
        frame = next(self._frames, None)
        if frame is None:
            raise StreamError("server closed the stream mid-request")
        return frame[1], frame[2]

    def _request(self, kind: int, body: bytes, expected: int, name: str) -> bytes:
        """One exchange whose reply must be ``expected`` (or ERROR)."""
        reply_kind, reply = self._exchange(kind, body)
        if reply_kind == KIND_ERROR:
            raise StreamRemoteError(*unpack_error(reply))
        if reply_kind != expected:
            raise StreamError(f"expected {name}, got kind {reply_kind}")
        return reply

    def open(
        self, spec_dict: Dict[str, object], tenant: str = "default"
    ) -> Dict[str, object]:
        body = pack_json({"spec": spec_dict, "tenant": tenant})
        self.session = unpack_json(
            self._request(KIND_OPEN, body, KIND_OPENED, "OPENED")
        )
        return self.session

    def evaluate(
        self, vectors: Sequence[np.ndarray], shots: int = 0
    ) -> List[float]:
        """Stream one vector batch; block for its energies."""
        values = unpack_values(
            self._request(KIND_EVAL, pack_eval(vectors, shots), KIND_VALUE, "VALUE")
        )
        if len(values) != len(vectors):
            raise StreamError(
                f"server returned {len(values)} energies for "
                f"{len(vectors)} vectors"
            )
        return values

    def gradients(
        self, vectors: Sequence[np.ndarray], shots: int = 0
    ) -> Tuple[List[float], List[np.ndarray]]:
        """Stream one adjoint-gradient batch; block for its rows.

        Returns ``(energies, gradients)`` in request order — each
        energy is the analytic forward-pass value at its vector.  A
        session whose workload has no adjoint path answers with a
        structured ``adjoint_unsupported`` ERROR; the session stays
        usable (fall back to :meth:`evaluate` probes).
        """
        energies, grads = unpack_grads(
            self._request(KIND_GRAD, pack_eval(vectors, shots), KIND_GRADS, "GRADS")
        )
        if len(energies) != len(vectors):
            raise StreamError(
                f"server returned {len(energies)} gradient rows for "
                f"{len(vectors)} vectors"
            )
        return energies, grads

    def close(self) -> Optional[Dict[str, object]]:
        """Release the session; returns the server's final stats."""
        stats: Optional[Dict[str, object]] = None
        try:
            kind, reply = self._exchange(KIND_CLOSE)
            if kind == KIND_CLOSED:
                stats = unpack_json(reply)
        except (OSError, StreamError):
            pass
        self._sock.close()
        return stats

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
