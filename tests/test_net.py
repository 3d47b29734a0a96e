"""Tests for the shared transport (repro.net).

Two halves, mirroring the module:

* **framing** — one suite parametrized over both payload codecs that
  ride the shared frames (the cluster's typed JSON messages and the
  session stream's kind byte + packed doubles / JSON): reassembly
  across any chunking, the sequence and checksum discipline, the
  length bound on both sides, codec-level payload rejection, bit-exact
  floats, and frames pinned byte for byte;
* **server lifecycle** — both socket servers stop promptly with idle
  peers connected, leaving no thread and no file descriptor behind.
"""

import os
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import net
from repro.cluster import ClusterConfig, ClusterMaster, MasterServer
from repro.cluster import wire
from repro.service import JobSpec, SessionManager, SessionServer
from repro.service import stream

#: Doubles whose bits a codec must not disturb: signed zeros, the
#: smallest subnormal, the largest finite exponent, ugly decimals.
AWKWARD_DOUBLES = [
    0.1 + 0.2, 1e-17, 2.0 ** -1074, -0.0, 0.0, 3.141592653589793,
    1.7976931348623157e308, -1 / 3,
]


@dataclass(frozen=True)
class Codec:
    """One payload codec over the shared frames, seen by the suite."""

    name: str
    writer: Callable[[], object]
    decoder: Callable[[], object]
    encode: Callable[[object, object], bytes]   #: (writer, message) -> frame
    message: Callable[[object], object]        #: decoded frame -> message
    messages: List[object]
    carry: Callable[[List[float]], object]     #: doubles -> message
    carried: Callable[[object], List[float]]   #: decoded message -> doubles
    oversize: object                           #: a message over the bound
    bad_payloads: List[Tuple[bytes, str]]      #: (payload, error match)
    pinned: Tuple[List[object], str]           #: messages, frames as hex


CLUSTER = Codec(
    name="cluster",
    writer=wire.MessageWriter,
    decoder=wire.FrameDecoder,
    encode=lambda writer, message: writer.encode(message),
    message=lambda frame: frame,
    messages=[
        wire.hello("node-0", 2),
        wire.heartbeat("node-0"),
        wire.dispatch("job-1", {"workload": "qaoa", "seed": 3}, 1),
        wire.result("node-0", "job-1", {"digest": "d", "final_cost": 0.125}),
        wire.error("node-0", "job-2", "ValueError: bad spec"),
        wire.shutdown(),
    ],
    carry=lambda values: wire.result("n", "j", {"digest": "d", "h": values}),
    carried=lambda message: message["payload"]["h"],
    oversize={"type": "blob", "data": "x" * wire.MAX_PAYLOAD_BYTES},
    bad_payloads=[
        (b'{"no_type": 1}', "typed message"),
        (b"[1, 2]", "typed message"),
        (b"\xff{", "not JSON"),
    ],
    pinned=(
        [
            wire.hello("node-0", 2),
            wire.result("node-0", "job-1", {"digest": "d", "h": [0.1, -0.0, 5e-324]}),
        ],
        "30000000000000007e0f71807b226361706163697479223a322c226e6f64655f69"
        "64223a226e6f64652d30222c2274797065223a2268656c6c6f227d640000000100"
        "0000cb1d88f17b226a6f625f6964223a226a6f622d31222c226e6f64655f696422"
        "3a226e6f64652d30222c227061796c6f6164223a7b22646967657374223a226422"
        "2c2268223a5b302e312c2d302e302c35652d3332345d7d2c2274797065223a2272"
        "6573756c74227d",
    ),
)

SESSION = Codec(
    name="session",
    writer=stream.StreamWriter,
    decoder=stream.StreamDecoder,
    encode=lambda writer, message: writer.encode(*message),
    message=lambda frame: frame[1:],  # drop the sequence number
    messages=[
        (stream.KIND_OPEN, stream.pack_json({"spec": {"seed": 3}, "tenant": "a"})),
        (stream.KIND_EVAL, stream.pack_eval([np.zeros(4), np.ones(4)], shots=80)),
        (stream.KIND_VALUE, stream.pack_values([-1.25, 0.5])),
        (stream.KIND_ERROR, stream.pack_error("backend_unhealthy", "down")),
        (stream.KIND_CLOSE, b""),
        (stream.KIND_CLOSED, stream.pack_json({"batches": 2})),
    ],
    carry=lambda values: (stream.KIND_VALUE, stream.pack_values(values)),
    carried=lambda message: stream.unpack_values(message[1]),
    oversize=(stream.KIND_EVAL, b"x" * stream.MAX_PAYLOAD_BYTES),
    bad_payloads=[(bytes((0x7F,)), "unknown kind"), (b"", "unknown kind")],
    pinned=(
        [
            (stream.KIND_EVAL, stream.pack_eval([np.array([0.1, -0.0, 5e-324])], shots=80)),
            (stream.KIND_VALUE, stream.pack_values([-1.25])),
            (stream.KIND_CLOSE, b""),
        ],
        "25000000000000006805326f035000000001000000030000009a9999999999b93f"
        "000000000000008001000000000000000900000001000000b801d40204000000"
        "000000f4bf01000000020000000700070006",
    ),
)


@pytest.fixture(params=[CLUSTER, SESSION], ids=lambda codec: codec.name)
def codec(request) -> Codec:
    return request.param


def _stream_of(codec: Codec, messages) -> bytes:
    writer = codec.writer()
    return b"".join(codec.encode(writer, message) for message in messages)


def _feed(codec: Codec, decoder, data: bytes) -> list:
    return [codec.message(frame) for frame in decoder.feed(data)]


def _bits(values):
    # == would call -0.0 and 0.0 equal; compare the bits.
    return [struct.pack("<d", value) for value in values]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_roundtrip_chunked(codec):
    data = _stream_of(codec, codec.messages)
    decoder = codec.decoder()
    decoded = []
    # Awkward 7-byte chunks: partial headers and split payloads must
    # reassemble without loss or reorder.
    for offset in range(0, len(data), 7):
        decoded.extend(_feed(codec, decoder, data[offset:offset + 7]))
    assert decoded == codec.messages
    assert decoder.frames_accepted == len(codec.messages)


def test_roundtrip_byte_by_byte(codec):
    data = _stream_of(codec, codec.messages)
    decoder = codec.decoder()
    decoded = []
    for index in range(len(data)):  # worst-case fragmentation
        decoded.extend(_feed(codec, decoder, data[index:index + 1]))
    assert decoded == codec.messages


@pytest.mark.parametrize("codec", [CLUSTER, SESSION], ids=lambda codec: codec.name)
@given(cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=24))
@settings(max_examples=100, deadline=None)
def test_roundtrip_random_chunk_boundaries(codec, cuts):
    data = _stream_of(codec, codec.messages)
    bounds = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    decoder = codec.decoder()
    decoded = []
    for start, end in zip(bounds, bounds[1:]):
        decoded.extend(_feed(codec, decoder, data[start:end]))
    assert decoded == codec.messages


def test_frames_byte_identical_to_pinned(codec):
    messages, frames_hex = codec.pinned
    assert _stream_of(codec, messages).hex() == frames_hex


def test_sequence_gap_rejected(codec):
    writer = codec.writer()
    codec.encode(writer, codec.messages[0])  # frame 0, never delivered
    with pytest.raises(net.FrameError, match="sequence gap"):
        codec.decoder().feed(codec.encode(writer, codec.messages[1]))


def test_checksum_mismatch_rejected(codec):
    frame = bytearray(_stream_of(codec, codec.messages[:1]))
    frame[-1] ^= 0x40
    with pytest.raises(net.FrameError, match="checksum"):
        codec.decoder().feed(bytes(frame))


def test_absurd_length_prefix_rejected_before_buffering(codec):
    bound = codec.writer().max_payload
    header = net.HEADER.pack(bound + 1, 0, 0)
    with pytest.raises(net.FrameError, match="desynchronised"):
        codec.decoder().feed(header)


def test_oversize_payload_refused_at_encode(codec):
    with pytest.raises(net.FrameError, match="frame bound"):
        codec.encode(codec.writer(), codec.oversize)


def test_codec_rejects_well_framed_bad_payloads(codec):
    for payload, match in codec.bad_payloads:
        with pytest.raises(net.FrameError, match=match):
            codec.decoder().feed(net.encode_frame(0, payload))


def test_float_bits_survive(codec):
    frame = _stream_of(codec, [codec.carry(AWKWARD_DOUBLES)])
    [message] = _feed(codec, codec.decoder(), frame)
    assert _bits(codec.carried(message)) == _bits(AWKWARD_DOUBLES)


# ----------------------------------------------------------------------
# server lifecycle
# ----------------------------------------------------------------------
class _IdleEngine:
    def prepare(self, ansatz, observable) -> None:
        pass

    def evaluate_vectors(self, parameters, vectors, shots):
        return [0.0 for _ in vectors]

    def close(self) -> None:
        pass


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _session_server():
    manager = SessionManager(engine_factory=lambda spec: _IdleEngine())
    server = SessionServer(manager).start()

    def greet(index):
        host, port = server.address
        client = stream.SessionClient(host, port)
        if index % 2:  # half open a session, half never send OPEN
            client.open(JobSpec(workload="vqe", n_qubits=2, seed=index).as_dict())
        return client._sock

    return server, greet, server.stop


def _master_server():
    master = ClusterMaster(
        ClusterConfig(lease_timeout_s=10.0, dispatch_timeout_s=60.0)
    )
    server = MasterServer(master, tick_interval_s=0.02).start()

    def greet(index):
        sock = net.connect(server.host, server.port)
        if index % 2:  # half say HELLO, half never do
            sock.sendall(wire.MessageWriter().encode(wire.hello(f"node-{index}", 1)))
        return sock

    return server, greet, server.shutdown


def _server_threads(before) -> List[threading.Thread]:
    return [
        thread for thread in threading.enumerate()
        if thread not in before and thread.name.startswith(("repro-session", "repro-master"))
    ]


@pytest.mark.parametrize("make_server", [_session_server, _master_server],
                         ids=["session", "master"])
def test_stop_with_idle_clients_is_prompt_and_leak_free(make_server):
    threads_before = set(threading.enumerate())
    fds_before = _open_fds()
    server, greet, stop = make_server()
    clients = [greet(index) for index in range(8)]
    deadline = time.monotonic() + 10.0
    while len(_server_threads(threads_before)) < 9 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(_server_threads(threads_before)) >= 9  # acceptor + 8 readers

    start = time.perf_counter()
    stop()
    elapsed = time.perf_counter() - start

    leaked = _server_threads(threads_before)
    for sock in clients:
        sock.close()
    assert elapsed < 0.1, f"stop took {elapsed * 1000:.0f} ms"
    assert leaked == [], [thread.name for thread in leaked]
    assert _open_fds() <= fds_before
