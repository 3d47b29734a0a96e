"""Typed JSON messages for the master↔worker link.

Framing — sequence numbers, Adler-32 checksums, the length bound — is
:mod:`repro.net`'s; this module only fixes the payload: UTF-8 JSON
objects with a ``type`` field.  Small enough that JSON wins on
debuggability, and floats round-trip exactly through Python's
shortest-repr JSON encoding, which keeps cost histories bit-identical
across the wire.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro import net
from repro.faults.protocol import dumps_wire

#: Upper bound on a single payload.  A length prefix beyond this is a
#: desynchronised stream (or garbage), not a real message — reject it
#: before trying to allocate the buffer it claims to need.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

# -- message types ------------------------------------------------------
MSG_HELLO = "hello"          #: worker -> master: node_id, capacity
MSG_HEARTBEAT = "heartbeat"  #: worker -> master: lease renewal
MSG_DISPATCH = "dispatch"    #: master -> worker: job_id, spec, attempt
MSG_RESULT = "result"        #: worker -> master: job_id, result payload
MSG_ERROR = "error"          #: worker -> master: job_id, error string
MSG_SHUTDOWN = "shutdown"    #: master -> worker: drain and exit

#: A frame or message failed validation (checksum, sequence, length, JSON).
WireError = net.FrameError


class MessageWriter(net.FrameWriter):
    """Sender side: frames JSON messages with the next sequence.

    Sorted keys make frames byte-deterministic; floats go through the
    shared :func:`repro.faults.protocol.dumps_wire` encoder, so doubles
    in result payloads (cost histories, final params) survive
    bit-exactly.
    """

    def __init__(self) -> None:
        super().__init__(MAX_PAYLOAD_BYTES)

    def encode(self, message: Dict[str, object]) -> bytes:
        return super().encode(dumps_wire(message).encode())


class FrameDecoder(net.FrameDecoder):
    """Receiver side: validated frames → typed message dicts."""

    def __init__(self) -> None:
        super().__init__(MAX_PAYLOAD_BYTES)

    def feed(self, data: bytes) -> List[Dict[str, object]]:
        messages: List[Dict[str, object]] = []
        for sequence, payload in super().feed(data):
            try:
                message = json.loads(payload.decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WireError(f"frame {sequence} payload is not JSON: {exc}")
            if not isinstance(message, dict) or "type" not in message:
                raise WireError(
                    f"frame {sequence} payload is not a typed message object"
                )
            messages.append(message)
        return messages


# -- message constructors ----------------------------------------------
def hello(node_id: str, capacity: int) -> Dict[str, object]:
    return {"type": MSG_HELLO, "node_id": node_id, "capacity": capacity}


def heartbeat(node_id: str) -> Dict[str, object]:
    return {"type": MSG_HEARTBEAT, "node_id": node_id}


def dispatch(
    job_id: str, spec_dict: Dict[str, object], attempt: int
) -> Dict[str, object]:
    return {
        "type": MSG_DISPATCH,
        "job_id": job_id,
        "spec": spec_dict,
        "attempt": attempt,
    }


def result(
    node_id: str, job_id: str, payload: Dict[str, object]
) -> Dict[str, object]:
    return {
        "type": MSG_RESULT,
        "node_id": node_id,
        "job_id": job_id,
        "payload": payload,
    }


def error(node_id: str, job_id: str, message: str) -> Dict[str, object]:
    return {
        "type": MSG_ERROR,
        "node_id": node_id,
        "job_id": job_id,
        "error": message,
    }


def shutdown() -> Dict[str, object]:
    return {"type": MSG_SHUTDOWN}
