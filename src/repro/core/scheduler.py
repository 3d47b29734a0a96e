"""Quantum-host scheduling (paper §6.3, Algorithm 1).

Measurement results must travel from the controller's ``.measure``
segment to host memory.  Two transmission policies are modelled:

* **immediate** — a TileLink PUT after every shot.  With 64 qubits a
  shot produces 64 bits but the bus moves 256 bits/cycle, so this
  wastes 4x the bus transactions (the paper's motivating example);
* **batched** (Algorithm 1) — accumulate ``K = floor(B / N)`` shots
  per PUT, filling the bus width, with a tail flush after the last
  shot.

Algorithm 1's loop makes every plan an arithmetic progression, so
:func:`plan_transmissions` builds a batch only when indexed and
:func:`compute_run_timeline` places the PUTs in closed form.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator, List, Optional, Sequence, Tuple

BUS_WIDTH_BITS = 256


@dataclass(frozen=True)
class TransmissionBatch:
    """One PUT: which shots it carries and where it lands."""

    first_shot: int       #: index of the first shot in the batch
    n_shots: int
    host_addr: int        #: destination host address
    n_bytes: int          #: payload size


def batch_interval(n_qubits: int, bus_width_bits: int = BUS_WIDTH_BITS) -> int:
    """Algorithm 1 line 1: ``K = floor(B / N)`` (at least one shot)."""
    if n_qubits <= 0:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    return max(1, bus_width_bits // n_qubits)


def shot_record_bytes(n_qubits: int) -> int:
    """Bytes per shot record: ``ceil(N / 8)`` (Algorithm 1 line 12)."""
    return -(-n_qubits // 8)


class TransmissionPlan(SequenceABC):
    """The PUTs covering ``shots`` shots, ``interval`` shots per PUT.

    Every PUT but the last (the tail flush of lines 14-16) is full, and
    the PUT starting at shot *f* lands ``f * record`` bytes past
    ``host_addr`` (line 12: ``addr += ceil(N/8) * K``).
    """

    def __init__(self, shots: int, host_addr: int, interval: int, record: int) -> None:
        self.shots = shots
        self.host_addr = host_addr
        self.interval = interval
        self.record = record
        #: address step between PUTs, and a full PUT's payload size
        self.stride = record * interval
        self._firsts = range(0, shots, interval)

    def __len__(self) -> int:
        return len(self._firsts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._batch(first) for first in self._firsts[index]]
        return self._batch(self._firsts[index])

    def _batch(self, first: int) -> TransmissionBatch:
        count = min(self.interval, self.shots - first)
        return TransmissionBatch(
            first, count, self.host_addr + first * self.record, self.record * count
        )

    def ranges(self) -> Iterator[Tuple[int, int]]:
        """``(host_addr, n_bytes)`` of every PUT, without building batches."""
        tail = self._batch(self._firsts[-1])
        for addr in range(self.host_addr, tail.host_addr, self.stride):
            yield addr, self.stride
        yield tail.host_addr, tail.n_bytes


def plan_transmissions(
    n_qubits: int,
    shots: int,
    host_addr: int,
    batched: bool,
    bus_width_bits: int = BUS_WIDTH_BITS,
) -> TransmissionPlan:
    """Algorithm 1 (or the immediate policy when ``batched=False``)."""
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    interval = batch_interval(n_qubits, bus_width_bits) if batched else 1
    return TransmissionPlan(shots, host_addr, interval, shot_record_bytes(n_qubits))


@dataclass(frozen=True)
class RunTimeline:
    """Timing of one ``q_run``: shots plus overlapped transmissions.

    PUT issue times are arithmetic pieces ``(count, first_ps, step_ps)``
    in PUT order (a fault-free run has two: the uniform run and the
    tail); each PUT responds ``put_response_latency_ps`` after it issues.
    """

    start_ps: int
    quantum_end_ps: int        #: last shot finished on the chip
    put_response_latency_ps: int
    issue_pieces: Tuple[Tuple[int, int, int], ...]

    @property
    def last_put_issue_ps(self) -> int:
        count, first, step = self.issue_pieces[-1]
        return first + (count - 1) * step

    @property
    def last_put_response_ps(self) -> int:
        return self.last_put_issue_ps + self.put_response_latency_ps

    def iter_put_issues(self) -> Iterator[int]:
        for count, first, step in self.issue_pieces:
            yield from range(first, first + count * step, step) if step else repeat(first, count)

    @cached_property
    def put_issue_times(self) -> Tuple[int, ...]:
        return tuple(self.iter_put_issues())

    @cached_property
    def put_response_times(self) -> Tuple[int, ...]:
        return tuple(t + self.put_response_latency_ps for t in self.iter_put_issues())

    @property
    def quantum_duration_ps(self) -> int:
        return self.quantum_end_ps - self.start_ps

    @property
    def comm_tail_ps(self) -> int:
        """Transmission time not hidden behind quantum execution."""
        return max(0, self.last_put_response_ps - self.quantum_end_ps)


def compute_run_timeline(
    plan: TransmissionPlan,
    start_ps: int,
    shot_duration_ps: int,
    put_issue_overhead_ps: int,
    put_response_latency_ps: int,
    attempts_per_batch: Optional[Sequence[int]] = None,
    retry_penalty_ps: int = 0,
) -> RunTimeline:
    """Overlap shots with PUTs (Fig. 9b timing).

    Shot *i* completes at ``start + (i+1) * shot_duration``.  A batch's
    PUT is issued once its last shot completes (serialised with earlier
    PUTs on the controller's output port) and responds after the bus +
    L2 latency.  Quantum execution is never stalled by transmissions —
    the .measure segment double-buffers.

    With ``s = K * shot_duration`` and ``o`` the issue overhead, PUT *i*
    of the uniform run issues at ``start + s + o + i * max(s, o)`` and
    the tail at ``max(last shot done, previous issue) + o``.

    ``attempts_per_batch`` models the end-to-end retransmit protocol of
    the fault layer: batch *i* needs ``attempts_per_batch[i]`` PUT
    attempts (all >= 1; 1 means fault-free), and every failed attempt
    occupies the controller's output port for ``retry_penalty_ps``
    (NACK detection + re-send) before the successful one issues.  Each
    retried batch is placed on its own and the fault-free stretches
    between them stay closed form.  The default (``None``) is
    bit-identical to the fault-free timeline.
    """
    if not plan:
        raise ValueError("no transmission batches")
    if shot_duration_ps <= 0:
        raise ValueError("shot duration must be positive")
    n = len(plan)
    retries = {}
    if attempts_per_batch is not None:
        if len(attempts_per_batch) != n:
            raise ValueError(
                f"attempts_per_batch has {len(attempts_per_batch)} entries "
                f"for {n} batches"
            )
        if any(a < 1 for a in attempts_per_batch):
            raise ValueError("every batch needs at least one PUT attempt")
        retries = {i: a for i, a in enumerate(attempts_per_batch) if a > 1}
    if retry_penalty_ps < 0:
        raise ValueError(f"retry_penalty_ps must be >= 0, got {retry_penalty_ps}")
    batch_ps = plan.interval * shot_duration_ps
    overhead, step = put_issue_overhead_ps, max(batch_ps, put_issue_overhead_ps)
    quantum_end = start_ps + plan.shots * shot_duration_ps
    pieces: List[Tuple[int, int, int]] = []
    placed, port_free = -1, start_ps  # last PUT placed and its issue time
    for index in sorted({*retries, n - 1}):
        count = index - placed - 1
        if count > 0:
            # Fault-free full PUT placed+1+t issues at max(port_free +
            # (t+1)*o, first + t*step): a backlog on the port drains by
            # step - o per PUT, then the issues follow the shots.
            first = start_ps + (placed + 2) * batch_ps + overhead
            lead = port_free + overhead - first
            drained = (
                0 if lead < 0 else count if step == overhead
                else min(count, lead // (step - overhead) + 1)
            )
            if drained:
                pieces.append((drained, port_free + overhead, overhead))
            if drained < count:
                pieces.append((count - drained, first + drained * step, step))
            port_free = max(port_free + count * overhead, first + (count - 1) * step)
        shot_done = quantum_end if index == n - 1 else start_ps + (index + 1) * batch_ps
        port_free = max(shot_done, port_free) + overhead
        port_free += (retries.get(index, 1) - 1) * retry_penalty_ps
        pieces.append((1, port_free, 0))
        placed = index
    return RunTimeline(start_ps, quantum_end, put_response_latency_ps, tuple(pieces))
