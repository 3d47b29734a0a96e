"""Per-PUT reference models of the q_run timing layer.

These are the straightforward loops the closed-form code in
``repro.core.scheduler``, ``repro.core.barrier`` and
``QtenonSystem._overlapped_host_done`` replaces: one batch object, one
timeline step and one barrier entry per PUT.  Tests compare the two to
the picosecond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.scheduler import (
    BUS_WIDTH_BITS,
    TransmissionBatch,
    batch_interval,
    shot_record_bytes,
)
from repro.sim.clock import HOST_CLOCK
from repro.sim.kernel import Simulator


def plan_transmissions(
    n_qubits: int,
    shots: int,
    host_addr: int,
    batched: bool,
    bus_width_bits: int = BUS_WIDTH_BITS,
) -> List[TransmissionBatch]:
    """Algorithm 1's loop, one batch per iteration."""
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    record = shot_record_bytes(n_qubits)
    interval = batch_interval(n_qubits, bus_width_bits) if batched else 1
    batches: List[TransmissionBatch] = []
    addr = host_addr
    first = 0
    while first < shots:
        count = min(interval, shots - first)
        batches.append(TransmissionBatch(first, count, addr, record * count))
        addr += record * interval  # line 12: addr += ceil(N/8) * K
        first += count
    return batches


@dataclass(frozen=True)
class Timeline:
    start_ps: int
    quantum_end_ps: int
    put_issue_times: Tuple[int, ...]
    put_response_times: Tuple[int, ...]


def compute_run_timeline(
    batches: Sequence[TransmissionBatch],
    start_ps: int,
    shot_duration_ps: int,
    put_issue_overhead_ps: int,
    put_response_latency_ps: int,
    attempts_per_batch: Optional[Sequence[int]] = None,
    retry_penalty_ps: int = 0,
) -> Timeline:
    """The Fig. 9b overlap stepped one PUT at a time."""
    issue_times: List[int] = []
    port_free = start_ps
    quantum_end = start_ps
    for index, batch in enumerate(batches):
        shot_done = start_ps + (batch.first_shot + batch.n_shots) * shot_duration_ps
        quantum_end = max(quantum_end, shot_done)
        attempts = 1 if attempts_per_batch is None else attempts_per_batch[index]
        issue = max(shot_done, port_free) + put_issue_overhead_ps
        issue += (attempts - 1) * retry_penalty_ps
        port_free = issue
        issue_times.append(issue)
    return Timeline(
        start_ps,
        quantum_end,
        tuple(issue_times),
        tuple(issue + put_response_latency_ps for issue in issue_times),
    )


def overlapped_host_done(timeline, per_batch_host: int, query_ps: int) -> int:
    """A serial host taking each batch one query after its response."""
    host_free = timeline.start_ps
    for response in timeline.put_response_times:
        host_free = max(host_free, response + query_ps) + per_batch_host
    return host_free


def overlapped_host_done_event(timeline, per_batch_host: int, query_ps: int) -> int:
    """The same overlap driven through the DES kernel: each response
    schedules a host-processing event on a serial host."""
    sim = Simulator()
    state = {"host_free": timeline.start_ps}

    def process(ready: int) -> None:
        state["host_free"] = max(ready, state["host_free"]) + per_batch_host

    for response in timeline.put_response_times:
        ready = response + query_ps
        sim.schedule_at(ready, lambda r=ready: process(r))
    sim.run()
    return state["host_free"]


@dataclass(frozen=True)
class SyncedRange:
    addr: int
    size: int
    ready_ps: int

    def covers(self, addr: int) -> bool:
        return self.addr <= addr < self.addr + self.size


class ListBarrier:
    """The barrier table with one entry per PUT and linear scans."""

    def __init__(self) -> None:
        self.ranges: List[SyncedRange] = []

    def mark_put(self, addr: int, size: int, ready_ps: int) -> None:
        self.ranges.append(SyncedRange(addr, size, ready_ps))

    def query(self, addr: int, now_ps: int) -> int:
        query_done = now_ps + HOST_CLOCK.period_ps
        for entry in reversed(self.ranges):
            if entry.covers(addr):
                return max(query_done, entry.ready_ps)
        return query_done

    def fence(self, now_ps: int) -> int:
        return max(now_ps, max((e.ready_ps for e in self.ranges), default=now_ps))

    def pending_after(self, now_ps: int) -> int:
        return sum(1 for entry in self.ranges if entry.ready_ps > now_ps)
