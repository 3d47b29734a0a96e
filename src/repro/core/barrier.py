"""Memory consistency: soft memory barrier vs FENCE (paper §6.2, Fig. 9).

Two data races exist in the tightly coupled design:

1. ``q_set`` vs ``q_gen`` — pulse generation starting before the
   program upload lands.  Solved entirely in hardware by a barrier in
   the QCC (no software cost); we model it by ordering the operations.
2. ``q_run``/``q_acquire`` vs host post-processing — the host reading
   a result address before the controller's PUT for it completed.

For race 2 the paper contrasts two mechanisms, both modelled here:

* **FENCE** (RISC-V default): the host stalls until *every*
  outstanding quantum/bus operation completes — coarse, strict
  ordering (Fig. 9a).
* **Fine-grained soft barrier** (Qtenon): the controller tracks, per
  synchronised host address, when its PUT was issued to the system
  bus; the host's access performs a non-blocking single-cycle RoCC
  query and proceeds as soon as *that* address is valid (Fig. 9b),
  letting post-processing overlap the remaining quantum shots.
"""

from __future__ import annotations

from typing import List

from repro.sim.clock import HOST_CLOCK, Clock
from repro.sim.stats import StatGroup


class MemoryBarrier:
    """The controller-side barrier table.

    Entries are segments ``[addr, size, count, ready, step]`` of
    contiguous equal ranges: range *k* is ``[addr + k*size, +size)``,
    valid from ``ready + k*step``.  A q_run's full PUTs are contiguous
    (Algorithm 1) and, between retransmits, evenly spaced in time (the
    closed-form timeline), so each extends the open segment in O(1) and
    the table holds a few segments per q_run.
    """

    def __init__(self, clock: Clock = HOST_CLOCK) -> None:
        self.clock = clock
        self._segments: List[List[int]] = []
        self.stats = StatGroup("barrier")
        self._queries = self.stats.counter("queries")
        self._stall_acc = self.stats.accumulator("stall_ps")

    # ------------------------------------------------------------------
    # controller side
    # ------------------------------------------------------------------
    def mark_put(self, addr: int, size: int, ready_ps: int) -> None:
        """Record that [addr, addr+size) is valid from ``ready_ps``
        (the PUT request has been sent through the system bus)."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if self._segments:
            segment = self._segments[-1]
            base, seg_size, count, ready, step = segment
            if size == seg_size and addr == base + count * size:
                if count == 1 and ready_ps >= ready:
                    step = segment[4] = ready_ps - ready  # the second range fixes it
                if ready_ps == ready + count * step:
                    segment[2] = count + 1
                    return
        self._segments.append([addr, size, 1, ready_ps, 0])

    def clear(self) -> None:
        self._segments.clear()

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def query(self, addr: int, now_ps: int) -> int:
        """Fine-grained access check (Fig. 9b).

        Returns the earliest time the host may consume ``addr``:
        the single-cycle RoCC query plus any wait until the covering
        PUT is on the bus.  An address never marked is immediately
        usable after the query (it is not quantum-synchronised).  When
        several PUTs covered ``addr``, the most recent one decides.
        """
        self._queries.increment()
        query_done = now_ps + self.clock.period_ps
        ready = query_done
        # Ranges within a segment are disjoint, so the latest segment
        # covering ``addr`` holds the most recent covering range.
        for base, size, count, first_ready, step in reversed(self._segments):
            k = (addr - base) // size
            if 0 <= k < count:
                ready = max(query_done, first_ready + k * step)
                break
        self._stall_acc.observe(ready - query_done)
        return ready

    def fence(self, now_ps: int) -> int:
        """Coarse FENCE (Fig. 9a): wait for *all* recorded operations."""
        latest = max(
            (ready + (count - 1) * step for _, _, count, ready, step in self._segments),
            default=now_ps,
        )
        return max(now_ps, latest)

    def pending_after(self, now_ps: int) -> int:
        """How many synchronised ranges are not yet valid at ``now_ps``."""
        pending = 0
        for _, _, count, ready, step in self._segments:
            if step:
                pending += count - min(count, max(0, (now_ps - ready) // step + 1))
            elif ready > now_ps:
                pending += count
        return pending
