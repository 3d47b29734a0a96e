"""Discrete-event simulation kernel.

This is the timing substrate every architectural model in the
reproduction is built on.  The paper evaluates Qtenon with FireSim, a
cycle-exact FPGA-accelerated simulator; we replace it with a classic
discrete-event simulator (DES) operating at picosecond resolution.
Components schedule callbacks on a global event heap; the kernel pops
events in time order (ties broken by insertion order, so the model is
deterministic).

Times are integers in **picoseconds** throughout.  Clock-domain
components convert cycles to picoseconds through :class:`repro.sim.clock.Clock`.
Integer time avoids the floating-point drift that plagues ns-float
simulators once a run accumulates millions of events.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
from typing import Any, Callable, Optional

#: Convenience conversion constants (picoseconds per unit).
PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return int(round(value * PS_PER_US))


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return int(round(value * PS_PER_MS))


def to_ns(ps: int) -> float:
    """Convert picoseconds to (float) nanoseconds."""
    return ps / PS_PER_NS


def to_us(ps: int) -> float:
    """Convert picoseconds to (float) microseconds."""
    return ps / PS_PER_US


def to_ms(ps: int) -> float:
    """Convert picoseconds to (float) milliseconds."""
    return ps / PS_PER_MS


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, etc.)."""


class _Event:
    """A scheduled callback (handle returned by the ``schedule_*`` forms).

    The heap itself stores ``(time, seq, event)`` tuples so ordering
    compares plain ints — two events at the same timestamp fire in
    scheduling order (reproducible runs) and million-event runs never
    pay rich-comparison dispatch on the event objects.  ``__slots__``
    keeps the per-event footprint to the three fields the kernel needs.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the kernel will skip it when popped."""
        self.cancelled = True


class Simulator:
    """Global event queue and simulated clock.

    Typical use::

        sim = Simulator()
        sim.schedule_at(ns(10), lambda: print("fired at 10ns"))
        sim.run()

    The kernel offers three scheduling forms (absolute, relative, and
    immediate), event cancellation, and a bounded ``run(until=...)``.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[tuple[int, int, _Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: int, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` at absolute time ``time`` (ps)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} ps; current time is {self._now} ps"
            )
        event = _Event(time, callback)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` after a relative ``delay`` (ps)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} ps")
        return self.schedule_at(self._now + delay, callback)

    def schedule_now(self, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` at the current timestamp (after the
        currently executing event completes)."""
        return self.schedule_at(self._now, callback)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``False`` when the heap is empty, ``True`` otherwise.
        Cancelled events are discarded without executing.
        """
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = time
            event.callback()
            self._events_processed += 1
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the heap drains, ``until`` ps is reached, or
        ``max_events`` have executed.  Returns the final time.

        With a bound, the clock always lands on ``until`` when every
        event at or before it has executed — including when the heap
        drains early or is empty at call time — so components polling
        :attr:`now` after a bounded run observe the full interval.  A
        ``max_events`` break leaves the clock at the last executed
        event.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        exhausted = True
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                head_time, _, head = heap[0]
                if head.cancelled:
                    pop(heap)
                    continue
                if until is not None and head_time > until:
                    break
                if max_events is not None and executed >= max_events:
                    exhausted = False
                    break
                pop(heap)
                self._now = head_time
                head.callback()
                self._events_processed += 1
                executed += 1
        finally:
            self._running = False
        if until is not None and exhausted and until > self._now:
            self._now = until
        return self._now

    def advance_to(self, time: int) -> None:
        """Jump the clock forward without executing events.

        Only legal when nothing is pending before ``time``; used by
        analytic components that compute a latency in closed form.
        """
        if time < self._now:
            raise SimulationError("cannot move time backwards")
        for event_time, _, event in self._heap:
            if not event.cancelled and event_time < time:
                raise SimulationError(
                    "advance_to() would skip a pending event at "
                    f"{event_time} ps"
                )
        self._now = time


class Process:
    """A resumable activity built from generator functions.

    A process generator yields integer delays (ps); the kernel resumes
    it after each delay.  Yielding another :class:`Process` joins it
    (resumes when the child finishes).  This gives SimPy-style
    coroutine modelling on top of the raw event heap::

        def worker(sim):
            yield ns(5)        # wait 5 ns
            do_something()
            yield ns(3)

        Process(sim, worker(sim))
        sim.run()
    """

    def __init__(self, sim: Simulator, generator: Any, name: str = "process") -> None:
        self.sim = sim
        self.name = name
        self._generator = generator
        self.finished = False
        self.result: Any = None
        self._waiters: list[Callable[[], None]] = []
        sim.schedule_now(self._resume)

    def add_done_callback(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` when the process finishes (immediately if
        already finished)."""
        if self.finished:
            self.sim.schedule_now(callback)
        else:
            self._waiters.append(callback)

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            self.sim.schedule_now(waiter)

    def _resume(self) -> None:
        try:
            yielded = next(self._generator)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None))
            return
        if isinstance(yielded, Process):
            yielded.add_done_callback(self._resume)
        elif isinstance(yielded, numbers.Integral) and not isinstance(yielded, bool):
            # Accept any integral delay (plain int, numpy integer from
            # latency arithmetic, ...) but reject bool: ``yield True``
            # is always a bug, not a 1 ps sleep.  Normalise to a Python
            # int so the heap never holds numpy scalars.
            self.sim.schedule_after(int(yielded), self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {type(yielded).__name__}; "
                "expected integer delay (ps) or Process"
            )
