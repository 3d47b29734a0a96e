"""Statistics primitives shared by all timing models.

Every architectural component in the reproduction reports through a
:class:`StatGroup`, which namespaces two primitives per component:

* :class:`~repro.telemetry.metrics.Counter` — monotonically increasing
  event counts (cache hits, PUT requests issued, SLT evictions, ...),
  the same class a :class:`~repro.telemetry.metrics.MetricsRegistry`
  hands out;
* :class:`Accumulator` — sums of sampled values with min/max/mean
  (queue depths, batch sizes, ...).

:meth:`StatGroup.as_dict` renders a flat ``dict`` for reports and
tests, and is the collector an owner registers to export the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.telemetry.metrics import Counter


@dataclass
class Accumulator:
    """Running sum / count / min / max of observed samples."""

    name: str
    total: float = 0.0
    count: int = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            # One NaN poisons total/mean forever; ±inf pins min/max.
            raise ValueError(
                f"accumulator {self.name!r} rejects non-finite sample {value!r}"
            )
        self.total += value
        self.count += 1
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0
        self.minimum = None
        self.maximum = None


class StatGroup:
    """A namespace of counters and accumulators for one component."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._accumulators: Dict[str, Accumulator] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create a counter."""
        if name not in self._counters:
            self._counters[name] = Counter(f"{self.name}.{name}")
        return self._counters[name]

    def accumulator(self, name: str) -> Accumulator:
        """Get-or-create an accumulator."""
        if name not in self._accumulators:
            self._accumulators[name] = Accumulator(name)
        return self._accumulators[name]

    def as_dict(self) -> Dict[str, float]:
        """Flatten to ``{"component.stat": value}`` for reports."""
        out: Dict[str, float] = {}
        for counter in self._counters.values():
            out[counter.name] = counter.value
        for acc in self._accumulators.values():
            out[f"{self.name}.{acc.name}.mean"] = acc.mean
            out[f"{self.name}.{acc.name}.count"] = acc.count
        return out

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for acc in self._accumulators.values():
            acc.reset()
