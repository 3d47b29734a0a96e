"""Discrete-event simulation substrate (kernel, clocks, components, stats)."""

from repro.sim.clock import Clock, DAC_CLOCK, HOST_CLOCK, QCC_SRAM_CLOCK
from repro.sim.component import BusyResource, Component
from repro.sim.kernel import (
    PS_PER_MS,
    PS_PER_NS,
    PS_PER_S,
    PS_PER_US,
    Process,
    SimulationError,
    Simulator,
    ms,
    ns,
    to_ms,
    to_ns,
    to_us,
    us,
)
from repro.sim.stats import Accumulator, StatGroup

__all__ = [
    "Clock",
    "HOST_CLOCK",
    "QCC_SRAM_CLOCK",
    "DAC_CLOCK",
    "Component",
    "BusyResource",
    "Simulator",
    "Process",
    "SimulationError",
    "ns",
    "us",
    "ms",
    "to_ns",
    "to_us",
    "to_ms",
    "PS_PER_NS",
    "PS_PER_US",
    "PS_PER_MS",
    "PS_PER_S",
    "Accumulator",
    "StatGroup",
]
