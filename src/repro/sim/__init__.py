"""Deterministic discrete-event simulation kernel.

This package is the substrate for the whole framework: the physical runtime
(:mod:`repro.runtime`) schedules record deliveries, timers, checkpoints and
failures as events on a :class:`Kernel`, so every experiment is reproducible
and all latencies are measured in virtual time.
"""

from repro.sim.clock import VirtualClock
from repro.sim.kernel import Kernel, PeriodicTimer
from repro.sim.random import SimRandom

__all__ = [
    "Kernel",
    "PeriodicTimer",
    "SimRandom",
    "VirtualClock",
]
