"""Host-speed calibration: a fixed pure-Python loop interleaved with the run.

Raw wall-clock throughput of the *same* code varies by tens of percent on a
shared host, between processes and within one. The loop below does a fixed
amount of the work the engine's hot path is made of (heap push/pop of small
slotted objects, dict stores, closure calls); how long it takes measures
how fast the host is *right now*.

A sample taken before and after a two-second run says little about the run:
the host's speed changes faster than that. So the loop is kept short (a few
milliseconds) and :class:`InRunCalibration` schedules it as kernel events at
evenly spaced virtual times *inside* the run. The time the loops take is
subtracted from the run's host time, and their mean against ``CAL_REF_S``
gives the factor by which the host was slower than the reference host while
the run was executing. Measured here, fifty interleaved loops cut the
spread of a throughput median between processes from ±25 % to under 2 %.
"""

from __future__ import annotations

import heapq
import time
from typing import Any

#: duration of one :func:`calibrate` loop on the reference host (the
#: container this benchmark was defined on, at its fastest); committed so
#: numbers from different hosts and different days share one scale
CAL_REF_S = 0.0075

_ROUNDS = 8_000
#: calibration loops interleaved with each run
SLICES = 50


class _Event:
    __slots__ = ("time", "seq", "action")

    def __init__(self, time: float, seq: int, action) -> None:
        self.time = time
        self.seq = seq
        self.action = action

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


def _loop() -> None:
    heap: list[_Event] = []
    table: dict[int, int] = {}
    total = 0

    def make_action(i: int):
        def action() -> int:
            return i + 1

        return action

    for i in range(_ROUNDS):
        heapq.heappush(heap, _Event((i * 7919) % 1009 * 1e-3, i, make_action(i)))
        table[i & 1023] = i
        if i & 3 == 3:
            for _ in range(4):
                total += heapq.heappop(heap).action()
    while heap:
        total += heapq.heappop(heap).action()
    if total != _ROUNDS * (_ROUNDS + 1) // 2:
        raise AssertionError("calibration loop computed the wrong total")


def calibrate(loops: int = 1) -> float:
    """Run the fixed loop ``loops`` times; returns the mean seconds per loop."""
    started = time.perf_counter()
    for _ in range(loops):
        _loop()
    return (time.perf_counter() - started) / loops


def host_factor(loop_seconds: float) -> float:
    """How much slower than the reference host: a host *duration* divided
    by the factor, or a *rate* multiplied by it, reads as on the reference."""
    return loop_seconds / CAL_REF_S


class InRunCalibration:
    """Calibration loops scheduled on ``kernel`` across ``span`` virtual
    seconds, to fire while the run they calibrate is executing. The callbacks
    take no virtual time and touch no engine state, so outputs and every
    virtual-time number are those of an uninstrumented run; the kernel
    events they add are reported in :attr:`fired` and subtracted by the
    caller."""

    def __init__(self, kernel: Any, span: float, slices: int = SLICES) -> None:
        #: host seconds spent inside calibration loops so far
        self.seconds = 0.0
        self.fired = 0
        for j in range(slices):
            kernel.call_at(span * (j + 0.5) / slices, self._fire)

    def _fire(self) -> None:
        self.seconds += calibrate()
        self.fired += 1

    def factor(self) -> float:
        if not self.fired:
            raise RuntimeError("no calibration loop fired during the run")
        return host_factor(self.seconds / self.fired)
