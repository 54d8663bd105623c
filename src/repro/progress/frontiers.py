"""Frontier-based progress (Naiad's timely dataflow, survey §2.3).

:class:`OracleWatermarks` applies the frontier idea to a source whose future
is known (a replayable workload): the emitted watermark is the true minimum
outstanding event time — the minimum timestamp that may still arrive, the
exact-progress primitive watermarks approximate. This gives zero late
records with the minimum possible delay, the upper bound the E2 experiment
compares heuristic mechanisms against.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import Watermark
from repro.io.sources import Workload
from repro.progress.watermarks import WatermarkStrategy


class OracleWatermarks(WatermarkStrategy):
    """Perfect progress information for a replayable workload.

    Precomputes the suffix-minimum of event times; after emitting element
    ``i`` the watermark is the smallest event time still outstanding (minus
    an epsilon). Zero lates, minimum delay — the frontier ideal.
    """

    periodic_interval = None

    def __init__(self, workload: Workload, epsilon: float = 1e-9) -> None:
        self._workload = workload
        self._epsilon = epsilon
        times = [e.event_time for e in workload.events() if e.event_time is not None]
        self._suffix_min: list[float] = [0.0] * len(times)
        running = float("inf")
        for i in range(len(times) - 1, -1, -1):
            running = min(running, times[i])
            self._suffix_min[i] = running
        self._index = 0

    def on_event(self, value: Any, event_time: float | None, now: float) -> Watermark | None:
        self._index += 1
        if self._index >= len(self._suffix_min):
            return Watermark(float("inf"))
        return Watermark(self._suffix_min[self._index] - self._epsilon)

    def fresh(self) -> "OracleWatermarks":
        return OracleWatermarks(self._workload, self._epsilon)
