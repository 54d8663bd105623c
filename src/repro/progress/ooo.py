"""Out-of-order handling strategies (survey §2.2).

The survey identifies two fundamental strategies:

1. **In-order ingestion** — buffer at the ingestion point, release batches
   in order [MillWheel-before-low-watermark, Li et al.'s OOP input manager,
   Truviso]. Implemented by :class:`KSlackBufferOperator`: an adaptive
   K-slack reorder buffer that *learns* the disorder bound.
2. **Out-of-order processing with revision** — ingest immediately, adjust
   results when late data arrives [CEDR/StreamInsight, speculative
   pub/sub]. Implemented by the window operator's allowed-lateness +
   retraction machinery; :class:`disorder_profile` quantifies the input
   disorder both strategies face.

Experiment E1 runs the same windowed aggregation under both and compares
result latency against retraction volume.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any

from repro.core.events import Record, Watermark
from repro.core.operators.base import Operator, OperatorContext


class KSlackBufferOperator(Operator):
    """Adaptive K-slack in-order ingestion buffer.

    Buffers records and releases them in event-time order once they are at
    least ``K`` behind the maximum event time seen, where ``K`` is the
    largest lag observed so far (Mutschler & Philippsen's adaptive K-slack).
    Records that still arrive below the release line are dropped late.
    """

    def __init__(self, initial_k: float = 0.0, adaptive: bool = True, name: str = "k-slack") -> None:
        if initial_k < 0:
            raise ValueError("initial_k must be >= 0")
        self.k = initial_k
        self.adaptive = adaptive
        self._name = name
        self._heap: list[tuple[float, int, Record]] = []
        self._seq = itertools.count()
        self._max_seen = float("-inf")
        self._released_up_to = float("-inf")
        self.dropped_late = 0
        self.max_buffer = 0

    @property
    def name(self) -> str:
        return self._name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        event_time = record.event_time if record.event_time is not None else 0.0
        if self._max_seen > float("-inf") and self.adaptive:
            # Learn the lag even from records we must drop, so the buffer
            # grows and subsequent stragglers make it in.
            lag = self._max_seen - event_time
            if lag > self.k:
                self.k = lag
        if event_time <= self._released_up_to:
            self.dropped_late += 1
            ctx.emit_to("late", record)
            return
        self._max_seen = max(self._max_seen, event_time)
        heapq.heappush(self._heap, (event_time, next(self._seq), record))
        self.max_buffer = max(self.max_buffer, len(self._heap))
        self._release(ctx)

    def _release(self, ctx: OperatorContext) -> None:
        line = self._max_seen - self.k
        advanced = False
        while self._heap and self._heap[0][0] <= line:
            event_time, _seq, record = heapq.heappop(self._heap)
            self._released_up_to = max(self._released_up_to, event_time)
            ctx.emit(record)
            advanced = True
        if advanced:
            ctx.emit(Watermark(self._released_up_to))

    def on_watermark(self, watermark: Watermark, ctx: OperatorContext) -> None:
        # Swallow upstream watermarks; this operator re-issues its own from
        # the release line. The terminal +inf watermark flushes.
        if watermark.timestamp == float("inf"):
            self.flush(ctx)
            ctx.emit(watermark)

    def flush(self, ctx: OperatorContext) -> None:
        while self._heap:
            event_time, _seq, record = heapq.heappop(self._heap)
            self._released_up_to = max(self._released_up_to, event_time)
            ctx.emit(record)
        if self._released_up_to > float("-inf"):
            ctx.emit(Watermark(self._released_up_to))

    def snapshot_state(self) -> Any:
        return {
            "heap": list(self._heap),
            "k": self.k,
            "max_seen": self._max_seen,
            "released": self._released_up_to,
            "dropped": self.dropped_late,
        }

    def restore_state(self, snapshot: Any) -> None:
        if snapshot is None:
            return
        self._heap = list(snapshot["heap"])
        heapq.heapify(self._heap)
        # later arrivals queue behind the restored ones on equal event times
        self._seq = itertools.count(max((seq for _, seq, _ in self._heap), default=-1) + 1)
        self.k = snapshot["k"]
        self._max_seen = snapshot["max_seen"]
        self._released_up_to = snapshot["released"]
        self.dropped_late = snapshot["dropped"]


@dataclass
class DisorderStats:
    total: int
    out_of_order: int
    max_lag: float
    mean_lag: float

    @property
    def disorder_fraction(self) -> float:
        return self.out_of_order / self.total if self.total else 0.0


def disorder_profile(event_times: list[float]) -> DisorderStats:
    """Quantify disorder in an arrival sequence: how many elements arrive
    with an event time below the running maximum, and by how much."""
    max_seen = float("-inf")
    out_of_order = 0
    lags: list[float] = []
    for t in event_times:
        if t < max_seen:
            out_of_order += 1
            lags.append(max_seen - t)
        max_seen = max(max_seen, t)
    return DisorderStats(
        total=len(event_times),
        out_of_order=out_of_order,
        max_lag=max(lags) if lags else 0.0,
        mean_lag=sum(lags) / len(lags) if lags else 0.0,
    )
