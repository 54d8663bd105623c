"""Sinks: where results leave the dataflow, and where latency is measured.

:class:`CollectSink` is the workhorse for tests and benchmarks: it records
every result with its emission (virtual) time so end-to-end latency
distributions can be computed. :class:`TransactionalSink` implements the
exactly-once output pattern (buffer per checkpoint epoch, publish on
checkpoint completion) so the processing-guarantee experiments can count
duplicates under each configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.events import Record, RecordBatch
from repro.core.operators.base import OperatorContext


@dataclass(slots=True)
class SinkResult:
    value: Any
    event_time: float | None
    emitted_at: float
    ingest_time: float | None = None
    key: Any = None
    sign: int = 1

    @property
    def latency(self) -> float | None:
        """End-to-end virtual latency (None when ingest time is unknown)."""
        if self.ingest_time is None:
            return None
        return self.emitted_at - self.ingest_time


@dataclass
class LatencyStats:
    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    max: float = 0.0


def latency_stats(latencies: list[float]) -> LatencyStats:
    """Summary statistics over a latency sample."""
    if not latencies:
        return LatencyStats()
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        idx = min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))
        return ordered[idx]

    return LatencyStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        p50=pct(0.50),
        p95=pct(0.95),
        p99=pct(0.99),
        max=ordered[-1],
    )


class Sink:
    """Sink contract consumed by :class:`~repro.core.operators.basic.SinkOperator`."""

    def write(self, record: Record, ctx: OperatorContext) -> None:
        """Receive one record (terminal operator callback)."""
        raise NotImplementedError

    def flush(self, ctx: OperatorContext) -> None:
        """Called at end of bounded input."""

    # Sinks MAY define ``write_batch(batch, ctx)`` for the columnar path;
    # SinkOperator duck-types for it and otherwise explodes the batch
    # through ``write``. It must be equivalent to writing each record.


class CollectSink(Sink):
    """Collects all results with timing metadata."""

    def __init__(self, name: str = "collect") -> None:
        self.name = name
        self.results: list[SinkResult] = []

    def write(self, record: Record, ctx: OperatorContext) -> None:
        self.results.append(
            SinkResult(
                record.value, record.event_time, ctx.processing_time(),
                record.ingest_time, record.key, record.sign,
            )
        )

    def write_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        """Columnar fast path: one timestamp lookup for the whole batch.

        Virtual time does not advance while an element is being processed,
        so the shared ``emitted_at`` is exactly what per-record writes would
        have recorded."""
        emitted_at = ctx.processing_time()
        append = self.results.append
        for record in batch.records():
            append(
                SinkResult(
                    record.value, record.event_time, emitted_at,
                    record.ingest_time, record.key, record.sign,
                )
            )

    # --- analysis helpers -------------------------------------------------
    def values(self) -> list[Any]:
        """Just the result payloads, in emission order."""
        return [r.value for r in self.results]

    def consolidated_values(self) -> list[Any]:
        """Apply retractions: each -1-signed result cancels one matching
        +1 result (z-set consolidation for speculative pipelines)."""
        kept: list[SinkResult] = []
        for result in self.results:
            if result.sign >= 0:
                kept.append(result)
                continue
            for i in range(len(kept) - 1, -1, -1):
                if kept[i].value == result.value and kept[i].key == result.key:
                    del kept[i]
                    break
        return [r.value for r in kept]

    def latencies(self) -> list[float]:
        """End-to-end (ingest→emit) latencies where known."""
        return [r.latency for r in self.results if r.latency is not None]

    def latency_summary(self) -> LatencyStats:
        """Percentile summary over :meth:`latencies`."""
        return latency_stats(self.latencies())

    def event_time_lags(self) -> list[float]:
        """Emission delay past each result's event time — the natural
        latency metric for window results (whose event time is the window
        end): how long after a window *could* close did its result appear."""
        return [
            r.emitted_at - r.event_time
            for r in self.results
            if r.event_time is not None and r.event_time != float("inf") and r.event_time != float("-inf")
        ]

    def lag_summary(self) -> LatencyStats:
        """Percentile summary over :meth:`event_time_lags`."""
        return latency_stats(self.event_time_lags())

    def retraction_count(self) -> int:
        """Number of retraction (sign -1) results observed."""
        return sum(1 for r in self.results if r.sign < 0)

    def __len__(self) -> int:
        return len(self.results)


class DedupSink(CollectSink):
    """Collects results while counting duplicates by an identity function —
    the detector for at-least-once replays (guarantee experiments)."""

    def __init__(self, name: str = "dedup", identity: Any = None) -> None:
        super().__init__(name)
        self._identity = identity or (lambda v: repr(v))
        self._seen: set[Any] = set()
        self.duplicates = 0

    def write(self, record: Record, ctx: OperatorContext) -> None:
        ident = self._identity(record.value)
        if ident in self._seen:
            self.duplicates += 1
        else:
            self._seen.add(ident)
        super().write(record, ctx)

    def write_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        # Duplicate detection is inherently per record; inheriting the
        # columnar append would silently skip the counting.
        for record in batch.records():
            self.write(record, ctx)

    def unique_count(self) -> int:
        """Distinct identities observed."""
        return len(self._seen)


@dataclass
class _Epoch:
    checkpoint_id: int
    buffered: list[SinkResult] = field(default_factory=list)


class TransactionalSink(Sink):
    """Exactly-once sink: buffers per checkpoint epoch, publishes atomically
    when the epoch's checkpoint completes, discards on failure/replay.

    The runtime notifies it through :meth:`on_checkpoint` /
    :meth:`on_checkpoint_complete`; results only become visible in
    :attr:`committed` — uncommitted epochs vanish on recovery, which is what
    turns at-least-once replay into exactly-once output.
    """

    def __init__(self, name: str = "txn-sink") -> None:
        self.name = name
        self.committed: list[SinkResult] = []
        self._open_epoch = _Epoch(checkpoint_id=0)
        self._pending: dict[int, _Epoch] = {}
        #: optional transient-failure injector for the commit (second) phase:
        #: ``commit_fault_hook(checkpoint_id)`` may raise
        #: :class:`~repro.errors.TransientFault`, in which case the epochs
        #: stay pending (graceful degradation — a later successful commit
        #: publishes them). The engine retries per :attr:`retry_policy`.
        self.commit_fault_hook: Any = None
        #: retry policy the engine's commit driver consults on transient
        #: commit failures (duck-typed: needs ``delay_for(attempt, elapsed)``)
        self.retry_policy: Any = None
        self.commit_attempts = 0
        self.commit_failures = 0

    def write(self, record: Record, ctx: OperatorContext) -> None:
        self._open_epoch.buffered.append(
            SinkResult(
                record.value, record.event_time, ctx.processing_time(),
                record.ingest_time, record.key, record.sign,
            )
        )

    def write_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        """Columnar fast path: buffer the whole batch into the open epoch
        with one shared timestamp (virtual time is frozen mid-element)."""
        emitted_at = ctx.processing_time()
        append = self._open_epoch.buffered.append
        for record in batch.records():
            append(
                SinkResult(
                    record.value, record.event_time, emitted_at,
                    record.ingest_time, record.key, record.sign,
                )
            )

    def on_checkpoint(self, checkpoint_id: int) -> None:
        """Seal the open epoch under this checkpoint id (pre-commit).

        A sink shared by several subtasks is sealed once per writer as each
        barrier arrives; the batches merge under the same checkpoint id
        (overwriting would silently drop the earlier writers' results)."""
        sealed = self._open_epoch
        existing = self._pending.get(checkpoint_id)
        if existing is not None:
            existing.buffered.extend(sealed.buffered)
        else:
            self._pending[checkpoint_id] = sealed
        self._open_epoch = _Epoch(checkpoint_id=checkpoint_id)

    def on_checkpoint_complete(self, checkpoint_id: int) -> None:
        """Second phase: publish every sealed epoch up to this checkpoint.

        May raise :class:`~repro.errors.TransientFault` (via
        :attr:`commit_fault_hook`) *before* publishing anything — the commit
        is atomic: it either publishes all eligible epochs or none."""
        self.commit_attempts += 1
        if self.commit_fault_hook is not None:
            try:
                self.commit_fault_hook(checkpoint_id)
            except BaseException:
                self.commit_failures += 1
                raise
        for cid in sorted(list(self._pending.keys())):
            if cid <= checkpoint_id:
                self.committed.extend(self._pending.pop(cid).buffered)

    def on_recovery(self) -> None:
        """Failure: drop everything not yet committed."""
        self._pending.clear()
        self._open_epoch = _Epoch(checkpoint_id=0)

    def values(self) -> list[Any]:
        """Committed payloads only (uncommitted epochs invisible)."""
        return [r.value for r in self.committed]

    def event_time_lags(self) -> list[float]:
        """Emission delay past event time, over committed results."""
        return [
            r.emitted_at - r.event_time
            for r in self.committed
            if r.event_time is not None and abs(r.event_time) != float("inf")
        ]

    def lag_summary(self) -> LatencyStats:
        """Percentile summary over :meth:`event_time_lags`."""
        return latency_stats(self.event_time_lags())

    def latency_summary(self) -> LatencyStats:
        """Percentile summary over committed end-to-end latencies."""
        return latency_stats([r.latency for r in self.committed if r.latency is not None])

    def flush(self, ctx: OperatorContext) -> None:
        # Bounded input ended cleanly: every sealed epoch is final (a
        # failure before this point would have cleared them via
        # on_recovery), so publish epochs whose checkpoint never completed
        # (e.g. aborted on timeout), then the trailing open epoch.
        for cid in sorted(self._pending.keys()):
            self.committed.extend(self._pending.pop(cid).buffered)
        self.committed.extend(self._open_epoch.buffered)
        self._open_epoch = _Epoch(checkpoint_id=-1)
