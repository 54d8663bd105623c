"""The stream data model: records and in-band control elements.

A stream is a sequence of :class:`StreamElement`. Data travels as
:class:`Record`; everything else is control flow travelling *in-band* with
the data, exactly as in the systems the survey covers:

* :class:`Watermark` — event-time progress (Dataflow model [Akidau et al.]),
* :class:`Punctuation` — predicate-based progress (Tucker et al.),
* :class:`Heartbeat` — source-driven progress (STREAM, Srivastava & Widom),
* :class:`CheckpointBarrier` — snapshot alignment (Chandy-Lamport / Flink),
* :class:`EndOfStream` — bounded-input termination.

Records carry a *sign* so that speculative out-of-order processing can emit
retractions (sign ``-1``) that cancel previously emitted results, the
strategy surveyed in §2.2.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Callable

MAX_TIMESTAMP = float("inf")
MIN_TIMESTAMP = float("-inf")


class StreamElement:
    """Marker base class for everything that flows through a channel."""

    __slots__ = ()

    @property
    def is_record(self) -> bool:
        return isinstance(self, Record)


_new_row = tuple.__new__


class Record(
    namedtuple(
        "Record",
        "value event_time key sign ingest_time trace",
        defaults=(None, None, 1, None, None),
    ),
    StreamElement,
):
    """A data element: one immutable, tuple-backed row (one allocation).

    Attributes:
        value: the user payload (any Python object; dicts and tuples for the
            built-in workloads).
        event_time: the time the event occurred at the source, in virtual
            seconds. ``None`` for streams without event-time semantics.
        key: the partitioning key, stamped by ``key_by``.
        sign: ``+1`` for insertions, ``-1`` for retractions of a previously
            emitted record (z-set semantics used by speculative processing).
        ingest_time: virtual time at which the element entered the pipeline;
            sinks use ``now - ingest_time`` as end-to-end latency.
        trace: sampled :class:`~repro.obs.trace.TraceContext` propagated by
            the observability layer (``None`` for unsampled records).
            Excluded from equality/hash/repr so delivery auditing and logs
            are unaffected by tracing.

    Copies are made with the ``with_*`` helpers and :meth:`as_retraction`;
    each builds the new row in one ``tuple.__new__`` call. A record never
    equals a plain tuple of its fields (DESIGN.md, "Data model").
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:5])

    def __repr__(self) -> str:
        return (
            f"Record(value={self[0]!r}, event_time={self[1]!r}, key={self[2]!r}, "
            f"sign={self[3]!r}, ingest_time={self[4]!r})"
        )

    def with_value(self, value: Any) -> "Record":
        """Copy with a new value (time/key/sign preserved)."""
        return _new_row(Record, (value, self[1], self[2], self[3], self[4], self[5]))

    def with_key(self, key: Any) -> "Record":
        """Copy with a new partitioning key."""
        return _new_row(Record, (self[0], self[1], key, self[3], self[4], self[5]))

    def with_event_time(self, event_time: float) -> "Record":
        """Copy with a new event time."""
        return _new_row(Record, (self[0], event_time, self[2], self[3], self[4], self[5]))

    def with_trace(self, trace: Any) -> "Record":
        """Copy carrying a (new) sampled trace context."""
        return _new_row(Record, (self[0], self[1], self[2], self[3], self[4], trace))

    def as_retraction(self) -> "Record":
        """Return the retraction twin of this record (flips the sign)."""
        return _new_row(Record, (self[0], self[1], self[2], -self[3], self[4], self[5]))

    @property
    def is_retraction(self) -> bool:
        return self.sign < 0


class RecordBatch(StreamElement):
    """A columnar run of records travelling as one stream element.

    The columnar execution path (``EngineConfig.columnar_enabled``) moves
    records through channels and operators as batches: one mailbox item, one
    credit, one dispatch — with per-record payloads kept in parallel columns
    so vectorized operators can work on whole arrays. A batch is exactly
    equivalent to the sequence ``list(batch.records())``; operators without a
    vectorized path explode it record-by-record and rebuild (see
    ``Operator.process_batch``), so any plan still runs.

    Columns:
        values: per-record payloads (always present).
        event_times: per-record event times, or ``None`` when the whole
            batch has no event-time semantics.
        keys: per-record partitioning keys, or ``None`` for all-``None``.
        signs: per-record z-set signs, or ``None`` for all ``+1``.
        ingest_times: per-record pipeline entry times, or ``None``.

    Batches never straddle control elements: sources close the open batch
    before emitting watermarks, barriers, markers, or EOS, and tasks process
    a batch atomically, so checkpoint alignment and progress tracking see
    exactly the element order the scalar path would.
    """

    __slots__ = ("values", "event_times", "keys", "signs", "ingest_times")

    def __init__(
        self,
        values: list,
        event_times: list | None = None,
        keys: list | None = None,
        signs: list | None = None,
        ingest_times: list | None = None,
    ) -> None:
        self.values = values
        self.event_times = event_times
        self.keys = keys
        self.signs = signs
        self.ingest_times = ingest_times

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordBatch(n={len(self.values)})"

    # --- row access -------------------------------------------------------
    def record_at(self, i: int) -> "Record":
        """The ``i``-th row as a scalar :class:`Record` (field-for-field)."""
        return Record(
            self.values[i],
            self.event_times[i] if self.event_times is not None else None,
            self.keys[i] if self.keys is not None else None,
            self.signs[i] if self.signs is not None else 1,
            self.ingest_times[i] if self.ingest_times is not None else None,
        )

    def records(self):
        """Iterate rows as scalar records (the explode half of the fallback)."""
        none = repeat(None)
        rows = zip(
            self.values,
            self.event_times if self.event_times is not None else none,
            self.keys if self.keys is not None else none,
            self.signs if self.signs is not None else repeat(1),
            self.ingest_times if self.ingest_times is not None else none,
            none,
        )
        return map(_new_row, repeat(Record), rows)

    def iter_keys(self):
        """Per-row keys (``None`` column expands to ``None`` per row)."""
        if self.keys is None:
            return iter([None] * len(self.values))
        return iter(self.keys)

    # --- construction -----------------------------------------------------
    @classmethod
    def from_records(cls, records: list) -> "RecordBatch":
        """Rebuild a batch from scalar records (the other fallback half)."""
        values = [r.value for r in records]
        event_times = [r.event_time for r in records]
        keys = [r.key for r in records]
        signs = [r.sign for r in records]
        ingest_times = [r.ingest_time for r in records]
        return cls(
            values=values,
            event_times=None if all(t is None for t in event_times) else event_times,
            keys=None if all(k is None for k in keys) else keys,
            signs=None if all(s == 1 for s in signs) else signs,
            ingest_times=None if all(t is None for t in ingest_times) else ingest_times,
        )

    # --- columnar transforms ---------------------------------------------
    def _take(self, column: list | None, indices: list[int]) -> list | None:
        if column is None:
            return None
        return [column[i] for i in indices]

    def select(self, indices: list[int]) -> "RecordBatch":
        """A new batch keeping only the given row indices, in order."""
        return RecordBatch(
            values=[self.values[i] for i in indices],
            event_times=self._take(self.event_times, indices),
            keys=self._take(self.keys, indices),
            signs=self._take(self.signs, indices),
            ingest_times=self._take(self.ingest_times, indices),
        )

    def select_mask(self, mask) -> "RecordBatch":
        """``select`` driven by a boolean mask (any sequence of truthy flags)."""
        return self.select([i for i, keep in enumerate(mask) if keep])

    def with_values(self, values: list) -> "RecordBatch":
        """Same rows, new payload column (map semantics)."""
        if len(values) != len(self.values):
            raise ValueError("with_values must preserve row count")
        return RecordBatch(
            values=list(values),
            event_times=self.event_times,
            keys=self.keys,
            signs=self.signs,
            ingest_times=self.ingest_times,
        )

    def with_keys(self, keys: list) -> "RecordBatch":
        """Same rows, new key column (key_by semantics)."""
        return RecordBatch(
            values=self.values,
            event_times=self.event_times,
            keys=list(keys),
            signs=self.signs,
            ingest_times=self.ingest_times,
        )

    def replicate(self, indices: list[int], values: list) -> "RecordBatch":
        """Expansion (flat_map): output row ``j`` inherits the timestamp/key/
        sign/ingest columns of input row ``indices[j]`` with ``values[j]``."""
        return RecordBatch(
            values=list(values),
            event_times=self._take(self.event_times, indices),
            keys=self._take(self.keys, indices),
            signs=self._take(self.signs, indices),
            ingest_times=self._take(self.ingest_times, indices),
        )


@dataclass(frozen=True)
class Watermark(StreamElement):
    """Asserts that no record with ``event_time <= timestamp`` is still coming.

    Watermarks from multiple input channels are merged by taking the minimum
    (the per-task watermark is the min over all input channels), giving the
    monotone low-watermark semantics of MillWheel/Dataflow/Flink.
    """

    timestamp: float

    def __lt__(self, other: "Watermark") -> bool:
        return self.timestamp < other.timestamp


@dataclass(frozen=True)
class Punctuation(StreamElement):
    """A predicate asserting no future record satisfies it (Tucker et al.).

    The general form carries an arbitrary predicate over record values; the
    common case — "no more records for window/key ≤ bound" — is expressed
    with ``attribute`` + ``bound`` for cheap introspection by operators.
    """

    attribute: str
    bound: Any
    predicate: Callable[[Any], bool] | None = field(default=None, compare=False)

    def matches(self, value: Any) -> bool:
        """True if a record value is *closed out* by this punctuation."""
        if self.predicate is not None:
            return bool(self.predicate(value))
        try:
            return value[self.attribute] <= self.bound
        except (TypeError, KeyError, IndexError):
            attr = getattr(value, self.attribute, None)
            return attr is not None and attr <= self.bound


@dataclass(frozen=True)
class Heartbeat(StreamElement):
    """Source-driven progress signal (STREAM-style).

    ``timestamp`` promises the source will not emit records with an event
    time at or below it. Unlike watermarks, heartbeats are per-source and
    emitted even when no data flows, which keeps progress moving on idle
    inputs.
    """

    source_id: str
    timestamp: float


@dataclass(frozen=True)
class CheckpointBarrier(StreamElement):
    """Aligned-snapshot barrier (Chandy-Lamport as deployed in Flink).

    Tasks align barriers from all input channels, snapshot their state, then
    forward the barrier downstream.
    """

    checkpoint_id: int
    timestamp: float


@dataclass(frozen=True)
class EndOfStream(StreamElement):
    """Terminal marker for bounded sources; flushes windows and closes tasks."""

    source_id: str = ""


@dataclass(frozen=True)
class LatencyMarker(StreamElement):
    """Probe element for measuring channel/operator latency without data.

    Emitted by sources on a kernel-time period, intercepted by tasks before
    the operator (never enters windows or state), and forwarded in band so
    it is subject to exactly the queueing, alignment, and backpressure
    stalls a record would be.
    """

    emitted_at: float
    marker_id: int
    source_id: str = ""


def record(value: Any, event_time: float | None = None, key: Any = None) -> Record:
    """Convenience constructor used pervasively in tests and examples."""
    return Record(value=value, event_time=event_time, key=key)
