"""Operator abstraction shared by every dataflow transformation.

An operator is a (possibly stateful) event handler driven by the runtime:
records, watermarks, punctuations, heartbeats, barriers and timers arrive as
calls; the operator emits downstream through its :class:`OperatorContext`.
This is the "hard-coded dataflow" programming surface the survey attributes
to second-generation systems (§1), on which all higher layers — windows, CQL,
CEP, stateful functions — are built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.events import (
    CheckpointBarrier,
    EndOfStream,
    Heartbeat,
    LatencyMarker,
    Punctuation,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.state.api import StateDescriptor


class OperatorContext:
    """Runtime services available to an operator instance.

    Concrete implementation lives in :mod:`repro.runtime.task`; this base
    defines the contract and lets unit tests stub contexts cheaply.
    """

    # --- identity -------------------------------------------------------
    @property
    def task_name(self) -> str:
        raise NotImplementedError

    @property
    def subtask_index(self) -> int:
        raise NotImplementedError

    @property
    def parallelism(self) -> int:
        raise NotImplementedError

    # --- output ---------------------------------------------------------
    def emit(self, element: StreamElement) -> None:
        """Send an element to all downstream channels."""
        raise NotImplementedError

    def emit_to(self, tag: str, element: StreamElement) -> None:
        """Send an element to a named side output (late data, errors)."""
        raise NotImplementedError

    # --- time -----------------------------------------------------------
    def processing_time(self) -> float:
        """Current virtual processing time."""
        raise NotImplementedError

    def current_watermark(self) -> float:
        """The task's merged event-time watermark."""
        raise NotImplementedError

    def register_event_timer(self, timestamp: float, payload: Any = None) -> None:
        """Fire :meth:`Operator.on_event_timer` once the watermark passes."""
        raise NotImplementedError

    def register_processing_timer(self, timestamp: float, payload: Any = None) -> None:
        """Fire :meth:`Operator.on_processing_timer` at a virtual time."""
        raise NotImplementedError

    # --- state ----------------------------------------------------------
    @property
    def current_key(self) -> Any:
        raise NotImplementedError

    def set_current_key(self, key: Any) -> None:
        """Scope keyed state to ``key``.

        The runtime sets the key from each record before calling
        ``process``; batch-aware operators (and the scalar fallback) call
        this per row/group before touching state. The default follows the
        ``current_key_value`` attribute convention shared by the runtime
        context and test stubs; contexts without it ignore the call.
        """
        try:
            self.current_key_value = key
        except AttributeError:  # pragma: no cover - slotted custom contexts
            pass

    def state(self, descriptor: "StateDescriptor") -> Any:
        """Return the keyed state handle for ``descriptor`` under the
        current key (set by the runtime from the record being processed)."""
        raise NotImplementedError

    def operator_state(self, name: str, default: Any = None) -> Any:
        """Read non-keyed operator-scoped state by name."""
        raise NotImplementedError

    def set_operator_state(self, name: str, value: Any) -> None:
        """Write non-keyed operator-scoped state by name."""
        raise NotImplementedError

    # --- cost -----------------------------------------------------------
    def add_cost(self, seconds: float) -> None:
        """Charge extra virtual processing time for the current element.

        The runtime context accumulates this into the task's cost model;
        the default is a no-op so stub contexts in tests stay cheap.
        """

    # --- observability ----------------------------------------------------
    def profile(self, label: str) -> Any:
        """Open a profiling scope attributing :meth:`add_cost` charges to a
        flame sub-path (see :mod:`repro.obs.profile`). The default returns
        a no-op scope so operators can always write ``with ctx.profile(..)``."""
        return _NULL_SCOPE


class _NullScope:
    """No-op context manager backing the default :meth:`OperatorContext.profile`."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _BatchCollector(OperatorContext):
    """Context proxy backing the scalar fallback of ``process_batch``.

    Buffers ``emit`` calls so consecutive records rebuild into one
    :class:`RecordBatch` while control elements stay in their emitted
    position; every other context service passes straight through to the
    real runtime context.
    """

    __slots__ = ("_parent", "_out")

    def __init__(self, parent: OperatorContext) -> None:
        self._parent = parent
        self._out: list[StreamElement] = []

    # --- buffered output --------------------------------------------------
    def emit(self, element: StreamElement) -> None:
        self._out.append(element)

    def flush(self) -> None:
        """Re-batch buffered records and forward everything to the parent."""
        parent = self._parent
        out = self._out
        run: list[Record] = []
        for element in out:
            if isinstance(element, Record):
                run.append(element)
                continue
            if run:
                parent.emit(_rebatch(run))
                run = []
            parent.emit(element)
        if run:
            parent.emit(_rebatch(run))
        out.clear()

    # --- passthrough ------------------------------------------------------
    @property
    def current_key_value(self) -> Any:
        return getattr(self._parent, "current_key_value", None)

    @property
    def task_name(self) -> str:
        return self._parent.task_name

    @property
    def subtask_index(self) -> int:
        return self._parent.subtask_index

    @property
    def parallelism(self) -> int:
        return self._parent.parallelism

    def emit_to(self, tag: str, element: StreamElement) -> None:
        self._parent.emit_to(tag, element)

    def processing_time(self) -> float:
        return self._parent.processing_time()

    def current_watermark(self) -> float:
        return self._parent.current_watermark()

    def register_event_timer(self, timestamp: float, payload: Any = None) -> None:
        self._parent.register_event_timer(timestamp, payload)

    def register_processing_timer(self, timestamp: float, payload: Any = None) -> None:
        self._parent.register_processing_timer(timestamp, payload)

    @property
    def current_key(self) -> Any:
        return self._parent.current_key

    def set_current_key(self, key: Any) -> None:
        self._parent.set_current_key(key)

    def state(self, descriptor: "StateDescriptor") -> Any:
        return self._parent.state(descriptor)

    def operator_state(self, name: str, default: Any = None) -> Any:
        return self._parent.operator_state(name, default)

    def set_operator_state(self, name: str, value: Any) -> None:
        self._parent.set_operator_state(name, value)

    def add_cost(self, seconds: float) -> None:
        self._parent.add_cost(seconds)

    def profile(self, label: str) -> Any:
        return self._parent.profile(label)


def _rebatch(records: list[Record]) -> StreamElement:
    """One record stays scalar; a run becomes a batch."""
    if len(records) == 1:
        return records[0]
    return RecordBatch.from_records(records)


class Operator:
    """Base class for all dataflow operators.

    Lifecycle: ``open`` → any number of ``on_element``/timer calls →
    ``flush`` (end of bounded input) → ``close``. Checkpointing calls
    ``snapshot_state``/``restore_state`` between elements, never during one.
    """

    #: operators that only route/stamp records can declare zero cost
    processing_cost: float | None = None

    def open(self, ctx: OperatorContext) -> None:
        """One-time initialization (state descriptors, timers)."""

    def close(self, ctx: OperatorContext) -> None:
        """Release resources; called exactly once per (re)incarnation."""

    # --- element dispatch -------------------------------------------------
    def on_element(self, element: StreamElement, ctx: OperatorContext) -> None:
        """Dispatch an incoming element to the typed handler."""
        if isinstance(element, Record):
            self.process(element, ctx)
        elif isinstance(element, RecordBatch):
            self.process_batch(element, ctx)
        elif isinstance(element, Watermark):
            self.on_watermark(element, ctx)
        elif isinstance(element, Punctuation):
            self.on_punctuation(element, ctx)
        elif isinstance(element, Heartbeat):
            self.on_heartbeat(element, ctx)
        elif isinstance(element, CheckpointBarrier):
            # Barriers are handled by the task (alignment + snapshot), which
            # forwards them itself; an operator only observes them via
            # snapshot_state(). Receiving one here means a test drove the
            # operator directly — forward it unchanged.
            ctx.emit(element)
        elif isinstance(element, EndOfStream):
            self.flush(ctx)
            ctx.emit(element)
        elif isinstance(element, LatencyMarker):
            ctx.emit(element)
        else:
            raise TypeError(f"unknown stream element {element!r}")

    def process(self, record: Record, ctx: OperatorContext) -> None:
        """Handle one data record. Subclasses almost always override this."""
        ctx.emit(record)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        """Handle a columnar batch of records.

        The default is the *scalar fallback*: explode the batch, run
        ``process`` per record with the key scoped exactly as the scalar
        runtime would, and rebuild consecutive emitted records into batches
        (control elements emitted in between keep their position). Operators
        with a vectorized implementation override this.
        """
        collector = _BatchCollector(ctx)
        set_key = ctx.set_current_key
        process = self.process
        for record in batch.records():
            set_key(record.key)
            process(record, collector)
        collector.flush()

    def on_watermark(self, watermark: Watermark, ctx: OperatorContext) -> None:
        """Handle event-time progress; default forwards it downstream.

        The runtime already merged per-channel watermarks (min over inputs),
        so the operator sees a monotone sequence.
        """
        ctx.emit(watermark)

    def on_punctuation(self, punctuation: Punctuation, ctx: OperatorContext) -> None:
        """Handle an in-band punctuation; default forwards it."""
        ctx.emit(punctuation)

    def on_heartbeat(self, heartbeat: Heartbeat, ctx: OperatorContext) -> None:
        """Handle a source heartbeat; default forwards it."""
        ctx.emit(heartbeat)

    def on_event_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        """Fired when the watermark passes a registered event-time timer."""

    def on_processing_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        """Fired at a registered virtual processing time."""

    def flush(self, ctx: OperatorContext) -> None:
        """Emit any buffered results; called at end of bounded input."""

    # --- checkpointing ------------------------------------------------------
    def snapshot_state(self) -> Any:
        """Return operator-local (non-keyed) state for a checkpoint.

        Keyed state lives in the state backend and is snapshotted by the
        task; this hook is for operator-internal buffers (e.g. the NFA's
        partial matches, a join's buffers) that are not in keyed state.
        """
        return None

    def restore_state(self, snapshot: Any) -> None:
        """Restore state captured by :meth:`snapshot_state`."""

    @property
    def name(self) -> str:
        return type(self).__name__
