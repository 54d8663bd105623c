"""Stateless and simply-stateful transformation operators.

These are the MapReduce-influenced functional primitives (survey §2.1) that
second-generation systems exposed: map, filter, flat-map, key-by, reduce,
and a general process function with timer/state access.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.events import Record, RecordBatch
from repro.core.operators.base import Operator, OperatorContext
from repro.state.api import ValueStateDescriptor


class MapOperator(Operator):
    """Applies ``fn`` to each record value, preserving time and key.

    ``batch_fn``, when given, is a vectorized kernel taking the whole value
    column (a list) and returning the transformed column — used by the
    columnar path to avoid the per-element Python call.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        name: str = "map",
        batch_fn: Callable[[list], Iterable[Any]] | None = None,
    ) -> None:
        self._fn = fn
        self._batch_fn = batch_fn
        self._name = name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        ctx.emit(record.with_value(self._fn(record.value)))

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        if self._batch_fn is not None:
            values = list(self._batch_fn(batch.values))
        else:
            fn = self._fn
            values = [fn(v) for v in batch.values]
        ctx.emit(batch.with_values(values))

    @property
    def fn(self) -> Callable[[Any], Any]:
        return self._fn

    @property
    def name(self) -> str:
        return self._name


class FilterOperator(Operator):
    """Keeps records whose value satisfies ``predicate``.

    ``batch_predicate``, when given, takes the whole value column and
    returns a boolean mask (any sequence of truthy flags) — e.g. a CQL
    WHERE clause compiled to a NumPy mask. It must select exactly the rows
    the scalar predicate would; if it raises, the batch falls back to the
    scalar predicate row by row.
    """

    def __init__(
        self,
        predicate: Callable[[Any], bool],
        name: str = "filter",
        batch_predicate: Callable[[list], Any] | None = None,
    ) -> None:
        self._predicate = predicate
        self._batch_predicate = batch_predicate
        self._name = name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        if self._predicate(record.value):
            ctx.emit(record)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        mask = None
        if self._batch_predicate is not None:
            try:
                mask = self._batch_predicate(batch.values)
            except Exception:
                mask = None
        if mask is not None:
            keep = [i for i, flag in enumerate(mask) if flag]
        else:
            predicate = self._predicate
            keep = [i for i, v in enumerate(batch.values) if predicate(v)]
        if not keep:
            return
        if len(keep) == len(batch):
            ctx.emit(batch)
        else:
            ctx.emit(batch.select(keep))

    @property
    def fn(self) -> Callable[[Any], bool]:
        return self._predicate

    @property
    def name(self) -> str:
        return self._name


class FlatMapOperator(Operator):
    """Expands each record into zero or more records."""

    def __init__(self, fn: Callable[[Any], Iterable[Any]], name: str = "flat_map") -> None:
        self._fn = fn
        self._name = name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        for out in self._fn(record.value):
            ctx.emit(record.with_value(out))

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        fn = self._fn
        values: list[Any] = []
        origins: list[int] = []
        for i, v in enumerate(batch.values):
            for out in fn(v):
                values.append(out)
                origins.append(i)
        if values:
            ctx.emit(batch.replicate(origins, values))

    @property
    def fn(self) -> Callable[[Any], Iterable[Any]]:
        return self._fn

    @property
    def name(self) -> str:
        return self._name


class KeyByOperator(Operator):
    """Stamps the partitioning key on each record.

    The actual shuffling happens in the channel partitioner; this operator
    only evaluates the key selector so downstream tasks see ``record.key``.
    """

    processing_cost = 0.0

    def __init__(self, key_selector: Callable[[Any], Any], name: str = "key_by") -> None:
        self._selector = key_selector
        self._name = name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        ctx.emit(record.with_key(self._selector(record.value)))

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        selector = self._selector
        ctx.emit(batch.with_keys([selector(v) for v in batch.values]))

    @property
    def fn(self) -> Callable[[Any], Any]:
        return self._selector

    @property
    def name(self) -> str:
        return self._name


class ReduceOperator(Operator):
    """Keyed rolling reduce: emits the running aggregate per key.

    State is a single value per key in the task's state backend, making this
    the smallest example of the survey's "internally managed state" (§3.1).
    """

    def __init__(self, fn: Callable[[Any, Any], Any], name: str = "reduce") -> None:
        self._fn = fn
        self._name = name
        self._descriptor = ValueStateDescriptor(f"{name}-acc")

    def process(self, record: Record, ctx: OperatorContext) -> None:
        state = ctx.state(self._descriptor)
        current = state.value()
        if record.is_retraction:
            # Rolling reduce cannot in general invert; retractions are
            # forwarded for downstream consolidation instead.
            ctx.emit(record)
            return
        merged = record.value if current is None else self._fn(current, record.value)
        state.update(merged)
        ctx.emit(record.with_value(merged))

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        # Group rows by key so each key pays one state read + one write per
        # batch instead of one per record; the running aggregate is still
        # folded sequentially in row order, so per-record outputs (and float
        # accumulation order) are byte-identical to the scalar path.
        values = batch.values
        keys = batch.keys
        signs = batch.signs
        out = list(values)  # retraction rows pass through unchanged
        groups: dict[Any, list[int]] = {}
        for i in range(len(values)):
            if signs is not None and signs[i] < 0:
                continue
            key = keys[i] if keys is not None else None
            rows = groups.get(key)
            if rows is None:
                groups[key] = [i]
            else:
                rows.append(i)
        fn = self._fn
        for key, rows in groups.items():
            ctx.set_current_key(key)
            state = ctx.state(self._descriptor)
            current = state.value()
            for i in rows:
                current = values[i] if current is None else fn(current, values[i])
                out[i] = current
            state.update(current)
        ctx.emit(batch.with_values(out))

    @property
    def name(self) -> str:
        return self._name


class AggregatingOperator(Operator):
    """Keyed incremental aggregate with explicit (create, add, result) triple.

    Unlike :class:`ReduceOperator` the accumulator type may differ from the
    input/output types (e.g. ``(sum, count)`` for a mean).
    """

    def __init__(
        self,
        create: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        result: Callable[[Any], Any],
        name: str = "aggregate",
    ) -> None:
        self._create = create
        self._add = add
        self._result = result
        self._name = name
        self._descriptor = ValueStateDescriptor(f"{name}-acc")

    def process(self, record: Record, ctx: OperatorContext) -> None:
        state = ctx.state(self._descriptor)
        acc = state.value()
        if acc is None:
            acc = self._create()
        acc = self._add(acc, record.value)
        state.update(acc)
        ctx.emit(record.with_value(self._result(acc)))

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        # Same grouping strategy as ReduceOperator: one state round-trip per
        # key per batch, sequential fold preserving scalar output order.
        values = batch.values
        keys = batch.keys
        out: list[Any] = list(values)
        groups: dict[Any, list[int]] = {}
        for i in range(len(values)):
            key = keys[i] if keys is not None else None
            rows = groups.get(key)
            if rows is None:
                groups[key] = [i]
            else:
                rows.append(i)
        add = self._add
        result = self._result
        for key, rows in groups.items():
            ctx.set_current_key(key)
            state = ctx.state(self._descriptor)
            acc = state.value()
            if acc is None:
                acc = self._create()
            for i in rows:
                acc = add(acc, values[i])
                out[i] = result(acc)
            state.update(acc)
        ctx.emit(batch.with_values(out))

    @property
    def name(self) -> str:
        return self._name


class ProcessOperator(Operator):
    """Escape hatch: a user function receiving (record, ctx) directly."""

    def __init__(
        self,
        fn: Callable[[Record, OperatorContext], None],
        on_timer: Callable[[float, Any, Any, OperatorContext], None] | None = None,
        name: str = "process",
    ) -> None:
        self._fn = fn
        self._on_timer = on_timer
        self._name = name

    def process(self, record: Record, ctx: OperatorContext) -> None:
        self._fn(record, ctx)

    def on_event_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        if self._on_timer is not None:
            self._on_timer(timestamp, key, payload, ctx)

    def on_processing_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        # The user callback handles both timer kinds (registered via
        # ctx.register_event_timer / ctx.register_processing_timer).
        if self._on_timer is not None:
            self._on_timer(timestamp, key, payload, ctx)

    @property
    def name(self) -> str:
        return self._name


class UnionOperator(Operator):
    """Merges multiple inputs; the runtime already interleaves them, and
    watermark merging (min over channels) happens in the task, so this is an
    identity on records."""

    processing_cost = 0.0

    def process(self, record: Record, ctx: OperatorContext) -> None:
        ctx.emit(record)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        ctx.emit(batch)

    @property
    def name(self) -> str:
        return "union"


class SinkOperator(Operator):
    """Terminal operator delivering records to a :class:`~repro.io.sinks.Sink`."""

    def __init__(self, sink: Any, name: str = "sink") -> None:
        self._sink = sink
        self._name = name

    def open(self, ctx: OperatorContext) -> None:
        opener = getattr(self._sink, "open", None)
        if opener is not None:
            opener(ctx)

    def process(self, record: Record, ctx: OperatorContext) -> None:
        self._sink.write(record, ctx)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        write_batch = getattr(self._sink, "write_batch", None)
        if write_batch is not None:
            write_batch(batch, ctx)
            return
        write = self._sink.write
        for record in batch.records():
            write(record, ctx)

    def on_watermark(self, watermark, ctx: OperatorContext) -> None:
        handler = getattr(self._sink, "on_watermark", None)
        if handler is not None:
            handler(watermark, ctx)
        ctx.emit(watermark)

    def flush(self, ctx: OperatorContext) -> None:
        flusher = getattr(self._sink, "flush", None)
        if flusher is not None:
            flusher(ctx)

    def on_checkpoint(self, checkpoint_id: int) -> None:
        """Barrier reached the sink: let transactional sinks seal their
        epoch (pre-commit). Committed on checkpoint completion."""
        hook = getattr(self._sink, "on_checkpoint", None)
        if hook is not None:
            hook(checkpoint_id)

    def snapshot_state(self) -> Any:
        snap = getattr(self._sink, "snapshot", None)
        return snap() if snap is not None else None

    def restore_state(self, snapshot: Any) -> None:
        restore = getattr(self._sink, "restore", None)
        if restore is not None and snapshot is not None:
            restore(snapshot)

    @property
    def sink(self) -> Any:
        return self._sink

    @property
    def name(self) -> str:
        return self._name
