"""Fused operator chains: Flink-style operator chaining for the runtime.

The physical planner (:meth:`repro.runtime.engine.Engine._build`) fuses
adjacent forward-partitioned, same-parallelism logical nodes into a single
task running a :class:`ChainedOperator`. Records flow through the chain as
plain Python calls — no channel, no kernel event, no closure per hop — which
is the canonical second-generation optimisation (survey §2.1/§3.3) for
eliminating per-element scheduling overhead on local edges.

Semantics are preserved exactly:

* each member keeps its own keyed/operator state, scoped under a
  ``chain{i}/`` prefix inside the shared task backend;
* timers registered by a member carry the member index in their payload so
  firings route back to the registering operator, with its output feeding
  the rest of the chain;
* watermarks, heartbeats and punctuations traverse every member in order
  (a member may transform, absorb, or emit on them);
* checkpoint barriers are handled once by the owning task — the chain
  snapshots all members' state as one list, so a chained plan checkpoints
  the same logical content as the unchained plan;
* per-record virtual CPU cost is charged per member entered, so the cost
  model sees the same work whether or not the plan is fused — only channel
  latency between the members disappears (which is the point).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.core.events import (
    CheckpointBarrier,
    EndOfStream,
    Heartbeat,
    Punctuation,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
)
from repro.core.operators.base import Operator, OperatorContext
from repro.core.operators.basic import FilterOperator, FlatMapOperator, KeyByOperator, MapOperator

_new_row = tuple.__new__

#: fused-run step kinds, keyed by a member's *exact* type: a subclass may
#: override ``process`` and keeps it
_MAP, _FILTER, _FLAT_MAP, _KEY_BY = range(4)
_FUSABLE = {MapOperator: _MAP, FilterOperator: _FILTER, FlatMapOperator: _FLAT_MAP, KeyByOperator: _KEY_BY}


class _LinkContext(OperatorContext):
    """Context handed to chain member ``index``.

    Emissions feed the next member synchronously; state names and timer
    payloads are scoped by member index; everything else delegates to the
    task's real context.
    """

    __slots__ = ("_chain", "_index", "_parent", "_scoped")

    def __init__(self, chain: "ChainedOperator", index: int) -> None:
        self._chain = chain
        self._index = index
        self._parent: OperatorContext | None = None
        #: descriptor -> (that descriptor, its member-scoped copy)
        self._scoped: dict[Any, tuple[Any, Any]] = {}

    # --- identity -------------------------------------------------------
    @property
    def task_name(self) -> str:
        return self._parent.task_name

    @property
    def subtask_index(self) -> int:
        return self._parent.subtask_index

    @property
    def parallelism(self) -> int:
        return self._parent.parallelism

    # --- output ---------------------------------------------------------
    def emit(self, element: StreamElement) -> None:
        if type(element) is Record and element[5] is None:  # untraced
            self._chain._enter(self._index + 1, element, self._parent)
        else:
            self._chain._feed(self._index + 1, element, self._parent)

    def emit_watermark(self, timestamp: float) -> None:
        self.emit(Watermark(timestamp))

    def emit_to(self, tag: str, element: StreamElement) -> None:
        self._parent.emit_to(tag, element)

    # --- time -----------------------------------------------------------
    def processing_time(self) -> float:
        return self._parent.processing_time()

    def current_watermark(self) -> float:
        return self._parent.current_watermark()

    def register_event_timer(self, timestamp: float, payload: Any = None) -> None:
        self._parent.register_event_timer(timestamp, (self._index, payload))

    def register_processing_timer(self, timestamp: float, payload: Any = None) -> None:
        self._parent.register_processing_timer(timestamp, (self._index, payload))

    # --- state ----------------------------------------------------------
    @property
    def current_key(self) -> Any:
        return self._parent.current_key

    def set_current_key(self, key: Any) -> None:
        self._parent.set_current_key(key)

    def state(self, descriptor: Any) -> Any:
        return self._parent.state(self._scope(descriptor))

    def _scope(self, descriptor: Any) -> Any:
        # Keyed on the descriptor's value (class and name: what == means for
        # descriptors) and checked field by field, never on id(): a freed
        # descriptor's id is recycled, and its scoped copy would be reused.
        entry = self._scoped.get(descriptor)
        if entry is None or (entry[0] is not descriptor and vars(entry[0]) != vars(descriptor)):
            entry = (descriptor, replace(descriptor, name=f"chain{self._index}/{descriptor.name}"))
            self._scoped[descriptor] = entry
        return entry[1]

    def operator_state(self, name: str, default: Any = None) -> Any:
        return self._parent.operator_state(f"chain{self._index}/{name}", default)

    def set_operator_state(self, name: str, value: Any) -> None:
        self._parent.set_operator_state(f"chain{self._index}/{name}", value)

    # --- cost -----------------------------------------------------------
    def add_cost(self, seconds: float) -> None:
        self._parent.add_cost(seconds)

    # --- observability ---------------------------------------------------
    def profile(self, label: str) -> Any:
        return self._parent.profile(label)


class ChainedOperator(Operator):
    """Runs a pipeline of operators fused into one task.

    ``extra_costs[i]`` is the virtual CPU charged when a record *enters*
    member ``i`` — index 0 is never charged because the head's cost is
    carried by the owning task's ``processing_cost``.
    """

    def __init__(
        self,
        operators: list[Operator],
        name: str | None = None,
        extra_costs: list[float] | None = None,
    ) -> None:
        if not operators:
            raise ValueError("chain requires at least one operator")
        self.operators = list(operators)
        self._name = name or "->".join(op.name for op in self.operators)
        self._extra_costs = list(extra_costs) if extra_costs else [0.0] * len(self.operators)
        if len(self._extra_costs) != len(self.operators):
            raise ValueError("extra_costs must match the number of chained operators")
        self._extra_costs[0] = 0.0
        self._links = [_LinkContext(self, i) for i in range(len(self.operators))]
        self._length = len(self.operators)
        self._bound: OperatorContext | None = None
        #: per-member records entered — published as registry gauges by the
        #: observability layer (resets with the operator on reincarnation)
        self.member_records_in = [0] * self._length
        #: ``_runs[i]``: the steps from member ``i`` to the end of its fused
        #: run, or None where member ``i`` is not fusable (and past the tail)
        self._runs: list[tuple | None] = [None] * (self._length + 1)
        steps: tuple = ()
        for index in range(self._length - 1, -1, -1):
            op = self.operators[index]
            kind = _FUSABLE.get(type(op))
            steps = () if kind is None else ((kind, op.fn, self._extra_costs[index], index), *steps)
            self._runs[index] = steps or None

    # ------------------------------------------------------------------
    def _bind(self, ctx: OperatorContext) -> None:
        if self._bound is not ctx:
            self._bound = ctx
            for link in self._links:
                link._parent = ctx

    def _enter(self, index: int, record: Record, ctx: OperatorContext) -> None:
        """An untraced plain ``record`` enters member ``index`` (past the
        tail: out). The one record path — the head, every link and the end of
        every fused run come through here — with the effects ``_feed`` has for
        such a record, member by member, in the same order."""
        steps = self._runs[index]
        if steps is not None:
            # A fused run, in one loop (DESIGN.md, "Fused runs"). Rows are
            # (value, event_time, key, sign, ingest_time, trace=None here).
            counts = self.member_records_in
            for kind, fn, cost, index in steps:
                counts[index] += 1
                if cost:
                    ctx.add_cost(cost)
                ctx.current_key_value = record[2]
                if kind == _MAP:
                    record = _new_row(Record, (fn(record[0]), record[1], record[2], record[3], record[4], None))
                elif kind == _FILTER:
                    if not fn(record[0]):
                        return
                elif kind == _KEY_BY:
                    record = _new_row(Record, (record[0], record[1], fn(record[0]), record[3], record[4], None))
                else:
                    # flat_map: each output crosses the rest of the chain
                    # before the next is drawn, as through emit
                    for value in fn(record[0]):
                        row = _new_row(Record, (value, record[1], record[2], record[3], record[4], None))
                        self._enter(index + 1, row, ctx)
                    return
            # The run is maximal: the member after it is not fusable.
            index += 1
        if index == self._length:
            ctx.emit(record)
            return
        self.member_records_in[index] += 1
        cost = self._extra_costs[index]
        if cost:
            ctx.add_cost(cost)
        ctx.current_key_value = record[2]
        self.operators[index].process(record, self._links[index])

    def _feed(self, index: int, element: StreamElement, ctx: OperatorContext) -> None:
        """Push any ``element`` into chain member ``index`` (past the tail:
        out) — batches, control elements, traced records, subclasses."""
        if index >= self._length:
            ctx.emit(element)
            return
        op = self.operators[index]
        link = self._links[index]
        if isinstance(element, Record):
            self.member_records_in[index] += 1
            cost = self._extra_costs[index]
            if cost:
                ctx.add_cost(cost)
            if element.trace is not None:
                # Record a member sub-span under the task's active span so
                # traces expose the per-operator breakdown inside the fused
                # task (enter == exit: a fused hop has no channel latency).
                tracer = getattr(ctx, "tracer", None)
                if tracer is not None:
                    tracer.record_closed(
                        op.name,
                        element.trace,
                        getattr(ctx, "active_span_id", None),
                        ctx.processing_time(),
                    )
            # Mirror what the task does for the head: the member's keyed
            # state accesses must use the key of the record it is handling.
            ctx.current_key_value = element.key
            op.process(element, link)
        elif isinstance(element, RecordBatch):
            n = len(element)
            self.member_records_in[index] += n
            cost = self._extra_costs[index]
            if cost:
                # Same per-member charge the scalar path pays, amortised
                # into one add_cost call for the whole batch.
                ctx.add_cost(cost * n)
            op.process_batch(element, link)
        elif isinstance(element, Watermark):
            op.on_watermark(element, link)
        elif isinstance(element, Heartbeat):
            op.on_heartbeat(element, link)
        elif isinstance(element, Punctuation):
            op.on_punctuation(element, link)
        elif isinstance(element, CheckpointBarrier):
            # Barriers are task-level; only forward (direct-driven tests).
            link.emit(element)
        elif isinstance(element, EndOfStream):
            op.flush(link)
            link.emit(element)
        else:
            op.on_element(element, link)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, ctx: OperatorContext) -> None:
        self._bind(ctx)
        for op, link in zip(self.operators, self._links):
            op.open(link)

    def close(self, ctx: OperatorContext) -> None:
        self._bind(ctx)
        for op, link in zip(self.operators, self._links):
            op.close(link)

    def flush(self, ctx: OperatorContext) -> None:
        # Flush upstream-first so a member's flush output still traverses
        # the not-yet-flushed members after it.
        self._bind(ctx)
        for op, link in zip(self.operators, self._links):
            op.flush(link)

    # ------------------------------------------------------------------
    # element handling
    # ------------------------------------------------------------------
    def process(self, record: Record, ctx: OperatorContext) -> None:
        if self._bound is not ctx:
            self._bind(ctx)
        if type(record) is Record and record[5] is None:  # untraced
            self._enter(0, record, ctx)
        else:
            self._feed(0, record, ctx)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        self._bind(ctx)
        self._feed(0, batch, ctx)

    def on_watermark(self, watermark: Watermark, ctx: OperatorContext) -> None:
        self._bind(ctx)
        self._feed(0, watermark, ctx)

    def on_heartbeat(self, heartbeat: Heartbeat, ctx: OperatorContext) -> None:
        self._bind(ctx)
        self._feed(0, heartbeat, ctx)

    def on_punctuation(self, punctuation: Punctuation, ctx: OperatorContext) -> None:
        self._bind(ctx)
        self._feed(0, punctuation, ctx)

    def on_element(self, element: StreamElement, ctx: OperatorContext) -> None:
        self._bind(ctx)
        self._feed(0, element, ctx)

    # ------------------------------------------------------------------
    # timers — payloads carry (member_index, inner_payload)
    # ------------------------------------------------------------------
    def on_event_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        self._bind(ctx)
        index, inner = payload
        self.operators[index].on_event_timer(timestamp, key, inner, self._links[index])

    def on_processing_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        self._bind(ctx)
        index, inner = payload
        self.operators[index].on_processing_timer(timestamp, key, inner, self._links[index])

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Any:
        return [op.snapshot_state() for op in self.operators]

    def restore_state(self, snapshot: Any) -> None:
        if snapshot is None:
            return
        for op, member_snapshot in zip(self.operators, snapshot):
            op.restore_state(member_snapshot)

    def on_checkpoint(self, checkpoint_id: int) -> None:
        """Barrier reached the fused task: notify members that care
        (e.g. a chained SinkOperator sealing its transactional epoch)."""
        for op in self.operators:
            hook = getattr(op, "on_checkpoint", None)
            if hook is not None:
                hook(checkpoint_id)

    def on_barrier(self, checkpoint_id: int, ctx: OperatorContext) -> None:
        """Pre-snapshot hook (see ``Task._snapshot_and_forward``): members
        flushing buffered work emit through their link so the output still
        traverses the rest of the chain ahead of the barrier."""
        self._bind(ctx)
        for op, link in zip(self.operators, self._links):
            hook = getattr(op, "on_barrier", None)
            if hook is not None:
                hook(checkpoint_id, link)

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return f"ChainedOperator({self._name!r}, members={self._length})"
