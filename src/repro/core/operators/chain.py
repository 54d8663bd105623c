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

An untraced plain record crosses the chain through code generated for the
chain's shape when it is built (DESIGN.md, "Compiled runs").
"""

from __future__ import annotations

import linecache
import os
from dataclasses import replace
from typing import Any, Callable

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

#: fusable member kinds, keyed by a member's *exact* type: a subclass may
#: override ``process`` and keeps it
_FUSABLE = {MapOperator: "map", FilterOperator: "filter", FlatMapOperator: "flat_map", KeyByOperator: "key_by"}

#: generated code is filed under this package, so profilers attribute it to
#: the operators and tracebacks show its lines (registered with linecache)
_SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
#: entry-point factory per chain shape and charge style; the generated
#: source is a function of the member kinds and ``in_place`` alone, so
#: same-shaped chains compile once
_FACTORIES: dict[tuple[tuple, bool], Callable[..., list]] = {}

_new_handle = tuple.__new__


def _charge(member: int, pad: str, in_place: bool) -> list[str]:
    # the head is never charged: its cost is the task's processing_cost
    if not member:
        return []
    charge = f"ctx.extra_cost += c{member}" if in_place else f"ctx.add_cost(c{member})"
    return [f"{pad}if c{member}:", f"{pad}    {charge}"]


def _run_end(index: int, kinds: tuple) -> int:
    """The first member at or after ``index`` that is not fusable (or the
    chain's length)."""
    while index < len(kinds) and kinds[index] is not None:
        index += 1
    return index


def _entry_name(index: int, kinds: tuple) -> str:
    if index == len(kinds):
        return "out"
    if kinds[index] is None:
        return f"member{index}"
    return f"run{index}_" + "_".join(kinds[index : _run_end(index, kinds)])


def _entry_source(index: int, kinds: tuple, in_place: bool) -> list[str]:
    """The function a plain untraced ``row`` entering member ``index`` runs:
    out of the chain past the tail, one member's ``process`` where it is not
    fusable, else the fused run from ``index`` up to the next member that is
    not — each step with the effects that member's ``process`` and the
    link's ``emit`` would have, in their order. ``in_place``: charges are
    added to ``ctx.extra_cost`` rather than passed to ``ctx.add_cost``."""
    head = f"def {_entry_name(index, kinds)}(row, ctx):"
    if index == len(kinds):
        return [head, "    ctx.emit(row)"]
    if kinds[index] is None:
        return [
            head,
            f"    counts[{index}] += 1",
            *_charge(index, "    ", in_place),
            "    ctx.current_key_value = row[2]",
            f"    op{index}.process(row, link{index})",
        ]
    end = _run_end(index, kinds)
    lines = [head, "    v0 = row[0]", "    k0 = row[2]"]
    # The row is (value, event_time, key, sign, ingest_time, trace=None);
    # only value and key change. A flat_map's outputs are a loop one level
    # deeper, each starting from its parent's key; a filter drops the row
    # by leaving its level (return, or continue to the next output).
    pad, depth, value, key, changed = "    ", 0, "v0", "k0", False
    for member in range(index, end):
        kind = kinds[member]
        lines += [f"{pad}counts[{member}] += 1", *_charge(member, pad, in_place), f"{pad}ctx.current_key_value = {key}"]
        if kind == "map":
            lines.append(f"{pad}{value} = f{member}({value})")
            changed = True
        elif kind == "key_by":
            key = f"k{depth}"
            lines.append(f"{pad}{key} = f{member}({value})")
            changed = True
        elif kind == "filter":
            lines += [f"{pad}if not f{member}({value}):", f"{pad}    {'continue' if depth else 'return'}"]
        else:
            depth += 1
            lines.append(f"{pad}for v{depth} in f{member}({value}):")
            pad, value, changed = pad + "    ", f"v{depth}", True
    row = f"_new_row(Record, ({value}, row[1], {key}, row[3], row[4], None))" if changed else "row"
    lines.append(f"{pad}ctx.emit({row})" if end == len(kinds) else f"{pad}member{end}({row}, ctx)")
    return lines


def _factory(kinds: tuple, in_place: bool) -> Callable[..., list]:
    """``make(counts, costs, ops, links)`` for chains of this shape: binds
    one chain's live counters, costs, members and links as closure cells
    and returns its entry functions, one per member and one past the tail."""
    factory = _FACTORIES.get((kinds, in_place))
    if factory is None:
        lines = ["def make(counts, costs, ops, links):"]
        for member, kind in enumerate(kinds):
            if member:
                lines.append(f"    c{member} = costs[{member}]")
            if kind is None:
                lines += [f"    op{member} = ops[{member}]", f"    link{member} = links[{member}]"]
            else:
                lines.append(f"    f{member} = ops[{member}].fn")
        entries = range(len(kinds) + 1)
        lines += ("    " + line for index in entries for line in _entry_source(index, kinds, in_place))
        lines.append(f"    return [{', '.join(_entry_name(index, kinds) for index in entries)}]\n")
        source = "\n".join(lines)
        filename = os.path.join(_SOURCE_DIR, f"<compiled chain {len(_FACTORIES)}>")
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {"_new_row": tuple.__new__, "Record": Record}
        exec(compile(source, filename, "exec"), namespace)
        factory = _FACTORIES[kinds, in_place] = namespace["make"]
    return factory


class _LinkContext(OperatorContext):
    """Context handed to chain member ``index``.

    Emissions feed the next member synchronously; state names and timer
    payloads are scoped by member index; everything else delegates to the
    task's real context. ``processing_time`` is the parent's own, bound with
    the parent (see ``ChainedOperator._bind``): reading the time runs no
    frame of the link.
    """

    __slots__ = ("_chain", "_index", "_parent", "_scoped", "_next", "_last", "processing_time")

    def __init__(self, chain: "ChainedOperator", index: int) -> None:
        self._chain = chain
        self._index = index
        self._parent: OperatorContext | None = None
        #: the compiled entry of member ``index + 1`` (set by the chain)
        self._next: Callable[[Record, OperatorContext], None] | None = None
        #: descriptor -> (that descriptor, its member-scoped copy)
        self._scoped: dict[Any, tuple[Any, Any]] = {}
        #: the descriptor ``state`` resolved last, with its handle type, the
        #: parent's backend and the scoped copy (reset when the link is bound)
        self._last: tuple[Any, Any, Any, Any] = (None, None, None, None)

    # --- output ---------------------------------------------------------
    def emit(self, element: StreamElement) -> None:
        if type(element) is Record and element[5] is None:  # untraced
            self._next(element, self._parent)
        else:
            self._chain._feed(self._index + 1, element, self._parent)

    def emit_to(self, tag: str, element: StreamElement) -> None:
        self._parent.emit_to(tag, element)

    # --- time -----------------------------------------------------------
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
        # A handle is one (backend, descriptor, key) row typed by the
        # descriptor's kind (OperatorContext.state). Once the parent built
        # one for this descriptor, the next access under a key builds the
        # same row here: the descriptor itself (held, so never a recycled
        # id) stands for its scoped copy, the parent's backend for its own.
        last = self._last
        if descriptor is last[0]:
            key = self._parent.current_key_value
            if key is not None:
                return _new_handle(last[1], (last[2], last[3], key))
        scoped = self._scope(descriptor)
        handle = self._parent.state(scoped)
        self._last = (descriptor, type(handle), handle[0], scoped)
        return handle

    def state_keys(self, descriptor: Any) -> list[Any]:
        return self._parent.state_keys(self._scope(descriptor))

    def _scope(self, descriptor: Any) -> Any:
        # Keyed on the descriptor's value (class and name: what == means for
        # descriptors) and checked field by field, never on id(): a freed
        # descriptor's id is recycled, and its scoped copy would be reused.
        entry = self._scoped.get(descriptor)
        if entry is None or (entry[0] is not descriptor and vars(entry[0]) != vars(descriptor)):
            entry = (descriptor, replace(descriptor, name=f"chain{self._index}/{descriptor.name}"))
            self._scoped[descriptor] = entry
        return entry[1]

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
        #: the compiler's input: each member's fusable kind, None where not
        self._kinds = tuple(_FUSABLE.get(type(op)) for op in self.operators)
        #: ``_entries[i](row, ctx)``: an untraced plain ``row`` enters member
        #: ``i`` (past the tail: out) — the one record path, compiled
        self._entries: list[Callable[[Record, OperatorContext], None]] = []
        #: whether the entries add member charges to ``ctx.extra_cost``
        #: themselves rather than through ``ctx.add_cost`` (see record_entry)
        self._in_place = False
        self._use_entries(False)

    # ------------------------------------------------------------------
    def _use_entries(self, in_place: bool) -> None:
        self._in_place = in_place
        self._entries = _factory(self._kinds, in_place)(
            self.member_records_in, self._extra_costs, self.operators, self._links
        )
        for link, entry in zip(self._links, self._entries[1:]):
            link._next = entry

    def _bind(self, ctx: OperatorContext) -> None:
        """Point every link at ``ctx``, a context other than the bound one.
        Only ``open`` and ``record_entry`` (and ``process``, for a direct
        driver) bind: a task passes the one context it opened the chain
        with to every later call."""
        self._bound = ctx
        processing_time = getattr(ctx, "processing_time", None)
        for link in self._links:
            link._parent = ctx
            link._last = (None, None, None, None)
            if processing_time is not None:
                link.processing_time = processing_time
        if self._in_place:
            self._use_entries(False)  # a new context charges through add_cost

    def record_entry(
        self, ctx: OperatorContext, add_in_place: bool = False
    ) -> Callable[[Record, OperatorContext], None] | None:
        """Bind to ``ctx`` and return the function ``process`` hands an
        untraced plain ``Record`` to, for a task to call without the
        ``process`` frame (setting the key is the entry's own first step).
        ``add_in_place``: ``ctx.add_cost(s)`` is ``ctx.extra_cost += s``, so
        the chain's record path adds member charges there itself — the same
        float additions, in the same order, without the calls. None when
        ``process`` is not this class's own (a subclass's, a patch's): that
        ``process`` must run."""
        if type(self).process is not _PROCESS:
            return None
        if self._bound is not ctx:
            self._bind(ctx)
        if add_in_place != self._in_place:
            self._use_entries(add_in_place)
        return self._entries[0]

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
        if self._bound is not ctx:
            self._bind(ctx)
        for op, link in zip(self.operators, self._links):
            op.open(link)

    def flush(self, ctx: OperatorContext) -> None:
        # Flush upstream-first so a member's flush output still traverses
        # the not-yet-flushed members after it.
        for op, link in zip(self.operators, self._links):
            op.flush(link)

    # ------------------------------------------------------------------
    # element handling
    # ------------------------------------------------------------------
    def process(self, record: Record, ctx: OperatorContext) -> None:
        if self._bound is not ctx:
            self._bind(ctx)
        if type(record) is Record and record[5] is None:  # untraced
            self._entries[0](record, ctx)
        else:
            self._feed(0, record, ctx)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        self._feed(0, batch, ctx)

    def on_watermark(self, watermark: Watermark, ctx: OperatorContext) -> None:
        self._feed(0, watermark, ctx)

    def on_heartbeat(self, heartbeat: Heartbeat, ctx: OperatorContext) -> None:
        self._feed(0, heartbeat, ctx)

    def on_punctuation(self, punctuation: Punctuation, ctx: OperatorContext) -> None:
        self._feed(0, punctuation, ctx)

    def on_element(self, element: StreamElement, ctx: OperatorContext) -> None:
        self._feed(0, element, ctx)

    # ------------------------------------------------------------------
    # timers — payloads carry (member_index, inner_payload)
    # ------------------------------------------------------------------
    def on_event_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        index, inner = payload
        self.operators[index].on_event_timer(timestamp, key, inner, self._links[index])

    def on_processing_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
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
        """Pre-snapshot hook (see ``Task._release``): members
        flushing buffered work emit through their link so the output still
        traverses the rest of the chain ahead of the barrier."""
        for op, link in zip(self.operators, self._links):
            hook = getattr(op, "on_barrier", None)
            if hook is not None:
                hook(checkpoint_id, link)

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:
        return f"ChainedOperator({self._name!r}, members={self._length})"


#: the record path's own ``process`` (``record_entry`` bypasses no other)
_PROCESS = ChainedOperator.process
