"""Tasks: the unit of parallel execution, failure, and recovery.

A :class:`Task` is one parallel instance of a logical operator. It owns a
mailbox fed by input channels, a keyed state backend, timers, and its output
gates. The survey's system aspects all meet here:

* cost model — each element charges virtual CPU plus state-access latency,
  so queueing delay and backpressure *emerge* rather than being scripted;
* watermark merging and event-time timers (§2.2/§2.3);
* aligned checkpoint barriers (§3.1/§3.2, Chandy-Lamport as used by Flink);
* fail-stop kill / restore with incarnation guards (§3.2);
* credit-based output blocking (§3.3 backpressure).

:class:`SourceTask` drives a :class:`~repro.io.sources.Workload`, applies a
watermark strategy, and supports offset rewind for exactly-once recovery.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.events import (
    MAX_TIMESTAMP,
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
from repro.core.keys import key_group_for
from repro.core.operators.base import Operator, OperatorContext
from repro.errors import RuntimeStateError
from repro.obs.profile import NULL_PROFILE_SCOPE, Profiler, ProfileScope
from repro.obs.trace import TraceContext
from repro.progress.watermarks import WatermarkMerger, WatermarkStrategy
from repro.runtime.channel import OutputGate
from repro.runtime.metrics import TaskMetrics
from repro.sim.kernel import Kernel, PeriodicTimer
from repro.state.api import HANDLE_TYPES, ReducingState

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.sources import Workload
    from repro.obs import Observability
    from repro.state.api import KeyedStateBackend


@dataclass
class TaskSnapshot:
    """Everything needed to reincarnate a task at a checkpoint.

    In incremental checkpoint mode ``keyed_state`` stays empty and ``delta``
    carries the :class:`~repro.checkpoint.incremental.DeltaSnapshot` link
    captured at the barrier; keyed state is then restored by replaying the
    engine's base + delta chain up to this link.
    """

    task_name: str
    checkpoint_id: int
    keyed_state: dict[str, dict[Any, bytes]]
    operator_state: Any
    #: the event-timer heap array as captured: (timestamp, seq, key, payload)
    timers: list[tuple[float, int, Any, Any]]
    watermark: float
    source_offset: int | None = None
    taken_at: float = 0.0
    #: incremental mode: the chain link captured at this barrier
    delta: Any = None

    def size_bytes(self) -> int:
        """Approximate snapshot volume (drives recovery-cost models).

        For an incremental capture this is the *delta* volume — the bytes
        the persist phase actually uploads — not the full state size.
        """
        if self.delta is not None:
            return self.delta.size_bytes() + 64
        total = sum(
            len(data) + 16 for entries in self.keyed_state.values() for data in entries.values()
        )
        total += 64  # headers, operator state envelope
        return total


@dataclass
class _ProcTimer:
    timestamp: float
    key: Any
    payload: Any
    fired: bool = False


@dataclass(slots=True)
class _MailboxItem:
    channel_index: int
    element: StreamElement | _ProcTimer
    #: the credit-bounded channel that delivered this element; its credit is
    #: returned when processing completes (None for unbounded links and
    #: local injections: nothing to return)
    via: Any = None


_new_handle = tuple.__new__

#: ``Task._busy_until`` outside a finite elided interval
_IDLE = float("-inf")
_EVENT_PENDING = float("inf")


class TaskContext(OperatorContext):
    """Concrete operator context bound to one task."""

    def __init__(self, task: "Task") -> None:
        self._task = task
        self.current_key_value: Any = None
        self._extra_cost = 0.0

    # --- identity -------------------------------------------------------
    @property
    def task_name(self) -> str:
        return self._task.name

    @property
    def task(self) -> "Task":
        """The owning task — transactional operators bind their shared
        store to it (gate hooks, out-of-band commit emission)."""
        return self._task

    @property
    def subtask_index(self) -> int:
        return self._task.subtask_index

    @property
    def parallelism(self) -> int:
        return self._task.parallelism

    # --- output ---------------------------------------------------------
    def emit(self, element: StreamElement) -> None:
        self._task.collect_output(element)

    def emit_watermark(self, timestamp: float) -> None:
        """Emit a watermark with the given timestamp."""
        self._task.collect_output(Watermark(timestamp))

    def emit_to(self, tag: str, element: StreamElement) -> None:
        self._task.collect_side_output(tag, element)

    # --- time -----------------------------------------------------------
    def processing_time(self) -> float:
        return self._task.kernel.now()

    def current_watermark(self) -> float:
        return self._task.current_watermark

    def register_event_timer(self, timestamp: float, payload: Any = None) -> None:
        self._task.register_event_timer(timestamp, self.current_key_value, payload)

    def register_processing_timer(self, timestamp: float, payload: Any = None) -> None:
        self._task.register_processing_timer(timestamp, self.current_key_value, payload)

    # --- state ----------------------------------------------------------
    @property
    def current_key(self) -> Any:
        return self.current_key_value

    def set_current_key(self, key: Any) -> None:
        self.current_key_value = key

    def state(self, descriptor) -> Any:
        key = self.current_key_value
        handle_type = HANDLE_TYPES.get(descriptor.kind)
        if key is None or handle_type is None or handle_type is ReducingState:
            # the backend's handle() raises the typed refusals (no key,
            # unknown kind, a reducing state without its reduce_fn)
            return self._task.state_backend.handle(descriptor, key)
        return _new_handle(handle_type, (self._task.state_backend, descriptor, key))

    def operator_state(self, name: str, default: Any = None) -> Any:
        return self._task.operator_store.get(name, default)

    def set_operator_state(self, name: str, value: Any) -> None:
        self._task.operator_store[name] = value

    # --- cost injection ---------------------------------------------------
    def add_cost(self, seconds: float) -> None:
        """Charge extra virtual processing time for the current element
        (models external RPCs, accelerator kernels, etc.)."""
        self._extra_cost += seconds

    # --- observability ----------------------------------------------------
    def profile(self, label: str) -> Any:
        """Open a :class:`~repro.obs.profile.ProfileScope` attributing
        ``add_cost`` charges to a flame sub-path (no-op when profiling is
        off)."""
        profiler = self._task._profiler
        if profiler is None:
            return NULL_PROFILE_SCOPE
        return ProfileScope(profiler, self._task.name, self, label)

    @property
    def tracer(self) -> Any:
        """The engine tracer, or None when tracing is off (chain members
        record sub-spans through this)."""
        return self._task._tracer

    @property
    def active_span_id(self) -> int | None:
        """Span id of the element currently being handled (parent link for
        chain-member sub-spans)."""
        span = self._task._active_span
        return span.span_id if span is not None else None


class Task:
    """One parallel subtask executing an operator instance."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        operator: Operator,
        state_backend: "KeyedStateBackend",
        subtask_index: int = 0,
        parallelism: int = 1,
        processing_cost: float = 2e-5,
        timer_cost: float = 5e-6,
        metrics: TaskMetrics | None = None,
        engine: Any = None,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.operator = operator
        #: the shared txn store of a transactional operator (None otherwise);
        #: drives the checkpoint fence protocol and the run loop's dispatch rule
        self._txn_gate = getattr(operator, "txn_gate", None)
        self.state_backend = state_backend
        self.subtask_index = subtask_index
        self.parallelism = parallelism
        self.processing_cost = (
            operator.processing_cost if operator.processing_cost is not None else processing_cost
        )
        self.timer_cost = timer_cost
        self.metrics = metrics or TaskMetrics(task_name=name)
        self.engine = engine

        self.ctx = TaskContext(self)
        self.operator_store: dict[str, Any] = {}
        self.output_gates: list[OutputGate] = []
        self.input_channel_count = 0
        self._feedback_channels: set[int] = set()
        #: deliveries seen on feedback channels (async-loop quiescence probe)
        self._feedback_deliveries = 0
        #: input channels detached by a scale-in; they stay retired through recovery
        self._retired_channels: set[int] = set()
        #: True while an end-of-stream drain probe (feedback loop / rescale
        #: sibling group) is armed
        self._draining = False
        self._rescale_draining = False
        self._merger = WatermarkMerger(0)
        self._merger_slots: dict[int, int] = {}

        self._mailbox: deque[_MailboxItem] = deque()
        #: the task is in service through this virtual time (inclusive).
        #: ``_EVENT_PENDING`` while a kernel event (completion, dispatch hop)
        #: will end the service and pull the next item; a finite time when
        #: that event was elided (see _process_next); ``_IDLE`` otherwise
        self._busy_until = _IDLE
        #: True while a recovery protocol holds the mailbox (see suspend())
        self._suspended = False
        self._output_blocked = False
        self._blocked_since: float | None = None
        self._pending_output: deque[StreamElement] = deque()
        self._side_pending: list[tuple[str, StreamElement]] = []

        self._event_timers: list[tuple[float, int, Any, Any]] = []
        self._timer_seq = itertools.count()
        self._pending_proc_timers: set[int] = set()
        self._proc_timer_registry: dict[int, _ProcTimer] = {}

        self._eos_channels: set[int] = set()
        #: channel -> virtual time its EndOfStream was delivered (alignment
        #: uses this to tell "finished before the barrier was injected" from
        #: "barrier lost in flight")
        self._eos_at: dict[int, float] = {}
        self.finished = False
        self.dead = False
        self.incarnation = 0

        # observability (bound by Engine via attach_obs; the disabled path
        # costs one `is None` test per feature)
        self._obs: "Observability | None" = None
        self._tracer: Any = None
        self._profiler: Any = None
        #: this task's flame paths, one per lane the run loop charges
        self._flame_paths = tuple(f"{name};{lane}" for lane in Profiler.LANES)
        self._active_span: Any = None
        self._trace_mark = 0

        # checkpoint alignment
        self._align_id: int | None = None
        self._align_seen: set[int] = set()
        self._align_barrier: CheckpointBarrier | None = None
        self._align_buffer: list[_MailboxItem] = []
        self._blocked_inputs: set[int] = set()
        self.last_snapshot: TaskSnapshot | None = None
        self.align_unaligned = False  # True → at-least-once (no blocking)

        self.current_watermark = float("-inf")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_output(self, gate: OutputGate) -> None:
        """Wire an output gate (one per outgoing logical edge)."""
        self.output_gates.append(gate)

    def register_input_channel(self, is_feedback: bool = False) -> int:
        """Allocate the next input channel index; returns it."""
        index = self.input_channel_count
        self.input_channel_count += 1
        if is_feedback:
            self._feedback_channels.add(index)
        else:
            slot = self._merger.add_channel(float("-inf"))
            self._merger_slots[index] = slot
        return index

    def retire_input_channel(self, channel_index: int) -> None:
        """Detach an input channel (scale-in / dynamic rewiring): it stops
        gating watermarks and end-of-stream accounting."""
        if channel_index in self._retired_channels:
            return
        self._retired_channels.add(channel_index)
        slot = self._merger_slots.pop(channel_index, None)
        if slot is not None:
            merged = self._merger.retire_channel(slot)
            if merged is not None and merged > self.current_watermark:
                self.current_watermark = merged
                self._fire_event_timers(merged)
                self.operator.on_watermark(Watermark(merged), self.ctx)
                self._flush_outputs()
        self._feedback_channels.discard(channel_index)
        self._eos_channels.add(channel_index)
        self._eos_at.setdefault(channel_index, self.kernel.now())

    def attach_obs(self, obs: "Observability") -> None:
        """Bind the engine's observability bundle; tracer/profiler refs are
        hoisted (None when the feature is off) so hot-path guards stay one
        attribute test."""
        self._obs = obs
        self._tracer = obs.tracer if obs.tracer.active else None
        self._profiler = obs.profiler if obs.profiler.enabled else None

    def start(self) -> None:
        """Record start time and open the operator."""
        self.metrics.started_at = self.kernel.now()
        self.operator.open(self.ctx)

    # ------------------------------------------------------------------
    # input path
    # ------------------------------------------------------------------
    #: when set (by an active-standby manager), deliveries during downtime
    #: are parked here instead of dropped — the hot replica "received" them
    ha_buffer: list | None = None
    #: when set (by live migration), maps a key to its owning Task so
    #: in-flight records routed under the old partitioning are forwarded
    reroute: Any = None
    #: when set (by the autoscaler's hot-key detector), counts processed
    #: records per key group: {key_group: count}. None on the production
    #: path — the cost is one attribute test per record.
    _keygroup_counts: Any = None
    _keygroup_maxp: int = 0
    #: True while a finished task has been reopened to absorb live-migration
    #: stragglers (records rerouted to it after it saw end-of-stream); the
    #: task re-finishes once its mailbox drains again
    _reopened: bool = False
    #: when set (by live migration), a callable ``(task) -> bool`` that is
    #: True once no sibling or retired input link of the rescaled node can
    #: still produce a straggler for this task. A rescaled task holds back
    #: its end-of-stream until the predicate holds, so downstream never sees
    #: a final EOS with rerouted records still in flight behind it.
    rescale_group_ready: Any = None
    #: True while a transactional operator has a txn in flight (execute →
    #: deferred commit): the mailbox — including checkpoint barriers — stays
    #: queued, so a barrier can never be processed mid-transaction
    _txn_hold: bool = False
    #: checkpoint id this task is parked on awaiting the shared txn store's
    #: whole-store fence capture (None when not parked)
    _txn_parked: Any = None

    def enable_keygroup_tracking(self, max_parallelism: int) -> None:
        """Start counting processed records per key group (hot-key skew
        detection); idempotent."""
        if self._keygroup_counts is None:
            self._keygroup_counts = {}
        self._keygroup_maxp = max_parallelism

    def disable_keygroup_tracking(self) -> None:
        """Stop counting and drop the histogram."""
        self._keygroup_counts = None

    def deliver(self, channel_index: int, element: StreamElement, via: Any = None) -> None:
        """Channel callback: serve the element in place when the task is
        idle and unheld, else enqueue it (dropped/parked when down)."""
        if self.dead:
            if self.ha_buffer is not None:
                self.ha_buffer.append(_MailboxItem(channel_index, element))
            elif isinstance(element, Record):
                self.metrics.dropped += 1
            elif isinstance(element, RecordBatch):
                # A batch drops all its rows at once; conservation oracles
                # count records, not elements (a lost watermark, marker or
                # barrier is not a lost record).
                self.metrics.dropped += len(element)
            # Either way, return the credit so the channel doesn't leak
            # capacity while we are down.
            if via is not None:
                via.return_credit()
            return
        feedback = self._feedback_channels
        if feedback and channel_index in feedback and not self.finished:
            self._feedback_deliveries += 1
        if self.finished:
            # A retired (scaled-in) task still forwards misrouted records;
            # an owner that already finished reopens (enqueue_local) so the
            # straggler is folded into the state that migrated to it.
            if self.reroute is not None:
                if isinstance(element, Record) and element.key is not None:
                    owner = self.reroute(element.key)
                    if owner is not None:
                        owner.enqueue_local(element)
                elif isinstance(element, RecordBatch):
                    for record in element.records():
                        if record.key is None:
                            continue
                        owner = self.reroute(record.key)
                        if owner is not None:
                            owner.enqueue_local(record)
            if via is not None:
                via.return_credit()
            return
        if (
            self._busy_until != _EVENT_PENDING  # first: a busy task stops here
            and not self._mailbox
            and not self._blocked_inputs
            and not (self._suspended or self._txn_hold or self._output_blocked)
            and self._txn_parked is None
            and self._txn_gate is None
        ):
            now = self.kernel.now()
            if now > self._busy_until:
                # Idle and unheld: _maybe_schedule -> _process_next would pop
                # this very element inline, so it is served without queueing.
                self._busy_until = _EVENT_PENDING
                self._serve(channel_index, element, via, now)
                return
        self._mailbox.append(_MailboxItem(channel_index, element, via))
        self._maybe_schedule()

    def enqueue_local(self, element: StreamElement | _ProcTimer, channel_index: int = -1) -> None:
        """Inject an element bypassing channels (timers, dynamic topologies,
        function-runtime deliveries)."""
        if self.dead:
            return
        if self.finished:
            # After a live rescale, a new owner can see end-of-stream before
            # sibling subtasks finish draining records that now belong to it.
            # Reopen for those stragglers — the task re-finishes (flushing
            # and re-forwarding EOS, both idempotent) once it drains again.
            if self.reroute is None or not isinstance(element, (Record, RecordBatch)):
                return
            self.finished = False
            self._reopened = True
        self._mailbox.append(_MailboxItem(channel_index, element))
        self._maybe_schedule()

    @property
    def _busy(self) -> bool:
        """True while an item is in service — the one definition every
        reader outside the run loop uses. A tie counts as busy."""
        return self.kernel.now() <= self._busy_until

    def _maybe_schedule(self) -> None:
        if self._suspended or self._txn_hold or self._txn_parked is not None:
            return
        if self._output_blocked or self.dead or self.finished:
            return
        busy_until = self._busy_until
        if busy_until != _IDLE:
            if busy_until == _EVENT_PENDING:
                return
            if self.kernel.now() <= busy_until:
                if self._mailbox:
                    # The item in service had its completion event elided,
                    # and now there is something for it to pull: schedule
                    # it where it would have been all along.
                    self._busy_until = _EVENT_PENDING
                    self.kernel.call_at(busy_until, self._complete, None, self.incarnation)
                return
        if not self._mailbox:
            if self._reopened:
                # Reopened straggler backlog drained: finish again.
                self._reopened = False
                self._finish_task()
            return
        self._busy_until = _EVENT_PENDING
        # Process inline rather than through a call_soon hop. The hop moved
        # this task's next process() behind events already queued for this
        # instant. Deliveries and completions of other tasks commute with it:
        # they append to other mailboxes, and outputs stay buffered until the
        # completion event either way. Same-instant control events aimed at
        # *this* task (kill, suspend, a mailbox_size sample) are not covered
        # by that argument; that no output, digest or chaos verdict moves is
        # established by the golden, macro and chaos suites. A transactional
        # task is the measured exception: beginning its next txn ahead of a
        # sibling's same-instant commit or lock release changes lock-wait
        # order, so it keeps the hop unless the kernel has nothing else
        # queued at now (then the orders are identical by construction).
        if self._txn_gate is not None and not self.kernel.idle_at_now():
            self.kernel.call_soon(self._process_next, self.incarnation)
        else:
            self._process_next(self.incarnation)

    def _process_next(self, incarnation: int) -> None:
        if incarnation != self.incarnation or self.dead or self.finished:
            return
        mailbox = self._mailbox
        item: _MailboxItem | None = None
        if not self._blocked_inputs:
            if mailbox:
                item = mailbox.popleft()
        else:
            # Skip elements from inputs blocked by barrier alignment.
            while mailbox:
                candidate = mailbox.popleft()
                if candidate.channel_index in self._blocked_inputs and not isinstance(
                    candidate.element, CheckpointBarrier
                ):
                    self._align_buffer.append(candidate)
                    continue
                item = candidate
                break
        if item is None:
            self._busy_until = _IDLE
            return
        self._serve(item.channel_index, item.element, item.via, self.kernel.now())

    def _serve(self, channel_index: int, element: Any, via: Any, started: float) -> None:
        """The one service body: ``deliver`` calls it for an element that
        finds the task idle, ``_process_next`` for one popped off the mailbox."""
        cost = self._handle_item(channel_index, element)
        completion = started + cost
        self.metrics.busy_time += cost
        if (
            self._mailbox
            or via is not None
            or self._pending_output
            or self._side_pending
            or self._txn_gate is not None
            or self._reopened
            or self._output_blocked
        ):
            self.kernel.call_at(completion, self._complete, via, self.incarnation)
        else:
            # The completion event would flush nothing, return no credit and
            # find nothing to pull: being busy until ``completion`` is all it
            # stands for. _maybe_schedule schedules it after all, at this
            # same time, if something arrives before then.
            self._busy_until = completion

    def _complete(self, via: Any, incarnation: int) -> None:
        if incarnation != self.incarnation:
            return
        # Flush buffered outputs now, in order.
        if self._pending_output or self._side_pending:
            self._flush_outputs()
        # Return the credit for this element.
        if via is not None:
            via.return_credit()
        self._busy_until = _IDLE
        if self._output_blocked:
            self._blocked_since = self.kernel.now()
            return
        self._maybe_schedule()

    # ------------------------------------------------------------------
    # element handling (returns virtual cost)
    # ------------------------------------------------------------------
    def _handle_item(self, channel_index: int, element: Any) -> float:
        if type(element) is LatencyMarker:
            # Fast path, hoisted ahead of the state/cost bookkeeping below:
            # markers never touch the operator, state, or timers, so the
            # stats snapshot/diff and cost accounting are provably zero.
            # Intercepted before the operator — markers never enter windows
            # or state. Record the per-operator (and, at a sink, the
            # source→sink) latency, then forward in band at zero cost.
            if self._obs is not None:
                self._obs.record_marker(self, element, self.kernel.now())
            if self.output_gates:
                self.collect_output(element)
            return 0.0
        stats = self.state_backend.stats
        reads_before = stats.reads
        writes_before = stats.writes
        timers_fired = 0
        record_units = 0

        if type(element) is Record or isinstance(element, Record):  # exact type first: no call
            record_units = 1
            if self.reroute is not None and element.key is not None:
                owner = self.reroute(element.key)
                if owner is not None and owner is not self:
                    # Key ownership moved (live migration): forward the
                    # element instead of processing it against empty state.
                    owner.enqueue_local(element)
                    return 0.0
            self.metrics.records_in += 1
            counts = self._keygroup_counts
            if counts is not None and element.key is not None:
                group = key_group_for(element.key, self._keygroup_maxp)
                counts[group] = counts.get(group, 0) + 1
            if element.trace is not None and self._tracer is not None:
                self._active_span = self._tracer.begin(self.name, element.trace, self.kernel.now())
                self._trace_mark = len(self._pending_output)
            self.ctx.current_key_value = element.key
            self.operator.process(element, self.ctx)
        elif isinstance(element, _ProcTimer):
            if not element.fired:
                element.fired = True
                self._pending_proc_timers.discard(id(element))
                self.ctx.current_key_value = element.key
                self.operator.on_processing_timer(
                    element.timestamp, element.key, element.payload, self.ctx
                )
                timers_fired += 1
                record_units = 1
        elif isinstance(element, RecordBatch):
            if self._txn_gate is not None:
                # One record = one transaction: the _txn_hold handshake
                # pauses the mailbox *between* records, which a batch
                # processed as one element would bypass — its deferred
                # commits would overlap and the first to land would release
                # the hold for all of them (late emissions then race task
                # teardown). Re-queue the rows, in order, ahead of
                # everything else queued.
                for record in reversed(list(element.records())):
                    self._mailbox.appendleft(_MailboxItem(channel_index, record))
                return 0.0
            if self.reroute is not None:
                # Live migration in flight: batch routing predates the new
                # key ownership, so explode and re-deliver per record.
                for record in element.records():
                    self.enqueue_local(record)
                return 0.0
            record_units = len(element)
            self.metrics.records_in += record_units
            counts = self._keygroup_counts
            if counts is not None:
                maxp = self._keygroup_maxp
                for key in element.iter_keys():
                    if key is not None:
                        group = key_group_for(key, maxp)
                        counts[group] = counts.get(group, 0) + 1
            self.operator.process_batch(element, self.ctx)
        elif isinstance(element, Watermark):
            self.metrics.watermarks_in += 1
            timers_fired += self._handle_watermark(channel_index, element)
        elif isinstance(element, Heartbeat):
            # Heartbeats advance progress like per-source watermarks and are
            # also forwarded for operators that want them.
            timers_fired += self._advance_watermark(channel_index, element.timestamp)
            self.operator.on_heartbeat(element, self.ctx)
        elif isinstance(element, Punctuation):
            self.operator.on_punctuation(element, self.ctx)
        elif isinstance(element, CheckpointBarrier):
            self._handle_barrier(channel_index, element)
        elif isinstance(element, EndOfStream):
            self._handle_eos(channel_index, element)
        else:
            self.operator.on_element(element, self.ctx)

        # Each term is accounted only when there is one: most inputs touch
        # no state and fire no timer, and x + 0.0 is x.
        cost = 0.0
        if record_units:
            # One unit per record/timer; a batch charges the same per-record
            # model cost in a single multiply.
            cost += self.processing_cost * record_units
        if timers_fired:
            self.metrics.timers_fired += timers_fired
            cost += timers_fired * self.timer_cost
        reads = stats.reads - reads_before
        writes = stats.writes - writes_before
        state_cost = 0.0
        if reads or writes:
            self.metrics.state_reads += reads
            self.metrics.state_writes += writes
            backend = self.state_backend
            state_cost = reads * backend.read_latency + writes * backend.write_latency
            cost += state_cost
        extra_cost = self.ctx._extra_cost
        if extra_cost:
            self.ctx._extra_cost = 0.0
            cost += extra_cost

        span = self._active_span
        if span is not None:
            # Close the span at the element's virtual completion time and
            # re-stamp the outputs it produced with the child context, so
            # the trace follows the record through shuffles downstream.
            self._active_span = None
            self._tracer.finish(span, self.kernel.now() + cost)
            child = TraceContext(span.trace_id, span.span_id)
            pending = self._pending_output
            for index in range(self._trace_mark, len(pending)):
                out = pending[index]
                if isinstance(out, Record):
                    pending[index] = out.with_trace(child)
        profiler = self._profiler
        if profiler is not None:
            process_path, timers_path, state_path, extra_path = self._flame_paths
            if record_units and self.processing_cost:
                profiler.charge(process_path, self.processing_cost * record_units)
            if timers_fired:
                profiler.charge(timers_path, timers_fired * self.timer_cost)
            if state_cost:
                profiler.charge(state_path, state_cost)
            if extra_cost:
                profiler.charge(extra_path, extra_cost)
        return cost

    def _handle_watermark(self, channel_index: int, watermark: Watermark) -> int:
        if channel_index in self._feedback_channels:
            return 0  # async loops do not carry watermarks
        return self._advance_watermark(channel_index, watermark.timestamp)

    def _advance_watermark(self, channel_index: int, timestamp: float) -> int:
        slot = self._merger_slots.get(channel_index)
        if slot is None:
            # Locally injected (channel -1): treat as a direct advance.
            merged = timestamp if timestamp > self.current_watermark else None
        else:
            merged = self._merger.update(slot, timestamp)
        if merged is None:
            return 0
        self.current_watermark = merged
        fired = self._fire_event_timers(merged)
        self.operator.on_watermark(Watermark(merged), self.ctx)
        return fired

    def _fire_event_timers(self, up_to: float) -> int:
        fired = 0
        while self._event_timers and self._event_timers[0][0] <= up_to:
            timestamp, _seq, key, payload = heapq.heappop(self._event_timers)
            self.ctx.current_key_value = key
            self.operator.on_event_timer(timestamp, key, payload, self.ctx)
            fired += 1
        return fired

    def _handle_eos(self, channel_index: int, eos: EndOfStream) -> None:
        if channel_index in self._feedback_channels:
            return
        self._eos_channels.add(channel_index)
        self._eos_at.setdefault(channel_index, self.kernel.now())
        if (
            self._align_id is not None
            and self._align_barrier is not None
            and self._alignment_covered(self._align_barrier)
        ):
            # The channels still owing a barrier just finished instead:
            # complete the round now rather than wedging on them forever.
            self._complete_alignment(self._align_barrier)
        data_channels = self.input_channel_count - len(self._feedback_channels)
        if len(self._eos_channels) < max(1, data_channels):
            return
        if self._feedback_channels:
            # Async-loop termination: data inputs are done, but records may
            # still be circulating on the feedback path. Defer the finish
            # until the loop quiesces (no feedback deliveries and an idle
            # mailbox across several consecutive probes).
            self._begin_feedback_drain()
            return
        self._request_finish()

    def _request_finish(self) -> None:
        """Finish now — or, on a rescaled node, once the sibling group has
        quiesced (no sibling can still reroute a record here)."""
        if self.rescale_group_ready is not None:
            self._begin_rescale_drain()
        else:
            self._finish_task()

    #: probe interval for the rescale group-quiescence drain
    _RESCALE_PROBE_INTERVAL = 0.002

    def _rescale_quiescent(self) -> bool:
        """True when this task can produce no further reroute stragglers:
        every input channel fully drained (EOS seen) and nothing queued."""
        if self.dead or self.finished:
            return True
        data_channels = self.input_channel_count - len(self._feedback_channels)
        return (
            len(self._eos_channels) >= max(1, data_channels)
            and not self._mailbox
            and not self._busy
            and not self._align_buffer
        )

    def _begin_rescale_drain(self) -> None:
        if self._rescale_draining:
            return
        self._rescale_draining = True
        incarnation = self.incarnation

        def probe() -> None:
            if incarnation != self.incarnation or self.dead or self.finished:
                self._rescale_draining = False
                return
            ready = self.rescale_group_ready
            if (
                not self._mailbox
                and not self._busy
                and not self._align_buffer
                and (ready is None or ready(self))
            ):
                self._rescale_draining = False
                self._finish_task()
            else:
                self.kernel.call_after(self._RESCALE_PROBE_INTERVAL, probe)

        self.kernel.call_after(self._RESCALE_PROBE_INTERVAL, probe)

    #: probes and consecutive-quiet-rounds required to declare a loop drained
    _DRAIN_PROBE_INTERVAL = 0.05
    _DRAIN_QUIET_ROUNDS = 3

    def _begin_feedback_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        self._drain_quiet = 0
        self._drain_last_count = self._feedback_deliveries
        incarnation = self.incarnation

        def probe() -> None:
            if incarnation != self.incarnation or self.dead or self.finished:
                return
            current = self._feedback_deliveries
            idle = not self._mailbox and not self._busy and not self._pending_output
            if idle and current == self._drain_last_count:
                self._drain_quiet += 1
            else:
                self._drain_quiet = 0
            self._drain_last_count = current
            if self._drain_quiet >= self._DRAIN_QUIET_ROUNDS:
                self._draining = False
                self._finish_task()
            else:
                self.kernel.call_after(self._DRAIN_PROBE_INTERVAL, probe)

        self.kernel.call_after(self._DRAIN_PROBE_INTERVAL, probe)

    def _finish_task(self) -> None:
        # All inputs done: ensure remaining event timers fire, quiesce
        # pending processing-time timers (fired immediately, in timestamp
        # order), flush, forward.
        self._fire_event_timers(MAX_TIMESTAMP)
        pending = sorted(
            (self._proc_timer_registry[tid] for tid in self._pending_proc_timers),
            key=lambda t: t.timestamp,
        )
        self._pending_proc_timers.clear()
        for timer in pending:
            if timer.fired:
                continue
            timer.fired = True
            self.ctx.current_key_value = timer.key
            self.operator.on_processing_timer(timer.timestamp, timer.key, timer.payload, self.ctx)
        self._proc_timer_registry.clear()
        self.operator.flush(self.ctx)
        self.collect_output(EndOfStream(source_id=self.name))
        self.finished = True
        self.metrics.finished_at = self.kernel.now()
        self._flush_outputs()
        gate = self._txn_gate
        if gate is not None:
            # Fence rounds no longer wait on a drained owner.
            gate.on_owner_finished(self)
        if self.engine is not None:
            self.engine.on_task_finished(self)

    # ------------------------------------------------------------------
    # barriers & snapshots
    # ------------------------------------------------------------------
    def _alignment_covered(self, barrier: CheckpointBarrier) -> bool:
        """All data channels accounted for: a barrier arrived, or the
        channel was already EOS *before the barrier was injected* (a
        finished upstream — e.g. a subtask retired by a scale-in — can
        never forward a round triggered after it ended, so waiting on it
        would wedge the round forever). An EOS arriving *after* injection
        does not count: a live upstream forwards the barrier ahead of its
        EOS, so barrier-less EOS there means the barrier was lost in
        flight and completing would snapshot an inconsistent cut."""
        data_channels = self.input_channel_count - len(self._feedback_channels)
        pre_barrier_eos = {
            channel
            for channel in self._eos_channels
            if self._eos_at.get(channel, float("inf")) <= barrier.timestamp
        }
        return len(self._align_seen | pre_barrier_eos) >= data_channels

    def _handle_barrier(self, channel_index: int, barrier: CheckpointBarrier) -> None:
        data_channels = self.input_channel_count - len(self._feedback_channels)
        if data_channels <= 1 or self.align_unaligned:
            if self._align_id != barrier.checkpoint_id:
                self._align_id = barrier.checkpoint_id
                self._align_seen = set()
            self._align_seen.add(channel_index)
            if self.align_unaligned and not self._alignment_covered(barrier):
                self._align_barrier = barrier
                return
            self._snapshot_and_forward(barrier)
            self._align_id = None
            self._align_barrier = None
            return
        # Aligned mode with multiple inputs: block this channel until all
        # barriers arrive.
        if self._align_id is None or self._align_id != barrier.checkpoint_id:
            self._align_id = barrier.checkpoint_id
            self._align_seen = set()
        self._align_seen.add(channel_index)
        self._align_barrier = barrier
        self._blocked_inputs.add(channel_index)
        if self._alignment_covered(barrier):
            self._complete_alignment(barrier)

    def _complete_alignment(self, barrier: CheckpointBarrier) -> None:
        self._snapshot_and_forward(barrier)
        self._blocked_inputs.clear()
        self._align_id = None
        self._align_barrier = None
        # Re-inject buffered elements ahead of the rest of the mailbox.
        self._mailbox.extendleft(reversed(self._align_buffer))
        self._align_buffer = []

    def cancel_alignment(self, checkpoint_id: int) -> None:
        """Abort a pending barrier alignment (the coordinator gave up on
        ``checkpoint_id``): unblock the inputs and re-inject the buffered
        elements so a lost barrier cannot wedge the task forever."""
        if self._txn_parked == checkpoint_id:
            # Parked on the shared txn store's fence for this doomed round:
            # withdraw from it and resume processing. Checked independently
            # of ``_align_id`` — the single-input barrier path resets the
            # align id right after parking.
            self._txn_parked = None
            gate = self._txn_gate
            if gate is not None:
                gate.cancel_fence(self, checkpoint_id)
            self._maybe_schedule()
        if self._align_id != checkpoint_id:
            return
        self._align_id = None
        self._align_barrier = None
        self._blocked_inputs.clear()
        self._mailbox.extendleft(reversed(self._align_buffer))
        self._align_buffer = []
        self._maybe_schedule()

    def _snapshot_and_forward(self, barrier: CheckpointBarrier) -> None:
        # Pre-snapshot hook: operators holding an in-flight micro-batch
        # (e.g. MicroBatchAcceleratedOperator) flush it *into this epoch*
        # before state is captured — the flushed output is buffered ahead of
        # the barrier, so downstream sees it in the right epoch and a
        # restore never replays half a batch.
        pre = getattr(self.operator, "on_barrier", None)
        if pre is not None:
            pre(barrier.checkpoint_id, self.ctx)
        gate = self._txn_gate
        if gate is not None:
            # Shared-store fence: park until every live owner of the txn
            # store reaches this barrier, then the store captures the whole
            # store once and resumes us via txn_resume_snapshot.
            self._txn_parked = barrier.checkpoint_id
            gate.request_fence(self, barrier)
            return
        snapshot = self.take_snapshot(barrier.checkpoint_id)
        hook = getattr(self.operator, "on_checkpoint", None)
        if hook is not None:
            hook(barrier.checkpoint_id)
        if self.engine is not None:
            self.engine.on_task_snapshot(self, snapshot)
        self.collect_output(barrier)

    def txn_resume_snapshot(self, barrier: CheckpointBarrier) -> None:
        """The shared txn store completed its fence round: take this owner's
        snapshot (the staged whole-store capture), forward the barrier, and
        resume the mailbox. No-op if the park was cancelled or the task died
        while the resume event was in flight."""
        if self.dead or self.finished or self._txn_parked != barrier.checkpoint_id:
            return
        self._txn_parked = None
        snapshot = self.take_snapshot(barrier.checkpoint_id)
        hook = getattr(self.operator, "on_checkpoint", None)
        if hook is not None:
            hook(barrier.checkpoint_id)
        if self.engine is not None:
            self.engine.on_task_snapshot(self, snapshot)
        self.collect_output(barrier)
        self._flush_outputs()
        self._maybe_schedule()

    def take_snapshot(self, checkpoint_id: int) -> TaskSnapshot:
        """Capture keyed state, operator state, timers and watermark.

        In incremental mode (engine chain store present, an
        :class:`~repro.checkpoint.incremental.IncrementalSnapshotter`
        attached to the backend) a coordinator capture
        (``checkpoint_id >= 0``) takes only the delta since the previous
        capture — or a full snapshot when the chain store asks for a rebase —
        and charges the O(captured-entries) capture cost to the barrier
        element via the cost model. Out-of-band captures
        (standby mirrors use negative ids) keep the classic full-dict path
        so they never perturb the chain's change record.
        """
        keyed_state: dict[str, dict[Any, bytes]] = {}
        delta = None
        store = self.engine.checkpoint_store if self.engine is not None else None
        snapshotter = self.state_backend.snapshotter if store is not None else None
        if checkpoint_id >= 0 and snapshotter is not None:
            if store.wants_full(self.name):
                delta = snapshotter.full_snapshot()
            else:
                delta = snapshotter.delta_snapshot()
            capture_cost_per_entry = self.engine.config.checkpoints.capture_cost_per_entry
            if capture_cost_per_entry:
                self.ctx.add_cost(delta.entry_count() * capture_cost_per_entry)
        else:
            keyed_state = self.state_backend.snapshot()
        snapshot = TaskSnapshot(
            task_name=self.name,
            checkpoint_id=checkpoint_id,
            keyed_state=keyed_state,
            operator_state=self.operator.snapshot_state(),
            timers=self._event_timers.copy(),
            watermark=self.current_watermark,
            taken_at=self.kernel.now(),
            delta=delta,
        )
        self.last_snapshot = snapshot
        return snapshot

    def restore_snapshot(self, snapshot: TaskSnapshot | None) -> None:
        """Load state captured by :meth:`take_snapshot` into the current
        operator/backend incarnation."""
        if snapshot is None:
            return
        if snapshot.delta is not None and self.engine is not None:
            # Incremental capture: keyed state lives in the engine's
            # base + delta chain, not in the snapshot itself.
            self.engine.restore_task_chain(self, snapshot)
        else:
            self.state_backend.restore(snapshot.keyed_state)
        self.operator.restore_state(snapshot.operator_state)
        # re-sequenced in heap-array order: timers sharing a timestamp fire
        # in the order the captured array holds them
        self._event_timers = []
        for timestamp, _seq, key, payload in snapshot.timers:
            heapq.heappush(self._event_timers, (timestamp, next(self._timer_seq), key, payload))
        self.current_watermark = snapshot.watermark
        self.metrics.restored_at.append(self.kernel.now())

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def register_event_timer(self, timestamp: float, key: Any, payload: Any) -> None:
        """Arm an event-time timer (fires when the watermark passes)."""
        heapq.heappush(self._event_timers, (timestamp, next(self._timer_seq), key, payload))

    def register_processing_timer(self, timestamp: float, key: Any, payload: Any) -> None:
        """Arm a virtual-processing-time timer."""
        incarnation = self.incarnation
        timer = _ProcTimer(timestamp, key, payload)
        self._proc_timer_registry[id(timer)] = timer
        self._pending_proc_timers.add(id(timer))

        def fire() -> None:
            if incarnation != self.incarnation or timer.fired:
                return
            self.enqueue_local(timer)

        self.kernel.call_at(max(timestamp, self.kernel.now()), fire)

    # ------------------------------------------------------------------
    # output path
    # ------------------------------------------------------------------
    def collect_output(self, element: StreamElement) -> None:
        """Buffer an element for emission at processing completion."""
        self._pending_output.append(element)

    def collect_side_output(self, tag: str, element: StreamElement) -> None:
        """Buffer a tagged side-output element."""
        self._side_pending.append((tag, element))

    def _flush_outputs(self) -> None:
        while self._pending_output:
            element = self._pending_output.popleft()
            if isinstance(element, Record):
                self.metrics.records_out += 1
            elif isinstance(element, RecordBatch):
                # Per-batch accounting: one increment for the whole run.
                self.metrics.records_out += len(element)
            clear = True
            for gate in self.output_gates:
                if not gate.emit(element):
                    clear = False
            if not clear:
                self._output_blocked = True
                self._blocked_since = self.kernel.now()
        if self._side_pending and self.engine is not None:
            for tag, element in self._side_pending:
                self.engine.on_side_output(self.name, tag, element)
            self._side_pending = []

    def _outputs_clear(self) -> bool:
        for gate in self.output_gates:
            if not gate.is_clear:
                return False
        return True

    def output_unblocked(self) -> None:
        """Called by a channel when its backlog drains."""
        if not self._output_blocked:
            self._maybe_schedule()
            return
        if self._outputs_clear():
            self._output_blocked = False
            if self._blocked_since is not None:
                self.metrics.blocked_time += self.kernel.now() - self._blocked_since
                self._blocked_since = None
            self._flush_outputs()
            if not self._output_blocked:
                self._maybe_schedule()

    # ------------------------------------------------------------------
    # failure & lifecycle
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Fail-stop: lose mailbox, volatile state, and in-flight work."""
        if self.dead:
            return
        self.dead = True
        self.incarnation += 1
        self._busy_until = _IDLE
        self.release_mailbox_credits()
        self._mailbox.clear()
        self._align_buffer.clear()
        self._blocked_inputs.clear()
        self._align_id = None
        self._align_barrier = None
        self._pending_output.clear()
        self._event_timers.clear()
        self._pending_proc_timers.clear()
        self._proc_timer_registry.clear()
        self._output_blocked = False
        self._active_span = None
        self._txn_hold = False
        self._txn_parked = None
        gate = self._txn_gate
        if gate is not None:
            # Abort this origin's in-flight txns and unwedge any fence round
            # waiting on us — the engine clears the pending checkpoint on a
            # kill without cancelling alignment, so parked siblings would
            # otherwise hang forever.
            gate.on_task_killed(self)
        # A dead task has no watermark: leaving the old value visible makes
        # the (killed -> reincarnated) window look like a watermark rewind
        # *inside* the new incarnation to any observer probing between the
        # kill and the delayed restore.
        self.current_watermark = float("-inf")
        self.metrics.failures += 1
        self.metrics.mark_down(self.kernel.now())
        if not self.state_backend.survives_task_failure:
            self.state_backend.clear_all()

    def suspend(self) -> None:
        """Stop pulling from the mailbox (in-flight element completes).

        Used by recovery protocols to hold an upstream still while a
        downstream rebuilds — the effect flow control would have."""
        self._suspended = True

    def resume_processing(self) -> None:
        """Undo :meth:`suspend` and resume pulling from the mailbox."""
        self._suspended = False
        self._maybe_schedule()

    def stall(self, seconds: float) -> None:
        """Occupy the task for ``seconds`` of virtual time (the state
        transfer of a live rescale): the element in service completes,
        nothing further is pulled from the mailbox until the stall ends —
        or until that element's completion, whichever is later — and the
        time is charged to ``busy_time``."""
        self.metrics.busy_time += seconds
        self.suspend()
        self.kernel.call_after(seconds, self.resume_processing)

    def release_mailbox_credits(self) -> None:
        """Return the flow-control credits held by queued elements (called
        when the mailbox is discarded: kill, scale-in)."""
        for item in self._mailbox:
            if item.via is not None:
                item.via.return_credit()
                item.via = None
        for item in self._align_buffer:
            if item.via is not None:
                item.via.return_credit()
                item.via = None

    def reincarnate(self, operator: Operator, state_backend: "KeyedStateBackend | None" = None) -> None:
        """Bring the task back with a fresh operator (and backend unless the
        old one survives failures). Caller then restores a snapshot."""
        self.operator = operator
        self._txn_gate = getattr(operator, "txn_gate", None)
        if state_backend is not None:
            self.state_backend = state_backend
        self.dead = False
        self.finished = False
        self._reopened = False
        self.metrics.mark_up(self.kernel.now())
        self._eos_channels.clear()
        self._eos_at.clear()
        # Channels retired by a scale-in stay retired through recovery: no
        # sender exists to ever re-send their end-of-stream.
        now = self.kernel.now()
        for channel_index in self._retired_channels:
            self._eos_channels.add(channel_index)
            self._eos_at[channel_index] = now
        self._merger = WatermarkMerger(0)
        old_slots = sorted(self._merger_slots)
        self._merger_slots = {}
        for channel_index in old_slots:
            self._merger_slots[channel_index] = self._merger.add_channel(float("-inf"))
        self.current_watermark = float("-inf")
        self.operator.open(self.ctx)

    @property
    def mailbox_size(self) -> int:
        return len(self._mailbox)

    @property
    def is_backpressured(self) -> bool:
        return self._output_blocked

    def __repr__(self) -> str:
        return f"Task({self.name!r}, mailbox={len(self._mailbox)}, dead={self.dead})"


class SourceTask(Task):
    """Drives a workload generator through the output gates.

    Emission timeline: arrival times accumulate the workload's inter-arrival
    gaps; when output is blocked (backpressure) the source stalls and emits
    the overdue element as soon as credit returns — i.e. a replayable,
    flow-controlled source like a log consumer.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        workload: "Workload",
        watermark_strategy: WatermarkStrategy,
        bounded: bool = True,
        heartbeat_interval: float | None = None,
        metrics: TaskMetrics | None = None,
        engine: Any = None,
        subtask_index: int = 0,
        parallelism: int = 1,
        batch_records: int | None = None,
    ) -> None:
        super().__init__(
            kernel,
            name,
            operator=Operator(),
            state_backend=_NullBackend(),
            subtask_index=subtask_index,
            parallelism=parallelism,
            processing_cost=0.0,
            metrics=metrics,
            engine=engine,
        )
        self.workload = workload
        self.strategy = watermark_strategy
        self.bounded = bounded
        self.heartbeat_interval = heartbeat_interval
        self._iterator = iter(workload.events())
        self._emitted = 0
        self._next_arrival = 0.0
        self._pending_event: Any = None
        #: virtual time the pulled-but-unemitted event/batch is due
        self._pending_due = 0.0
        #: columnar mode: emit RecordBatch runs of up to this many records
        #: (None/1 = classic per-record emission)
        self._batch_records = batch_records
        #: pulled-but-unemitted (event, planned_arrival) pairs; excluded from
        #: the snapshot offset, so a restore re-pulls them deterministically
        self._pending_batch: list | None = None
        self._last_watermark = float("-inf")
        self._periodic: PeriodicTimer | None = None
        self._hb_timer: PeriodicTimer | None = None
        self._marker_timer: PeriodicTimer | None = None
        self._marker_seq = itertools.count()
        self._max_event_time = float("-inf")
        self.paused = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.metrics.started_at = self.kernel.now()
        self._next_arrival = self.kernel.now()
        if self.strategy.periodic_interval is not None:
            self._periodic = PeriodicTimer(
                self.kernel, self.strategy.periodic_interval, self._periodic_watermark
            )
        if self.heartbeat_interval is not None:
            self._hb_timer = PeriodicTimer(self.kernel, self.heartbeat_interval, self._emit_heartbeat)
        self._start_marker_timer()
        self._schedule_next()

    def _start_marker_timer(self) -> None:
        if self._obs is not None and self._obs.marker_period is not None:
            self._marker_timer = PeriodicTimer(
                self.kernel, self._obs.marker_period, self._emit_marker
            )

    def _emit_marker(self) -> None:
        """Emit one in-band latency marker (goes through the same output
        buffers and channels as records, so it measures real stalls)."""
        if self.dead or self.finished:
            return
        marker = LatencyMarker(
            emitted_at=self.kernel.now(),
            marker_id=next(self._marker_seq),
            source_id=self.name,
        )
        self._obs.marker_emitted(self)
        self.collect_output(marker)
        self._flush_outputs()

    def _schedule_next(self) -> None:
        if self.dead or self.finished or self.paused:
            return
        if self._batch_records is not None and self._batch_records > 1:
            self._schedule_next_batch()
            return
        try:
            event = next(self._iterator)
        except StopIteration:
            self._finish()
            return
        self._next_arrival = max(self.kernel.now(), self._next_arrival) + event.inter_arrival
        self._pending_event = event
        self._pending_due = self._next_arrival
        self.kernel.call_at(self._next_arrival, self._emit_due, self.incarnation)

    def _schedule_next_batch(self) -> None:
        """Columnar: pull up to ``_batch_records`` events, accumulate their
        arrival times, and arm ONE kernel timer at the last arrival — the
        whole batch then travels as a single element. Watermark strategies
        still observe every event (at emission, so progress never outruns
        unemitted data), and only the highest resulting watermark follows
        the batch."""
        events: list = []
        arrival = max(self.kernel.now(), self._next_arrival)
        limit = self._batch_records
        while len(events) < limit:
            try:
                event = next(self._iterator)
            except StopIteration:
                break
            arrival += event.inter_arrival
            events.append((event, arrival))
        if not events:
            self._finish()
            return
        self._next_arrival = arrival
        self._pending_batch = events
        self._pending_due = arrival
        self.kernel.call_at(arrival, self._emit_due, self.incarnation)

    def _emit_due(self, incarnation: int) -> None:
        """Emission timer: void if the source was killed since it was armed."""
        if incarnation == self.incarnation:
            self._try_emit()

    def _try_emit(self) -> None:
        if self.dead or self.finished:
            return
        if self.kernel.now() + 1e-12 < self._pending_due:
            # Not due yet (an unblock or stale timer poked us early); the
            # timer scheduled for the due time will deliver it.
            return
        if self._output_blocked or not self._outputs_clear():
            # Backpressured: wait for output_unblocked() to call us back.
            self._output_blocked = True
            if self._blocked_since is None:
                self._blocked_since = self.kernel.now()
            return
        if self._pending_batch is not None:
            events = self._pending_batch
            self._pending_batch = None
            self._emit_batch(events)
            self._schedule_next()
            return
        event = self._pending_event
        self._pending_event = None
        if event is None:
            return
        self._emit_record(event.value, event.event_time)
        self._schedule_next()

    def _emit_record(self, value: Any, event_time: Any) -> None:
        """Emit one record now (+ the watermark its strategy yields): the
        scalar emission body shared by the pull loop and :meth:`inject`."""
        now = self.kernel.now()
        record = Record(value, event_time, None, 1, now)
        tracer = self._tracer
        if tracer is not None and tracer.sample():
            record = record.with_trace(tracer.begin_root(self.name, now))
        if event_time is not None:
            self._max_event_time = max(self._max_event_time, event_time)
        self.collect_output(record)
        self.metrics.records_in += 1
        watermark = self.strategy.on_event(value, event_time, now)
        if watermark is not None and watermark.timestamp > self._last_watermark:
            self._last_watermark = watermark.timestamp
            self.collect_output(watermark)
        self._emitted += 1
        self._flush_outputs()

    def _emit_batch(self, events: list) -> None:
        """Emit pulled events as one :class:`RecordBatch` (+ one watermark).

        Per-record fields match the scalar path: each row keeps its own
        event time and its *planned* arrival as ingest time. The strategy's
        ``on_event`` runs per row in order, but only the highest watermark
        is emitted, after the batch — conservative w.r.t. the scalar
        interleaving, so nothing late in columnar mode wasn't late already.
        """
        values: list[Any] = []
        event_times: list[Any] = []
        ingest_times: list[float] = []
        has_event_time = False
        max_event_time = self._max_event_time
        for event, arrival in events:
            values.append(event.value)
            event_times.append(event.event_time)
            ingest_times.append(arrival)
            if event.event_time is not None:
                has_event_time = True
                if event.event_time > max_event_time:
                    max_event_time = event.event_time
        self._max_event_time = max_event_time
        batch = RecordBatch(
            values=values,
            event_times=event_times if has_event_time else None,
            ingest_times=ingest_times,
        )
        self.collect_output(batch)
        n = len(events)
        self.metrics.records_in += n
        watermark: Watermark | None = None
        on_event = self.strategy.on_event
        for event, arrival in events:
            wm = on_event(event.value, event.event_time, arrival)
            if wm is not None and (watermark is None or wm.timestamp > watermark.timestamp):
                watermark = wm
        if watermark is not None and watermark.timestamp > self._last_watermark:
            self._last_watermark = watermark.timestamp
            self.collect_output(watermark)
        self._emitted += n
        self._flush_outputs()

    def inject(self, value: Any, event_time: Any = None) -> None:
        """Push one record into this source from outside its pull loop.

        The fabric's shared-source hub walks one workload and injects each
        event into every subscribed tenant's source, so N tenants reading
        the same stream cost one generator pass instead of N. It emits
        through the body scalar ``_try_emit`` uses, so an injected stream is
        indistinguishable downstream from a pulled one. Backpressure never
        pushes back on the hub: a blocked tenant's records park in its own
        output buffers until credit returns, stalling nobody else.
        """
        if self.dead or self.finished:
            return
        self._emit_record(value, event_time)

    def finish_injection(self) -> None:
        """End-of-stream for an injected source (hub workload exhausted)."""
        if self.dead or self.finished:
            return
        self._finish()

    def output_unblocked(self) -> None:
        if not self._output_blocked:
            return
        if self._outputs_clear():
            self._output_blocked = False
            if self._blocked_since is not None:
                self.metrics.blocked_time += self.kernel.now() - self._blocked_since
                self._blocked_since = None
            self._flush_outputs()
            if self._output_blocked:
                return
            if self._pending_event is not None or self._pending_batch is not None:
                self._try_emit()

    def _periodic_watermark(self) -> None:
        if self.dead or self.finished:
            return
        watermark = self.strategy.on_periodic(self.kernel.now())
        if watermark is not None and watermark.timestamp > self._last_watermark:
            self._last_watermark = watermark.timestamp
            self.collect_output(watermark)
            self._flush_outputs()

    def _emit_heartbeat(self) -> None:
        if self.dead or self.finished:
            return
        timestamp = self._max_event_time if self._max_event_time > float("-inf") else self.kernel.now()
        self.collect_output(Heartbeat(source_id=self.name, timestamp=timestamp))
        self._flush_outputs()

    def _finish(self) -> None:
        self.finished = True
        self.metrics.finished_at = self.kernel.now()
        self.collect_output(Watermark(MAX_TIMESTAMP))
        self.collect_output(EndOfStream(source_id=self.name))
        self._flush_outputs()
        self._cancel_timers()
        if self.engine is not None:
            self.engine.on_task_finished(self)

    def _cancel_timers(self) -> None:
        if self._periodic is not None:
            self._periodic.cancel()
        if self._hb_timer is not None:
            self._hb_timer.cancel()
        if self._marker_timer is not None:
            self._marker_timer.cancel()

    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Stop emitting (used by stop-restart reconfiguration)."""
        self.paused = True

    def resume(self) -> None:
        """Undo :meth:`pause`; emission continues from the pending event."""
        if not self.paused:
            return
        self.paused = False
        if self._pending_event is not None or self._pending_batch is not None:
            self._try_emit()
        else:
            self._schedule_next()

    def take_snapshot(self, checkpoint_id: int) -> TaskSnapshot:
        snapshot = TaskSnapshot(
            task_name=self.name,
            checkpoint_id=checkpoint_id,
            keyed_state={},
            operator_state=None,
            timers=[],
            watermark=self._last_watermark,
            source_offset=self._emitted,
            taken_at=self.kernel.now(),
        )
        self.last_snapshot = snapshot
        return snapshot

    def restore_snapshot(self, snapshot: TaskSnapshot | None) -> None:
        offset = snapshot.source_offset if snapshot is not None else 0
        self._iterator = iter(self.workload.events())
        skipped = 0
        while skipped < (offset or 0):
            try:
                next(self._iterator)
            except StopIteration:
                break
            skipped += 1
        self._emitted = skipped
        self._last_watermark = snapshot.watermark if snapshot is not None else float("-inf")
        self._pending_event = None
        self._pending_batch = None
        self._next_arrival = self.kernel.now()
        if snapshot is not None:
            self.metrics.restored_at.append(self.kernel.now())

    def kill(self) -> None:
        super().kill()
        self._cancel_timers()
        self._pending_event = None
        self._pending_batch = None

    def reincarnate(self, operator: Operator | None = None, state_backend: Any = None) -> None:
        self.dead = False
        self.finished = False
        self.metrics.mark_up(self.kernel.now())
        self.strategy = self.strategy.fresh()
        if self.strategy.periodic_interval is not None:
            self._periodic = PeriodicTimer(
                self.kernel, self.strategy.periodic_interval, self._periodic_watermark
            )
        if self.heartbeat_interval is not None:
            self._hb_timer = PeriodicTimer(self.kernel, self.heartbeat_interval, self._emit_heartbeat)
        self._start_marker_timer()

    def restart_emission(self) -> None:
        """Kick the emission loop after a restore."""
        if self.dead or self.finished:
            raise RuntimeStateError(f"source {self.name} cannot restart while dead/finished")
        self._schedule_next()

    @property
    def emitted(self) -> int:
        return self._emitted


class _NullBackend:
    """State backend stub for source tasks (no keyed state)."""

    read_latency = 0.0
    write_latency = 0.0
    survives_task_failure = True

    def __init__(self) -> None:
        from repro.state.api import AccessStats

        self.stats = AccessStats()

    def handle(self, descriptor, key):  # pragma: no cover - sources hold no state
        raise RuntimeStateError("source tasks have no keyed state")

    def snapshot(self) -> dict:
        return {}

    def restore(self, snapshot: dict) -> None:
        pass

    def clear_all(self) -> None:
        pass
