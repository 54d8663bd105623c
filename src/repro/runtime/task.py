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
from typing import TYPE_CHECKING, Any, Callable

from repro.checkpoint.coordinator import CheckpointCoordinator
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
from repro.progress.watermarks import WatermarkStrategy
from repro.runtime.channel import OutputGate, outputs_clear
from repro.runtime.inputs import TaskInputs
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
    coordinator's base + delta chain up to this link.
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
        #: what ``add_cost`` charged so far to the element in service
        self.extra_cost = 0.0
        #: the current virtual time: the clock's own ``now``, so an operator
        #: reading it runs no frame of the task
        self.processing_time: Callable[[], float] = task._clock.now

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
    #: ``emit`` is bound per instance by the task (see ``Task._bind_emit``)
    emit: Callable[[StreamElement], None]

    def emit_watermark(self, timestamp: float) -> None:
        """Emit a watermark with the given timestamp."""
        self._task.collect_output(Watermark(timestamp))

    def emit_to(self, tag: str, element: StreamElement) -> None:
        self._task.collect_side_output(tag, element)

    # --- time -----------------------------------------------------------
    def current_watermark(self) -> float:
        return self._task.current_watermark

    def register_event_timer(self, timestamp: float, payload: Any = None) -> None:
        # Task.register_event_timer's push, in this frame
        task = self._task
        heapq.heappush(
            task._event_timers, (timestamp, next(task._timer_seq), self.current_key_value, payload)
        )

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

    def state_keys(self, descriptor) -> list[Any]:
        return list(self._task.state_backend.keys(descriptor))

    def operator_state(self, name: str, default: Any = None) -> Any:
        return self._task.operator_store.get(name, default)

    def set_operator_state(self, name: str, value: Any) -> None:
        self._task.operator_store[name] = value

    # --- cost injection ---------------------------------------------------
    def add_cost(self, seconds: float) -> None:
        """Charge extra virtual processing time for the current element
        (models external RPCs, accelerator kernels, etc.)."""
        self.extra_cost += seconds

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
        #: the kernel's clock: its ``_now`` is the current virtual time at
        #: every moment (the kernel writes it through whenever time moves),
        #: so the per-element paths read the time without a call
        self._clock = kernel.clock
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
        #: the engine's checkpoint coordinator: capture format, acks, chain
        #: restores (a task outside an engine has its own: no rounds)
        self.coordinator = engine.coordinator if engine else CheckpointCoordinator(None, None)

        self.ctx = TaskContext(self)
        self.operator_store: dict[str, Any] = {}
        self.output_gates: list[OutputGate] = []
        #: the input protocol: channel lifecycle, watermark merging, alignment
        self.inputs = TaskInputs()
        # its two sets, aliased so the per-element checks are one attribute test
        self._feedback = self.inputs.feedback
        self._blocked = self.inputs.blocked
        #: True while the finish decision waits for the mailbox to drain
        self._settling = False
        #: True while a drain probe (rescaled group / feedback loop) is armed
        self._probing = False

        self._mailbox: deque[_MailboxItem] = deque()
        #: the task is in service through this virtual time (inclusive).
        #: ``_EVENT_PENDING`` while a kernel event (completion, dispatch hop)
        #: will end the service and pull the next item; a finite time when
        #: that event was elided (see _process_next); ``_IDLE`` otherwise
        self._busy_until = _IDLE
        #: holds on the mailbox by recovery protocols, nested (see suspend())
        self._suspended = 0
        self._output_blocked = False
        self._blocked_since: float | None = None
        self._pending_output: deque[StreamElement] = deque()
        self._side_pending: list[tuple[str, StreamElement]] = []
        #: sees every element buffered for output, ahead of the buffer
        #: (upstream backup retains records through it; see set_output_tap)
        self._output_tap: Callable[[StreamElement], None] | None = None
        self._bind_emit()

        self._event_timers: list[tuple[float, int, Any, Any]] = []
        self._timer_seq = itertools.count()
        #: armed processing-time timers by id, each popped as it fires
        self._proc_timers: dict[int, _ProcTimer] = {}

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
        #: per-operator marker histogram, bound on the first marker (lazy, so
        #: a task no marker reaches registers nothing)
        self._marker_histogram: Any = None
        self._active_span: Any = None
        self._trace_mark = 0

        self.last_snapshot: TaskSnapshot | None = None
        self.current_watermark = float("-inf")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_output(self, gate: OutputGate) -> None:
        """Wire an output gate (one per outgoing logical edge)."""
        self.output_gates.append(gate)

    def retire_input_channel(self, channel_index: int) -> None:
        """Detach an input channel (scale-in): it closes for good, so it
        stops gating watermarks, alignment and end-of-stream, also across a
        revive."""
        self._close_input(channel_index, retire=True)

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
        self._bind_emit()
        self.operator.open(self.ctx)

    # ------------------------------------------------------------------
    # input path
    # ------------------------------------------------------------------
    #: when set (by an active-standby manager), deliveries during downtime
    #: are parked here instead of dropped — the hot replica "received" them
    ha_buffer: list | None = None
    #: when set (by a live rescale), the rescale part this task's node, or
    #: a node it receives from, belongs to (``RescaleState`` in
    #: ``load/migration.py``): a member forwards records whose key moved
    #: (``owner``, ``reroutes``), and the finish decision waits for its gate
    #: (``ready``; see _settle)
    rescale_state: Any = None
    #: when set (by the autoscaler's hot-key detector), counts processed
    #: records per key group: {key_group: count}. None on the production
    #: path — the cost is one attribute test per record.
    _keygroup_counts: Any = None
    _keygroup_maxp: int = 0

    def enable_keygroup_tracking(self, max_parallelism: int) -> None:
        """Start counting processed records per key group (hot-key skew
        detection); idempotent."""
        if self._keygroup_counts is None:
            self._keygroup_counts = {}
        self._keygroup_maxp = max_parallelism

    @property
    def keygroup_counts(self) -> dict[int, int]:
        """Records processed per key group since tracking began (empty when
        not tracking); see :meth:`enable_keygroup_tracking`."""
        return self._keygroup_counts or {}

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
        feedback = self._feedback
        if feedback and channel_index in feedback and not self.finished:
            self.inputs.feedback_deliveries += 1
        if self.finished:
            # A retired (scaled-in) task still forwards misrouted records;
            # an owner that already finished reopens (enqueue_local) so the
            # straggler is folded into the state that migrated to it.
            rescale = self.rescale_state
            if rescale is not None and isinstance(element, (Record, RecordBatch)):
                for record in element.records() if isinstance(element, RecordBatch) else (element,):
                    owner = rescale.owner(self, record.key) if record.key is not None else None
                    if owner is not None:
                        owner.enqueue_local(record)
            if via is not None:
                via.return_credit()
            return
        busy_until = self._busy_until
        if busy_until == _EVENT_PENDING:
            # In service, its completion (or dispatch hop) pending: that event
            # pulls this element; _maybe_schedule would return untouched.
            self._mailbox.append(_MailboxItem(channel_index, element, via))
            return
        if (
            not self._mailbox
            and not self._blocked
            and not (self._suspended or self._output_blocked)
            and self._txn_gate is None
        ):
            now = self._clock._now
            if now > busy_until:
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
            # After a live rescale, an owner can finish before records that now
            # belong to it drain elsewhere: reopen for those stragglers (its
            # finish decision runs again; re-forwarding EOS is idempotent).
            rescale = self.rescale_state
            if (
                rescale is None
                or not rescale.reroutes(self)
                or not isinstance(element, (Record, RecordBatch))
            ):
                return
            self.finished = False
            self._settling = True
        self._mailbox.append(_MailboxItem(channel_index, element))
        self._maybe_schedule()

    @property
    def _busy(self) -> bool:
        """True while an item is in service — the one definition every
        reader outside the run loop uses. A tie counts as busy."""
        return self.kernel.now() <= self._busy_until

    def _maybe_schedule(self) -> None:
        """Start the next service if the task is idle (``_process_next``
        decides); in a service whose completion event was elided, schedule
        that event once there is something for it to pull or decide."""
        busy_until = self._busy_until
        if busy_until == _EVENT_PENDING:
            return  # that event pulls
        if busy_until == _IDLE or self._clock._now > busy_until:
            self._process_next(self.incarnation)
        elif (self._mailbox or self._settling) and not (
            self._suspended or self._output_blocked or self.dead or self.finished
        ):
            # Schedule the elided completion where it would have been all
            # along.
            self._busy_until = _EVENT_PENDING
            self.kernel.call_at(busy_until, self._complete, None, self.incarnation)

    def _process_next(self, incarnation: int) -> None:
        """Pull the next queued element and serve it. An idle task (after a
        completion, or from ``_maybe_schedule``) first decides whether it
        may; the dispatch hop of a transactional task (already marked in
        service) serves what that decision let through."""
        if incarnation != self.incarnation or self.dead or self.finished:
            return
        mailbox = self._mailbox
        if self._busy_until != _EVENT_PENDING:
            if self._suspended or self._output_blocked:
                return
            if not mailbox:
                if self._settling:
                    self._settle()  # the mailbox drained
                return
            self._busy_until = _EVENT_PENDING
            # Process inline rather than through a call_soon hop. The hop
            # moved this task's next process() behind events already queued
            # for this instant. Deliveries and completions of other tasks
            # commute with it: they append to other mailboxes, and outputs
            # stay buffered until the completion event either way.
            # Same-instant control events aimed at *this* task (kill,
            # suspend, a mailbox_size sample) are not covered by that
            # argument; that no output, digest or chaos verdict moves is
            # established by the golden, macro and chaos suites. A
            # transactional task is the measured exception: beginning its
            # next txn ahead of a sibling's same-instant commit or lock
            # release changes lock-wait order, so it keeps the hop unless the
            # kernel has nothing else queued at now (then the orders are
            # identical by construction).
            if self._txn_gate is not None and not self.kernel.idle_at_now():
                self.kernel.call_soon(self._process_next, incarnation)
                return
        item: _MailboxItem | None = None
        blocked = self._blocked
        if not blocked:
            if mailbox:
                item = mailbox.popleft()
        else:
            # Hold back elements from inputs blocked by barrier alignment.
            held = self.inputs.buffer
            while mailbox:
                candidate = mailbox.popleft()
                if candidate.channel_index in blocked and not isinstance(
                    candidate.element, CheckpointBarrier
                ):
                    held.append(candidate)
                    continue
                item = candidate
                break
        if item is None:
            self._busy_until = _IDLE
            return
        self._serve(item.channel_index, item.element, item.via, self._clock._now)

    def _serve(self, channel_index: int, element: Any, via: Any, started: float) -> None:
        """The one service body: ``deliver`` calls it for an element that
        finds the task idle, ``_process_next`` for one popped off the mailbox.
        A record is served in this frame; anything else goes through
        ``_handle_item``. Then the cost is charged and the service ends."""
        stats = self.state_backend.stats
        reads_before = stats.reads
        writes_before = stats.writes
        ctx = self.ctx
        metrics = self.metrics
        if type(element) is Record or isinstance(element, Record):  # exact type first: no call
            key = element.key
            rescale = self.rescale_state
            if (
                rescale is not None
                and key is not None
                and (owner := rescale.owner(self, key)) is not None
                and owner is not self
            ):
                # Key ownership moved (live migration): forward the record
                # instead of processing it against empty state.
                owner.enqueue_local(element)
                units = None
            else:
                metrics.records_in += 1
                counts = self._keygroup_counts
                if counts is not None and key is not None:
                    group = key_group_for(key, self._keygroup_maxp)
                    counts[group] = counts.get(group, 0) + 1
                if element.trace is not None and self._tracer is not None:
                    self._active_span = self._tracer.begin(self.name, element.trace, started)
                    self._trace_mark = len(self._pending_output)
                ctx.current_key_value = key
                self.operator.process(element, ctx)
                units = 1
                timers_fired = 0
        else:
            units, timers_fired = self._handle_item(channel_index, element)

        # Each term is accounted only when there is one: most inputs touch
        # no state and fire no timer, and x + 0.0 is x.
        cost = 0.0
        if units is not None:
            if units:
                # One unit per record/timer; a batch charges the same
                # per-record model cost in a single multiply.
                cost += self.processing_cost * units
            if timers_fired:
                metrics.timers_fired += timers_fired
                cost += timers_fired * self.timer_cost
            reads = stats.reads - reads_before
            writes = stats.writes - writes_before
            state_cost = 0.0
            if reads or writes:
                metrics.state_reads += reads
                metrics.state_writes += writes
                backend = self.state_backend
                state_cost = reads * backend.read_latency + writes * backend.write_latency
                cost += state_cost
            extra_cost = ctx.extra_cost
            if extra_cost:
                ctx.extra_cost = 0.0
                cost += extra_cost
            span = self._active_span
            if span is not None:
                # Close the span at the element's virtual completion time and
                # re-stamp the outputs it produced with the child context, so
                # the trace follows the record through shuffles downstream.
                self._active_span = None
                self._tracer.finish(span, started + cost)
                child = TraceContext(span.trace_id, span.span_id)
                pending = self._pending_output
                for index in range(self._trace_mark, len(pending)):
                    out = pending[index]
                    if isinstance(out, Record):
                        pending[index] = out.with_trace(child)
            profiler = self._profiler
            if profiler is not None:
                # Profiler.charge per lane, in place: the same positive-only
                # float additions into the same flame paths, without the calls.
                samples = profiler.samples
                process_path, timers_path, state_path, extra_path = self._flame_paths
                if units:
                    seconds = self.processing_cost * units
                    if seconds > 0.0:
                        samples[process_path] = samples.get(process_path, 0.0) + seconds
                if timers_fired:
                    seconds = timers_fired * self.timer_cost
                    if seconds > 0.0:
                        samples[timers_path] = samples.get(timers_path, 0.0) + seconds
                if state_cost > 0.0:
                    samples[state_path] = samples.get(state_path, 0.0) + state_cost
                if extra_cost > 0.0:
                    samples[extra_path] = samples.get(extra_path, 0.0) + extra_cost
        completion = started + cost
        metrics.busy_time += cost
        if (
            self._pending_output
            or self._mailbox
            or via is not None
            or self._side_pending
            or self._txn_gate is not None
            or self._settling
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
            self.flush_outputs()
        # Return the credit for this element.
        if via is not None:
            via.return_credit()
        self._busy_until = _IDLE
        if self._mailbox or self._settling:
            # Otherwise there is nothing to pull or decide.
            self._process_next(incarnation)

    # ------------------------------------------------------------------
    # element handling
    # ------------------------------------------------------------------
    def _handle_item(self, channel_index: int, element: Any) -> tuple[int | None, int]:
        """Handle an element that is not a record (``_serve`` serves those):
        batches, timers and control elements. Returns ``(units, timers
        fired)`` for the cost model, ``units`` None when the element is not
        charged at all."""
        if type(element) is LatencyMarker:
            # Markers never touch the operator, state, or timers, so nothing
            # is charged. Intercepted before the operator — markers never
            # enter windows or state. Record the per-operator (and, at a
            # sink, the source→sink) latency, then forward in band.
            obs = self._obs
            if obs is not None:
                latency = self._clock._now - element.emitted_at
                histogram = self._marker_histogram
                if histogram is None:
                    histogram = self._marker_histogram = obs.latency.operator_histogram(
                        self.name, self.subtask_index
                    )
                histogram.record(latency)
                if not self.output_gates:
                    obs.latency.record_e2e(element.source_id, self.name, latency)
            if self.output_gates:
                self.collect_output(element)
            return None, 0
        timers_fired = 0
        record_units = 0
        if isinstance(element, _ProcTimer):
            if self._proc_timers.pop(id(element), None) is not None:
                self.ctx.current_key_value = element.key
                self.operator.on_processing_timer(
                    element.timestamp, element.key, element.payload, self.ctx
                )
                timers_fired += 1
                record_units = 1
        elif isinstance(element, RecordBatch):
            if self._txn_gate is not None:
                # One record = one transaction: the store's drain hold
                # pauses the mailbox *between* records, which a batch
                # processed as one element would bypass — its deferred
                # commits would overlap and the first to land would release
                # the hold for all of them (late emissions then race task
                # teardown). Re-queue the rows, in order, ahead of
                # everything else queued.
                for record in reversed(list(element.records())):
                    self._mailbox.appendleft(_MailboxItem(channel_index, record))
                return None, 0
            if self.rescale_state is not None and self.rescale_state.reroutes(self):
                # Live migration in flight: batch routing predates the new
                # key ownership, so explode and re-deliver per record.
                for record in element.records():
                    self.enqueue_local(record)
                return None, 0
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
            timers_fired += self._advance_watermark(channel_index, element.timestamp)
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
            self._close_input(channel_index)
        else:
            self.operator.on_element(element, self.ctx)
        return record_units, timers_fired

    def _advance_watermark(self, channel_index: int, timestamp: float) -> int:
        merged = self.inputs.advance(channel_index, timestamp, self.current_watermark)
        return 0 if merged is None else self._watermark_to(merged)

    def _watermark_to(self, merged: float) -> int:
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

    def _close_input(self, channel_index: int, retire: bool = False) -> None:
        """An input ended (its EndOfStream, in service) or was retired (a
        scale-in, outside the run loop): one transition either way."""
        inputs = self.inputs
        merged = inputs.close(channel_index, self.kernel.now(), retire)
        if merged is not None and merged > self.current_watermark:
            self._watermark_to(merged)
        pending = inputs.round
        if pending is not None and inputs.covered(pending):
            # The channels still owing a barrier closed instead: complete it.
            self._release(pending)
        if retire:
            self.flush_outputs()
            self._settling = True  # decide once nothing is in service
            self._maybe_schedule()
        else:
            self._settle()

    def _settle(self) -> None:
        """The finish decision: every data input closed, nothing queued, held
        back by alignment or in service. It runs when an input closes and
        when the mailbox drains; a drain probe polls it for a rescaled group
        or a feedback loop, which must also quiesce."""
        self._settling = False
        if self.finished or self.dead or self._probing or not self.inputs.exhausted:
            return
        # A rescaled node's own tasks (they reroute) decide on the probe's
        # cadence; a task it sends to finishes at once if the gate holds.
        rescale = self.rescale_state
        if self._feedback or (
            rescale is not None and (rescale.reroutes(self) or not rescale.ready(self))
        ):
            self._arm_drain_probe()
        elif self._mailbox or self.inputs.buffer:
            self._settling = True
        else:
            self._finish_task()

    @property
    def drained(self) -> bool:
        """True once this task can produce nothing more from its inputs:
        dead, finished, or every data input closed with nothing queued,
        held back by alignment or in service."""
        if self.dead or self.finished:
            return True
        return self.inputs.exhausted and not (self._mailbox or self.inputs.buffer or self._busy)

    #: drain probes, (interval, consecutive quiet probes required)
    _GROUP_PROBE = (0.002, 1)
    _LOOP_PROBE = (0.05, 3)

    def _arm_drain_probe(self) -> None:
        self._probing = True
        interval, rounds = self._LOOP_PROBE if self._feedback else self._GROUP_PROBE
        incarnation = self.incarnation
        quiet, last = 0, self.inputs.feedback_deliveries

        def probe() -> None:
            nonlocal quiet, last
            if incarnation != self.incarnation:
                return  # a kill ended this incarnation (a revive re-arms)
            count, rescale = self.inputs.feedback_deliveries, self.rescale_state
            still = count == last and self.drained and not self._pending_output
            quiet = quiet + 1 if still and (rescale is None or rescale.ready(self)) else 0
            last = count
            if self.finished or quiet >= rounds:
                self._probing = False
                if not self.finished:
                    self._finish_task()
            else:
                self.kernel.call_after(interval, probe)

        self.kernel.call_after(interval, probe)

    def _finish_task(self) -> None:
        # All inputs done: ensure remaining event timers fire, quiesce
        # pending processing-time timers (fired immediately, in timestamp
        # order), flush, forward.
        self._fire_event_timers(MAX_TIMESTAMP)
        pending = sorted(self._proc_timers.values(), key=lambda t: t.timestamp)
        self._proc_timers.clear()
        for timer in pending:
            self.ctx.current_key_value = timer.key
            self.operator.on_processing_timer(timer.timestamp, timer.key, timer.payload, self.ctx)
        self.operator.flush(self.ctx)
        self.collect_output(EndOfStream(source_id=self.name))
        self.finished = True
        self.metrics.finished_at = self.kernel.now()
        self.flush_outputs()
        gate = self._txn_gate
        if gate is not None:
            # Fence rounds no longer wait on a drained owner.
            gate.on_owner_finished(self)
        if self.engine is not None:
            self.engine.on_task_finished(self)

    # ------------------------------------------------------------------
    # barriers & snapshots
    # ------------------------------------------------------------------
    def _handle_barrier(self, channel_index: int, barrier: CheckpointBarrier) -> None:
        inputs = self.inputs
        if channel_index in self._feedback:
            return  # async loops do not carry barriers
        pending = inputs.round
        if pending is not None and pending.checkpoint_id != barrier.checkpoint_id:
            if barrier.checkpoint_id < pending.checkpoint_id:
                return  # a stale barrier of an abandoned round
            # A newer round supersedes one that never completed. What that
            # round held back precedes this barrier, so it is served first.
            held = inputs.release()
            if held:
                held.append(_MailboxItem(channel_index, barrier))
                self._mailbox.extendleft(reversed(held))
                return
        if inputs.barrier(channel_index, barrier):
            self._release(barrier)

    def _release(self, barrier: CheckpointBarrier | None = None) -> None:
        """End the alignment round: snapshot and forward ``barrier`` when
        the round completed (None: cancelled), then put what it held back at
        the head of the mailbox."""
        if barrier is not None:
            # Pre-snapshot hook: an operator holding an in-flight micro-batch
            # flushes it *into this epoch*, ahead of the barrier, so a
            # restore never replays half a batch.
            pre = getattr(self.operator, "on_barrier", None)
            if pre is not None:
                pre(barrier.checkpoint_id, self.ctx)
            gate = self._txn_gate
            if gate is not None:
                # Shared-store fence: park (a hold) until every live owner
                # reaches this barrier; the store then injects it here.
                gate.request_fence(self, barrier)
            else:
                self._capture_and_forward(barrier)
        self._mailbox.extendleft(reversed(self.inputs.release()))

    def cancel_alignment(self, checkpoint_id: int) -> None:
        """Abort a pending barrier alignment (the coordinator gave up on
        ``checkpoint_id``): unblock the inputs and re-inject the buffered
        elements so a lost barrier cannot wedge the task forever."""
        gate = self._txn_gate
        if gate is not None:
            # A park on the txn store's fence for this round is withdrawn.
            gate.cancel_fence(self, checkpoint_id)
        pending = self.inputs.round
        if pending is not None and pending.checkpoint_id == checkpoint_id:
            self._release()
            self._maybe_schedule()

    def inject_barrier(self, barrier: CheckpointBarrier) -> None:
        """Snapshot and send ``barrier`` downstream now: a source's trigger
        from the coordinator, a txn owner's completed fence round."""
        self._capture_and_forward(barrier)
        self.flush_outputs()

    def _capture_and_forward(self, barrier: CheckpointBarrier) -> None:
        snapshot = self.take_snapshot(barrier.checkpoint_id)
        hook = getattr(self.operator, "on_checkpoint", None)
        if hook is not None:
            hook(barrier.checkpoint_id)
        self.coordinator.ack(snapshot)
        self.collect_output(barrier)

    def take_snapshot(self, checkpoint_id: int) -> TaskSnapshot:
        """Capture keyed state, operator state, timers and watermark.

        The coordinator decides how keyed state is captured (see
        :meth:`~repro.checkpoint.coordinator.CheckpointCoordinator.capture`):
        a full dict, or in incremental mode a chain link whose
        O(captured-entries) capture cost is charged to the barrier element
        via the cost model. Out-of-band captures (standby mirrors use
        negative ids) always take the full dict.
        """
        keyed_state, delta, cost = self.coordinator.capture(
            self.name, self.state_backend, checkpoint_id
        )
        if cost:
            self.ctx.add_cost(cost)
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
        if snapshot.delta is not None:
            # Incremental capture: keyed state lives in the coordinator's
            # base + delta chain, not in the snapshot itself.
            self.coordinator.restore_chain(self.name, self.state_backend, snapshot.delta)
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

    def extract_event_timers(self, predicate: Callable[[Any], bool]) -> list[tuple[float, Any, Any]]:
        """Remove and return, as ``(timestamp, key, payload)`` in heap order,
        the pending event-time timers whose key matches ``predicate`` (live
        migration: timers follow their keys); timers without a key stay."""
        moving, kept = [], []
        for timestamp, seq, key, payload in self._event_timers:
            if key is not None and predicate(key):
                moving.append((timestamp, key, payload))
            else:
                kept.append((timestamp, seq, key, payload))
        heapq.heapify(kept)
        self._event_timers = kept
        return moving

    def register_processing_timer(self, timestamp: float, key: Any, payload: Any) -> None:
        """Arm a virtual-processing-time timer."""
        timer = _ProcTimer(timestamp, key, payload)
        self._proc_timers[id(timer)] = timer

        def fire() -> None:
            # gone from the registry: it fired at finish, or a kill cleared it
            if id(timer) not in self._proc_timers:
                return
            self.enqueue_local(timer)

        self.kernel.call_at(max(timestamp, self.kernel.now()), fire)

    # ------------------------------------------------------------------
    # output path
    # ------------------------------------------------------------------
    def collect_output(self, element: StreamElement) -> None:
        """Buffer an element for emission at processing completion (the
        output tap sees it first)."""
        tap = self._output_tap
        if tap is not None:
            tap(element)
        self._pending_output.append(element)

    def set_output_tap(self, tap: Callable[[StreamElement], None] | None) -> None:
        """Install ``tap`` (None removes it): from the next element on, also
        mid-run, it is handed every element the task buffers for output,
        ahead of the buffer."""
        self._output_tap = tap
        self._bind_emit()

    def _bind_emit(self) -> None:
        """Point ``ctx.emit`` at the output deque's own ``append`` (no Python
        frame), or at ``collect_output`` while a tap is installed or it was
        replaced on the instance before the task started."""
        collect = self.collect_output
        plain = getattr(collect, "__func__", None) is Task.collect_output
        self.ctx.emit = (
            self._pending_output.append if plain and self._output_tap is None else collect
        )

    def collect_side_output(self, tag: str, element: StreamElement) -> None:
        """Buffer a tagged side-output element."""
        self._side_pending.append((tag, element))

    def flush_outputs(self) -> None:
        """Send every buffered output element downstream now, in order."""
        pending = self._pending_output
        gates = self.output_gates
        metrics = self.metrics
        while pending:
            element = pending.popleft()
            if type(element) is Record or isinstance(element, Record):
                metrics.records_out += 1
            elif isinstance(element, RecordBatch):
                # Per-batch accounting: one increment for the whole run.
                metrics.records_out += len(element)
            for gate in gates:
                # Every partitioning sends every element to a gate's only
                # channel: transmit there without the gate's frame.
                channels = gate.channels
                sent = channels[0].transmit(element) if len(channels) == 1 else gate.emit(element)
                if not sent:
                    # A channel parked it: blocked, from the first such
                    # element on (a later one leaves the interval open).
                    self._output_blocked = True
                    if self._blocked_since is None:
                        self._blocked_since = self._clock._now
        if self._side_pending and self.engine is not None:
            for tag, element in self._side_pending:
                self.engine.on_side_output(self.name, tag, element)
            self._side_pending = []

    def output_unblocked(self) -> None:
        """Called by a channel when its backlog drains."""
        if not self._output_blocked or self._unblock():
            self._maybe_schedule()

    def _unblock(self) -> bool:
        """Leave the blocked state if every output is clear, flushing what
        waited; True when the flush left the task unblocked."""
        if not outputs_clear(self.output_gates):
            return False
        self._output_blocked = False
        if self._blocked_since is not None:
            self.metrics.blocked_time += self.kernel.now() - self._blocked_since
            self._blocked_since = None
        self.flush_outputs()
        return not self._output_blocked

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
        self._drop_queued()
        self._pending_output.clear()
        self._event_timers.clear()
        self._proc_timers.clear()
        self._output_blocked = False
        self._blocked_since = None
        self._active_span = None
        gate = self._txn_gate
        if gate is not None:
            # The store drops its holds on us, aborts our in-flight txns and
            # unwedges any fence round waiting on us (the engine clears the
            # pending checkpoint on a kill without cancelling alignment).
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
        downstream rebuilds (the effect flow control would have), and by a
        transactional store: a transaction in flight, a fence park. Holds
        nest: the mailbox stays held until every suspend is resumed. A
        source holds its emission instead."""
        self._suspended += 1

    def resume_processing(self) -> None:
        """Undo one :meth:`suspend`; pulling resumes once none is left."""
        if self._suspended:
            self._suspended -= 1
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

    def _drop_queued(self, hand_off: Callable[[Any], None] | None = None) -> None:
        """Empty the mailbox and end the alignment round (kill, scale-in):
        ``hand_off`` gets each element, then its credit returns."""
        items = [*self._mailbox, *self.inputs.release()]
        self._mailbox.clear()
        for item in items:
            if hand_off is not None:
                hand_off(item.element)
            if item.via is not None:
                item.via.return_credit()

    def retire(self, hand_off: Callable[[Any], None]) -> None:
        """Leave the plan (scale-in): hand every element still queued or
        held back by alignment to ``hand_off`` and finish without an
        end-of-stream (the receivers retire the links instead). Later
        deliveries are forwarded to their owners (``rescale_state``)."""
        self._drop_queued(hand_off)
        self.finished = True
        self.metrics.finished_at = self.kernel.now()

    def reincarnate(self, operator: Operator, state_backend: "KeyedStateBackend | None" = None) -> None:
        """Bring the task back with a fresh operator (and backend unless the
        old one survives failures). Caller then restores a snapshot."""
        self.operator = operator
        self._txn_gate = getattr(operator, "txn_gate", None)
        if state_backend is not None:
            self.state_backend = state_backend
        self.dead = False
        self.finished = False
        self._settling = self._probing = False
        self.metrics.mark_up(self.kernel.now())
        self.inputs.revive(self.kernel.now())
        self.current_watermark = float("-inf")
        self.operator.open(self.ctx)

    @property
    def mailbox_size(self) -> int:
        return len(self._mailbox)

    @property
    def is_backpressured(self) -> bool:
        return self._output_blocked

    @property
    def blocked_since(self) -> float | None:
        """Virtual time the open backpressure interval began (None: none)."""
        return self._blocked_since

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
        #: emit RecordBatch runs of up to this many records (None = one
        #: record per emission; a size of 1 is per-record too)
        self._batch_records = (
            batch_records if batch_records is not None and batch_records > 1 else None
        )
        #: the pulled-but-unemitted unit: one event per record, or a list of
        #: (event, planned_arrival) pairs per batch; excluded from the
        #: snapshot offset, so a restore re-pulls it deterministically
        self._pending: Any = None
        #: virtual time the pending unit is due
        self._pending_due = 0.0
        self._last_watermark = float("-inf")
        self._periodic: PeriodicTimer | None = None
        self._hb_timer: PeriodicTimer | None = None
        self._marker_timer: PeriodicTimer | None = None
        self._marker_seq = itertools.count()
        #: this source's ``latency_markers_emitted`` counter, bound on the
        #: first marker
        self._markers_emitted: Any = None
        self._max_event_time = float("-inf")

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.metrics.started_at = self.kernel.now()
        self._next_arrival = self.kernel.now()
        self._start_timers()
        self._schedule_next()

    def _start_timers(self) -> None:
        """Arm the periodic-watermark, heartbeat and latency-marker timers."""
        if self.strategy.periodic_interval is not None:
            self._periodic = PeriodicTimer(
                self.kernel, self.strategy.periodic_interval, self._periodic_watermark
            )
        if self.heartbeat_interval is not None:
            self._hb_timer = PeriodicTimer(self.kernel, self.heartbeat_interval, self._emit_heartbeat)
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
        counter = self._markers_emitted
        if counter is None:
            counter = self._markers_emitted = self._obs.latency.emitted_counter(
                self.name, self.subtask_index
            )
        counter.inc()
        self.collect_output(marker)
        self.flush_outputs()

    def _schedule_next(self) -> None:
        """Pull the next emission unit and arm one kernel timer at its due
        time: one event per record, or up to ``_batch_records`` events whose
        arrival times accumulate to the last one — the whole batch then
        travels as a single element. Watermark strategies still observe
        every event (at emission, so progress never outruns unemitted data),
        and only the highest resulting watermark follows a batch."""
        if self.dead or self.finished or self._suspended:
            return
        arrival = max(self._clock._now, self._next_arrival)
        limit = self._batch_records
        if limit is None:
            pending = next(self._iterator, None)
            if pending is not None:
                arrival += pending.inter_arrival
        else:
            batch = []
            for event in itertools.islice(self._iterator, limit):
                arrival += event.inter_arrival
                batch.append((event, arrival))
            pending = batch or None
        if pending is None:
            self._finish()
            return
        self._next_arrival = arrival
        self._pending = pending
        self._pending_due = arrival
        self.kernel.call_at(arrival, self._emit_due, self.incarnation)

    def _emit_due(self, incarnation: int) -> None:
        """The emission timer, also run when output unblocks or the source
        resumes: once the pending unit is due and every output is clear, emit
        it and arm the next. Void if the source was killed since it was
        armed."""
        if incarnation != self.incarnation or self.dead or self.finished:
            return
        now = self._clock._now
        if now + 1e-12 < self._pending_due:
            # Not due yet (an unblock or stale timer poked us early); the
            # timer scheduled for the due time will deliver it.
            return
        if self._output_blocked or not outputs_clear(self.output_gates):
            # Backpressured: wait for output_unblocked() to call us back.
            self._output_blocked = True
            if self._blocked_since is None:
                self._blocked_since = now
            return
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        if self._batch_records is None:
            self._emit_record(pending.value, pending.event_time)
        else:
            self._emit_batch(pending)
        self._schedule_next()

    def _emit_record(self, value: Any, event_time: Any) -> None:
        """Emit one record now (+ the watermark its strategy yields): the
        scalar emission body of the pull loop."""
        now = self._clock._now
        record = Record(value, event_time, None, 1, now)
        tracer = self._tracer
        if tracer is not None and tracer.sample():
            record = record.with_trace(tracer.begin_root(self.name, now))
        if event_time is not None and event_time > self._max_event_time:
            self._max_event_time = event_time
        emit = self.ctx.emit
        emit(record)
        self.metrics.records_in += 1
        watermark = self.strategy.on_event(value, event_time, now)
        if watermark is not None and watermark.timestamp > self._last_watermark:
            self._last_watermark = watermark.timestamp
            emit(watermark)
        self._emitted += 1
        self.flush_outputs()

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
        self.flush_outputs()

    def output_unblocked(self) -> None:
        if self._output_blocked and self._unblock() and self._pending is not None:
            self._emit_due(self.incarnation)

    def _periodic_watermark(self) -> None:
        if self.dead or self.finished:
            return
        watermark = self.strategy.on_periodic(self.kernel.now())
        if watermark is not None and watermark.timestamp > self._last_watermark:
            self._last_watermark = watermark.timestamp
            self.collect_output(watermark)
            self.flush_outputs()

    def _emit_heartbeat(self) -> None:
        if self.dead or self.finished:
            return
        timestamp = self._max_event_time if self._max_event_time > float("-inf") else self.kernel.now()
        self.collect_output(Heartbeat(source_id=self.name, timestamp=timestamp))
        self.flush_outputs()

    def _finish(self) -> None:
        self.finished = True
        self.metrics.finished_at = self.kernel.now()
        self.collect_output(Watermark(MAX_TIMESTAMP))
        self.collect_output(EndOfStream(source_id=self.name))
        self.flush_outputs()
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
    def resume_processing(self) -> None:
        """Undo one :meth:`suspend` (on a source it holds emission: a
        stop-restart reconfiguration, a chaos stall, a tap-fed source); once
        none is left, emission continues from the pending event."""
        if not self._suspended:
            return
        self._suspended -= 1
        if self._suspended:
            return
        if self._pending is not None:
            self._emit_due(self.incarnation)
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
        self._emitted = 0  # skip the emitted prefix (all of it, if the workload is shorter)
        for _event in itertools.islice(self._iterator, offset or 0):
            self._emitted += 1
        self._last_watermark = snapshot.watermark if snapshot is not None else float("-inf")
        self._pending = None
        self._next_arrival = self.kernel.now()
        if snapshot is not None:
            self.metrics.restored_at.append(self.kernel.now())

    def kill(self) -> None:
        super().kill()
        self._cancel_timers()
        self._pending = None

    def reincarnate(self, operator: Operator | None = None, state_backend: Any = None) -> None:
        """Come back where the source stopped, the next record due from now
        on (at-most-once continues so; a restore then rewinds the offset)."""
        self.dead = False
        self.finished = False
        self.metrics.mark_up(self.kernel.now())
        self.strategy = self.strategy.fresh()
        self._start_timers()
        self._next_arrival = self.kernel.now()

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
