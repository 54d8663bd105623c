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
import linecache
import os
import re
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
from repro.core.operators.chain import ChainedOperator
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

#: virtual CPU seconds charged per fired timer
TIMER_COST = 5e-6

#: ``Task._busy_until`` outside a finite elided interval
_IDLE = float("-inf")
_EVENT_PENDING = float("inf")


# ----------------------------------------------------------------------
# generated bodies (DESIGN.md, "Compiled serve")
# ----------------------------------------------------------------------
# A template line ending in "  # [part]" is kept only when the part is on,
# one ending in "  # [!part]" only when it is off; a line "@name" stands for
# the fragment of that name, indented where it stands. The template with
# every part on is the general body.

#: ``Task``'s run loop: ``deliver`` (an element arrives), ``_complete`` (a
#: service ends), ``_process_next`` (an idle task pulls) and
#: ``flush_outputs``; each of the first three serves what it starts in its
#: own frame
_SERVE = """\
def make(task, ctx, metrics, outbox, mailbox, gates, kernel, clock, operator, backend, head, rescale, counts, maxp, tracer, profiler, flame_paths):
    stats = backend.stats
    feedback, blocked = task.inputs.feedback, task.inputs.blocked
    def deliver(channel_index, element, via=None):
        if task.dead or task.finished or feedback and channel_index in feedback:
            task._deliver_rare(channel_index, element, via)
            return
        busy_until = task._busy_until
        if busy_until == _EVENT_PENDING:
            # In service, its completion (or dispatch hop) pending: that
            # event pulls this element.
            mailbox.append(_MailboxItem(channel_index, element, via))
            return
        started = clock._now  # [!gate]
        if started > busy_until and not mailbox and not blocked and not (task._suspended or task._output_blocked):  # [!gate]
            # Idle and unheld: _process_next would pop this very element  # [!gate]
            # at once, so it is served without queueing.  # [!gate]
            task._busy_until = _EVENT_PENDING  # [!gate]
            @serve  # [!gate]
            return  # [!gate]
        mailbox.append(_MailboxItem(channel_index, element, via))
        task._maybe_schedule()
    def _complete(via, incarnation):
        if incarnation != task.incarnation:
            return
        if outbox or task._side_pending:
            @flush
        if via is not None:
            via.return_credit()  # the served element's credit
        task._busy_until = _IDLE
        @decide
        @pop
    def _process_next(incarnation):
        if incarnation != task.incarnation or task.dead or task.finished:
            return
        if task._busy_until != _EVENT_PENDING:  # else a txn task's dispatch hop: the decision is made
            @decide
        @pop
    def flush_outputs():
        @flush
    return {"deliver": deliver, "_complete": _complete, "_process_next": _process_next, "flush_outputs": flush_outputs}
"""

#: ``SourceTask._emit_due`` (the emission timer) and ``_schedule_next``
_EMIT = """\
def make(task, ctx, metrics, outbox, gates, clock, kernel, tracer, on_event):
    def _emit_due(incarnation):
        if incarnation != task.incarnation or task.dead or task.finished:
            return
        now = clock._now
        if now + 1e-12 < task._pending_due:
            # Not due yet (an unblock or stale timer poked us early); the
            # timer scheduled for the due time will deliver it.
            return
        held = task._output_blocked
        if not held:
            @clear
        if held:
            # Backpressured: wait for output_unblocked() to call us back.
            task._output_blocked = True
            if task._blocked_since is None:
                task._blocked_since = now
            return
        pending = task._pending
        if pending is None:
            return
        task._pending = None
        task._emit_batch(pending)  # [batch]
        @record  # [!batch]
        @pull
    def _schedule_next():
        @pull
    return _emit_due, _schedule_next
"""

#: the fragments both templates inline by name
_FRAGMENTS = {
    # Whether an idle task may pull: not while held, nor with nothing queued
    # (then a settling task decides whether it finished). Pulling inline
    # moves its next process() ahead of events already queued for this
    # instant; other tasks' deliveries and completions commute with it, and
    # for same-instant control aimed at this task (kill, suspend, a
    # mailbox_size sample) the golden, macro and chaos suites show no output
    # moves. A txn task is the measured exception (its next txn would pass a
    # sibling's same-instant commit or lock release): it keeps a call_soon
    # hop unless the kernel has nothing else queued at now.
    "decide": """\
if not mailbox:
    if task._settling and not (task.finished or task._suspended or task._output_blocked):
        task._settle()  # the mailbox drained
    return
if task.finished or task._suspended or task._output_blocked:
    return
task._busy_until = _EVENT_PENDING
if not kernel.idle_at_now():  # [gate]
    kernel.call_soon(task._process_next, incarnation)  # [gate]
    return  # [gate]
""",
    # pull the next mailbox item and serve it
    "pop": """\
item = None
if not blocked:
    if mailbox:
        item = mailbox.popleft()
else:
    # Hold back elements from inputs blocked by barrier alignment.
    held = task.inputs.buffer
    while mailbox:
        candidate = mailbox.popleft()
        if candidate.channel_index in blocked and not isinstance(candidate.element, CheckpointBarrier):
            held.append(candidate)
            continue
        item = candidate
        break
if item is None:
    task._busy_until = _IDLE
    return
channel_index, element, via, started = item.channel_index, item.element, item.via, clock._now
@serve
""",
    # the service: a record in this frame, anything else through
    # ``_handle_item``; then the charges and the end of the service
    "serve": """\
if type(element) is Record or isinstance(element, Record):  # exact type first: no call
    key = element[2]
    if key is not None and (owner := rescale.owner(task, key)) is not None and owner is not task:  # [rescale]
        # Key ownership moved (live migration): forward the record  # [rescale]
        # instead of processing it against empty state.  # [rescale]
        owner.enqueue_local(element)  # [rescale]
        cost = 0.0  # [rescale]
        @end  # [rescale]
        return  # [rescale]
    reads_before = stats.reads
    writes_before = stats.writes
    metrics.records_in += 1
    if key is not None:  # [keygroups]
        group = key_group_for(key, maxp)  # [keygroups]
        counts[group] = counts.get(group, 0) + 1  # [keygroups]
    if element[5] is not None:  # [tracer]
        task._active_span = tracer.begin(task.name, element[5], started)  # [tracer]
        task._trace_mark = len(outbox)  # [tracer]
    if element[5] is None and type(element) is Record:  # [chain]
        head(element, ctx)  # the chain's entry sets the key first  # [chain]
    else:  # [chain]
        ctx.current_key_value = key  # [chain]
        operator.process(element, ctx)  # [chain]
    ctx.current_key_value = key  # [!chain]
    operator.process(element, ctx)  # [!chain]
    # one unit, no timer fired
    cost = task.processing_cost
    units, timers_fired = 1, 0  # [profiler]
    @charge
    @end
    return
reads_before = stats.reads
writes_before = stats.writes
units, timers_fired = task._handle_item(channel_index, element)
# Each term is accounted only when there is one: most inputs touch
# no state and fire no timer, and x + 0.0 is x.
cost = 0.0
if units is not None:
    if units:
        # One unit per record/timer; a batch charges the same
        # per-record model cost in a single multiply.
        cost += task.processing_cost * units
    if timers_fired:
        metrics.timers_fired += timers_fired
        cost += timers_fired * TIMER_COST
    @charge
@end
""",
    "charge": """\
reads = stats.reads - reads_before
writes = stats.writes - writes_before
state_cost = 0.0
if reads or writes:
    metrics.state_reads += reads
    metrics.state_writes += writes
    state_cost = reads * backend.read_latency + writes * backend.write_latency
    cost += state_cost
extra_cost = ctx.extra_cost
if extra_cost:
    ctx.extra_cost = 0.0
    cost += extra_cost
span = task._active_span  # [tracer]
if span is not None:  # [tracer]
    # Close the span at the element's virtual completion time and  # [tracer]
    # re-stamp the outputs it produced with the child context, so  # [tracer]
    # the trace follows the record through shuffles downstream.  # [tracer]
    task._active_span = None  # [tracer]
    tracer.finish(span, started + cost)  # [tracer]
    child = TraceContext(span.trace_id, span.span_id)  # [tracer]
    for index in range(task._trace_mark, len(outbox)):  # [tracer]
        out = outbox[index]  # [tracer]
        if isinstance(out, Record):  # [tracer]
            outbox[index] = out.with_trace(child)  # [tracer]
@profile  # [profiler]
""",
    # Profiler.charge per lane, in place: the same positive-only float
    # additions into the same flame paths, without the calls.
    "profile": """\
samples = profiler.samples
process_path, timers_path, state_path, extra_path = flame_paths
if units:
    seconds = task.processing_cost * units
    if seconds > 0.0:
        samples[process_path] = samples.get(process_path, 0.0) + seconds
if timers_fired:
    seconds = timers_fired * TIMER_COST
    if seconds > 0.0:
        samples[timers_path] = samples.get(timers_path, 0.0) + seconds
if state_cost > 0.0:
    samples[state_path] = samples.get(state_path, 0.0) + state_cost
if extra_cost > 0.0:
    samples[extra_path] = samples.get(extra_path, 0.0) + extra_cost
""",
    "end": """\
completion = started + cost
metrics.busy_time += cost
kernel.call_at(completion, task._complete, via, task.incarnation)  # [gate]
if outbox or mailbox or via is not None or task._side_pending or task._settling or task._output_blocked:  # [!gate]
    kernel.call_at(completion, task._complete, via, task.incarnation)  # [!gate]
else:  # [!gate]
    # The completion event would flush nothing, return no credit and  # [!gate]
    # find nothing to pull: being busy until ``completion`` is all it  # [!gate]
    # stands for. _maybe_schedule schedules it after all, at this  # [!gate]
    # same time, if something arrives before then.  # [!gate]
    task._busy_until = completion  # [!gate]
""",
    # ``outputs_clear(gates)``: ``held`` once a channel holds a parked element
    "clear": """\
for gate in gates:
    for channel in gate.channels:
        if channel._backlog:
            held = True
""",
    # one record now (+ the watermark its strategy yields)
    "record": """\
value = pending.value
event_time = pending.event_time
record = _new_row(Record, (value, event_time, None, 1, now, None))
if tracer.sample():  # [tracer]
    record = record.with_trace(tracer.begin_root(task.name, now))  # [tracer]
if event_time is not None and event_time > task._max_event_time:
    task._max_event_time = event_time
emit = ctx.emit
emit(record)
metrics.records_in += 1
watermark = on_event(value, event_time, now)
if watermark is not None and watermark.timestamp > task._last_watermark:
    task._last_watermark = watermark.timestamp
    emit(watermark)
task._emitted += 1
@flush
""",
    # pull the next emission unit and arm one kernel timer at its due time
    "pull": """\
if task.dead or task.finished or task._suspended:
    return
arrival = max(clock._now, task._next_arrival)
pending = next(task._iterator, None)  # [!batch]
if pending is not None:  # [!batch]
    arrival += pending.inter_arrival  # [!batch]
pending = []  # [batch]
for event in islice(task._iterator, task._batch_records):  # [batch]
    arrival += event.inter_arrival  # [batch]
    pending.append((event, arrival))  # [batch]
pending = pending or None  # [batch]
if pending is None:
    task._finish()
    return
task._next_arrival = arrival
task._pending = pending
task._pending_due = arrival
kernel.call_at(arrival, task._emit_due, task.incarnation)
""",
    # send every buffered output element downstream now, in order
    "flush": """\
while outbox:
    element = outbox.popleft()
    if type(element) is Record or isinstance(element, Record):
        metrics.records_out += 1
    elif isinstance(element, RecordBatch):
        # Per-batch accounting: one increment for the whole run.
        metrics.records_out += len(element)
    for gate in gates:
        # Every partitioning sends every element to a gate's only
        # channel: transmit there without the gate's frame.
        channels = gate.channels
        if not (channels[0].transmit(element) if len(channels) == 1 else gate.emit(element)):
            # A channel parked it: blocked, from the first such element
            # on (a later one leaves the interval open).
            task._output_blocked = True
            if task._blocked_since is None:
                task._blocked_since = clock._now
if task._side_pending and task.engine is not None:
    for tag, element in task._side_pending:
        task.engine.on_side_output(task.name, tag, element)
    task._side_pending = []
""",
}

#: generated code is filed under this package, so profilers attribute it to
#: the run loop and tracebacks show its lines (registered with linecache)
_SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
_PART_TAG = re.compile(r"  # \[(!?)(\w+)\]$")
#: factory per (template, parts on): same-shaped tasks compile once
_FACTORIES: dict[tuple[str, frozenset[str]], Callable[..., Any]] = {}


def _expand(template: str, parts: frozenset[str], pad: str = "") -> list[str]:
    """``template``'s lines for the parts in ``parts``, fragments inlined."""
    lines = []
    for line in template.splitlines():
        tag = _PART_TAG.search(line)
        if tag is not None:
            if (tag.group(2) in parts) == bool(tag.group(1)):
                continue
            line = line[: tag.start()]
        code = line.lstrip()
        if code.startswith("@"):
            indent = pad + line[: len(line) - len(code)]
            lines += _expand(_FRAGMENTS[code[1:]], parts, indent)
        else:
            lines.append(pad + line)
    return lines


def _factory(template: str, parts: dict[str, bool]) -> Callable[..., Any]:
    """The compiled ``make`` of ``template`` (``_SERVE`` or ``_EMIT``) for
    the parts that are on."""
    on = frozenset(name for name, attached in parts.items() if attached)
    factory = _FACTORIES.get((template, on))
    if factory is None:
        source = "\n".join(_expand(template, on)) + "\n"
        label = "serve" if template is _SERVE else "emission"
        filename = os.path.join(_SOURCE_DIR, f"<compiled {label} {len(_FACTORIES)}>")
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        namespace = {
            "Record": Record, "RecordBatch": RecordBatch, "CheckpointBarrier": CheckpointBarrier,
            "TraceContext": TraceContext, "key_group_for": key_group_for,
            "islice": itertools.islice, "_new_row": tuple.__new__, "TIMER_COST": TIMER_COST,
            "_MailboxItem": _MailboxItem, "_EVENT_PENDING": _EVENT_PENDING, "_IDLE": _IDLE,
        }
        exec(compile(source, filename, "exec"), namespace)
        factory = _FACTORIES[template, on] = namespace["make"]
    return factory


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

    @property
    def task(self) -> "Task":
        """The owning task — transactional operators bind their shared
        store to it (gate hooks, out-of-band commit emission)."""
        return self._task

    # --- output ---------------------------------------------------------
    #: ``emit`` is bound per instance by the task (see ``Task._bind_emit``)
    emit: Callable[[StreamElement], None]

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
        processing_cost: float = 2e-5,
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
        self.processing_cost = (
            operator.processing_cost if operator.processing_cost is not None else processing_cost
        )
        self.metrics = metrics or TaskMetrics(task_name=name)
        self.engine = engine
        #: the engine's checkpoint coordinator: capture format, acks, chain
        #: restores (a task outside an engine has its own: no rounds)
        self.coordinator = engine.coordinator if engine else CheckpointCoordinator(None, None)

        self.ctx = TaskContext(self)
        self.output_gates: list[OutputGate] = []
        #: the input protocol: channel lifecycle, watermark merging, alignment
        self.inputs = TaskInputs()
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
        self._compile()

    def start(self) -> None:
        """Open the operator."""
        self._bind_emit()
        self.operator.open(self.ctx)
        self._compile()

    # ------------------------------------------------------------------
    # input path
    # ------------------------------------------------------------------
    #: when set (by an active-standby manager), deliveries during downtime
    #: are parked here instead of dropped — the hot replica "received" them
    ha_buffer: list | None = None
    _rescale_state: Any = None
    #: when set (by the autoscaler's hot-key detector), counts processed
    #: records per key group: {key_group: count}. None on the production
    #: path, whose service body then has no key-group section.
    _keygroup_counts: Any = None
    _keygroup_maxp: int = 0

    @property
    def rescale_state(self) -> Any:
        """When set (by a live rescale), the rescale part this task's node,
        or a node it receives from, belongs to (``RescaleState`` in
        ``load/migration.py``): a member forwards records whose key moved
        (``owner``, ``reroutes``), and the finish decision waits for its
        gate (``ready``; see _settle). Setting it rebuilds the service body."""
        return self._rescale_state

    @rescale_state.setter
    def rescale_state(self, state: Any) -> None:
        self._rescale_state = state
        self._compile()

    def enable_keygroup_tracking(self, max_parallelism: int) -> None:
        """Start counting processed records per key group (hot-key skew
        detection); idempotent."""
        if self._keygroup_counts is None:
            self._keygroup_counts = {}
        self._keygroup_maxp = max_parallelism
        self._compile()

    @property
    def keygroup_counts(self) -> dict[int, int]:
        """Records processed per key group since tracking began (empty when
        not tracking); see :meth:`enable_keygroup_tracking`."""
        return self._keygroup_counts or {}

    def deliver(self, channel_index: int, element: StreamElement, via: Any = None) -> None:
        """Channel callback: serve the element in place when the task is
        idle and unheld, else queue it (a dead task parks or drops it, a
        finished one forwards it). Generated with the rest of the run loop
        (see ``_compile``); this class-level one runs the latest build."""
        self._built("deliver")(channel_index, element, via)

    def _deliver_rare(self, channel_index: int, element: StreamElement, via: Any) -> None:
        """``deliver``'s slow path. An element on a feedback input is counted
        and queued. A dead task parks the element for a hot replica
        (``ha_buffer``) or drops it; a finished one forwards the records a
        rescale moved (an owner that finished first reopens for them, see
        ``enqueue_local``). Either way the credit returns, so the channel
        leaks no capacity while the task is down."""
        if not (self.dead or self.finished):
            self.inputs.feedback_deliveries += 1
            self._mailbox.append(_MailboxItem(channel_index, element, via))
            self._maybe_schedule()
            return
        rescale = self._rescale_state
        if self.dead:
            if self.ha_buffer is not None:
                self.ha_buffer.append(_MailboxItem(channel_index, element))
            elif isinstance(element, (Record, RecordBatch)):
                # conservation oracles count records, not elements
                self.metrics.dropped += len(element) if isinstance(element, RecordBatch) else 1
        elif rescale is not None and isinstance(element, (Record, RecordBatch)):
            for record in element.records() if isinstance(element, RecordBatch) else (element,):
                owner = rescale.owner(self, record.key) if record.key is not None else None
                if owner is not None:
                    owner.enqueue_local(record)
        if via is not None:
            via.return_credit()

    def enqueue_local(self, element: StreamElement | _ProcTimer, channel_index: int = -1) -> None:
        """Inject an element bypassing channels (timers, dynamic topologies,
        function-runtime deliveries)."""
        if self.dead:
            return
        if self.finished:
            # After a live rescale, an owner can finish before records that now
            # belong to it drain elsewhere: reopen for those stragglers (its
            # finish decision runs again; re-forwarding EOS is idempotent).
            rescale = self._rescale_state
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
        """An idle task decides whether it may pull, then pulls the next
        queued element and serves it (a txn task's dispatch hop only pulls)."""
        self._built("_process_next")(incarnation)

    def _complete(self, via: Any, incarnation: int) -> None:
        """A service ends: flush its outputs, return its credit, pull."""
        self._built("_complete")(via, incarnation)

    def flush_outputs(self) -> None:
        """Send every buffered output element downstream now, in order."""
        self._built("flush_outputs")()

    #: the run loop's generated methods of the latest build, by name
    _generated: dict[str, Callable[..., Any]] = {}

    def _built(self, name: str) -> Callable[..., Any]:
        """The latest build of ``name`` (built first for a task served
        before it started). The four methods above only call it."""
        if not self._generated:
            self._compile()
        return self._generated[name]

    def _compile(self) -> None:
        """Build the run loop (``deliver``, ``_complete``, ``_process_next``,
        ``flush_outputs``) for the task's shape: which parts are attached (a
        live rescale of the task's own node, key-group tracking, the tracer,
        the profiler), a txn gate, and a chain head to call directly. A task
        that only receives from a rescaled node owns no moved key, so its
        body has no rescale part. Run when the task opens or is revived and
        when a part attaches (DESIGN.md, "Compiled serve"). A method
        replaced on the instance since the last build stays in place."""
        operator = self.operator
        rescale = self._rescale_state
        head = None
        if isinstance(operator, ChainedOperator):
            # the chain adds its member charges to extra_cost itself unless
            # add_cost was replaced on the context (then it must be called)
            head = operator.record_entry(self.ctx, add_in_place="add_cost" not in vars(self.ctx))
        parts = {
            "rescale": rescale is not None and rescale.reroutes(self),
            "keygroups": self._keygroup_counts is not None,
            "tracer": self._tracer is not None,
            "profiler": self._profiler is not None,
            "gate": self._txn_gate is not None,
            "chain": head is not None,
        }
        generated = _factory(_SERVE, parts)(
            self, self.ctx, self.metrics, self._pending_output, self._mailbox, self.output_gates,
            self.kernel, self._clock, operator, self.state_backend, head, rescale,
            self._keygroup_counts, self._keygroup_maxp, self._tracer, self._profiler, self._flame_paths,
        )
        own = vars(self)
        for name, method in generated.items():
            if own.get(name) is self._generated.get(name):
                own[name] = method
        self._generated = generated

    # ------------------------------------------------------------------
    # element handling
    # ------------------------------------------------------------------
    def _handle_item(self, channel_index: int, element: Any) -> tuple[int | None, int]:
        """Handle an element that is not a record (the run loop serves those):
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
            if self._rescale_state is not None and self._rescale_state.reroutes(self):
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
        rescale = self._rescale_state
        if self.inputs.feedback or (
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
        interval, rounds = self._LOOP_PROBE if self.inputs.feedback else self._GROUP_PROBE
        incarnation = self.incarnation
        quiet, last = 0, self.inputs.feedback_deliveries

        def probe() -> None:
            nonlocal quiet, last
            if incarnation != self.incarnation:
                return  # a kill ended this incarnation (a revive re-arms)
            count, rescale = self.inputs.feedback_deliveries, self._rescale_state
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
        if channel_index in self.inputs.feedback:
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
        a full dict, or in incremental mode a chain link. Out-of-band
        captures (standby mirrors use negative ids) always take the full
        dict.
        """
        keyed_state, delta = self.coordinator.capture(self.name, self.state_backend, checkpoint_id)
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
        self.inputs.revive(self.kernel.now())
        self.current_watermark = float("-inf")
        self.operator.open(self.ctx)
        self._compile()

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
        batch_records: int | None = None,
    ) -> None:
        super().__init__(
            kernel,
            name,
            operator=Operator(),
            state_backend=_NullBackend(),
            subtask_index=subtask_index,
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
        self._compile()

    # ------------------------------------------------------------------
    def start(self) -> None:
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
        marker = LatencyMarker(emitted_at=self.kernel.now(), marker_id=next(self._marker_seq), source_id=self.name)
        if self._markers_emitted is None:
            self._markers_emitted = self._obs.latency.emitted_counter(self.name, self.subtask_index)
        self._markers_emitted.inc()
        self.collect_output(marker)
        self.flush_outputs()

    def _compile(self) -> None:
        """Build the emission timer ``_emit_due`` and ``_schedule_next`` for
        the source's shape: scalar or batch, traced or not. The strategy's
        ``on_event`` is bound here: a build follows a replaced strategy.

        ``_schedule_next`` pulls the next emission unit (one event, or up to
        ``_batch_records`` events travelling as one batch, arriving at the
        last one's time) and arms one kernel timer at its due time.
        Watermark strategies still observe every event, at emission; only
        the highest watermark follows a batch. ``_emit_due`` is the timer,
        also run when output unblocks or the source resumes: once the unit
        is due and every output is clear, it emits and flushes it and arms
        the next, in its own frame (void for a killed incarnation)."""
        super()._compile()  # what is enqueued on a source is served as on any task
        parts = {"batch": self._batch_records is not None, "tracer": self._tracer is not None}
        self._emit_due, self._schedule_next = _factory(_EMIT, parts)(
            self, self.ctx, self.metrics, self._pending_output, self.output_gates, self._clock,
            self.kernel, self._tracer, self.strategy.on_event,
        )

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
        for timer in (self._periodic, self._hb_timer, self._marker_timer):
            if timer is not None:
                timer.cancel()

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
        self.strategy = self.strategy.fresh()
        self._start_timers()
        self._next_arrival = self.kernel.now()
        self._compile()

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
