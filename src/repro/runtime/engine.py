"""The execution engine: execution and recovery.

``Engine`` runs a :class:`~repro.core.graph.StreamGraph` on the DES kernel
through the tasks and channels of its :class:`~repro.runtime.plan.PhysicalPlan`,
and exposes the control-plane primitives the fault-tolerance /
load-management packages orchestrate: trigger checkpoints, kill tasks,
restore from snapshots, rewind sources.
The checkpoint rounds themselves and their capture format belong to a
:class:`~repro.checkpoint.coordinator.CheckpointCoordinator`; the engine
keeps the kernel glue around it: the periodic trigger, the timeout and
persist timers, the execution epoch and the sink commit with its retries.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from typing import Any, Callable

from repro.checkpoint.coordinator import CheckpointCoordinator, CheckpointRecord
from repro.core.events import MAX_TIMESTAMP, CheckpointBarrier, EndOfStream, StreamElement, Watermark
from repro.core.graph import StreamGraph
from repro.errors import (
    CheckpointError,
    LoopSnapshotError,
    RecoveryError,
    RuntimeStateError,
    TransientFault,
)
from repro.io.sinks import TransactionalSink
from repro.obs import Observability
from repro.runtime.config import EngineConfig, GuaranteeLevel
from repro.runtime.metrics import JobMetrics
from repro.runtime.plan import PhysicalPlan
from repro.runtime.task import SourceTask, Task
from repro.sim.kernel import Kernel, PeriodicTimer
from repro.sim.random import SimRandom

#: state sources of a restart besides a completed checkpoint: empty state
#: with sources rewound to the beginning, or (at-most-once) empty state with
#: sources continuing from where they stopped
OFFSET_ZERO = "offset-zero"
NO_REPLAY = "no-replay"


class JobResult:
    """Handle over a finished (or paused) execution."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    @property
    def sinks(self) -> dict[str, Any]:
        return self._engine.plan.sinks

    @property
    def metrics(self) -> JobMetrics:
        return self._engine.metrics

    @property
    def duration(self) -> float:
        """Virtual time at which the job finished; the current time while it
        has not (a run cut by ``until``, a failed or suspended job)."""
        finished_at = self._engine.finished_at
        return self._engine.kernel.now() if finished_at is None else finished_at

    @property
    def finished(self) -> bool:
        return self._engine.job_finished

    @property
    def failed(self) -> bool:
        """True when a restart policy gave up and failed the job cleanly."""
        return self._engine.job_failed

    @property
    def failure_reason(self) -> str | None:
        return self._engine.failure_reason

    def side_output(self, task_prefix: str, tag: str) -> list[StreamElement]:
        """Side-output elements for (task prefix, tag)."""
        out = []
        for (task_name, side_tag), elements in self._engine.side_outputs.items():
            if side_tag == tag and task_name.startswith(task_prefix):
                out.extend(elements)
        return out


def _scoped(method: Callable) -> Callable:
    """Run a control-plane entry point inside the engine's event namespace
    so every kernel event it seeds (checkpoint timeouts, restore completion
    callbacks, re-emission chains) carries the job tag on a shared kernel."""

    @functools.wraps(method)
    def wrapper(self: "Engine", *args: Any, **kwargs: Any) -> Any:
        with self._job_scope():
            return method(self, *args, **kwargs)

    return wrapper


class Engine:
    """Executes one job on a DES kernel.

    By default each engine owns a dedicated kernel. Under the multi-tenant
    fabric (:mod:`repro.fabric`) many engines share one kernel: pass
    ``kernel=`` (and usually ``registry=`` for a shared metric registry).
    A shared engine gets a unique ``job_tag`` namespace on the kernel; all
    of its events are tagged so the fabric can suspend, resume, or tear the
    job down (O(1) bulk-cancel) without touching other tenants.
    """

    def __init__(
        self,
        graph: StreamGraph,
        config: EngineConfig | None = None,
        *,
        kernel: Kernel | None = None,
        registry: Any = None,
    ) -> None:
        self.graph = graph
        self.config = config or EngineConfig()
        self.owns_kernel = kernel is None
        self.kernel = kernel if kernel is not None else Kernel()
        #: this engine's event namespace on the kernel. Sole-tenant engines
        #: use the graph name; on a shared kernel the tag is uniquified so
        #: two tenants submitting the same graph stay isolated.
        self.job_tag = (
            graph.name if self.owns_kernel else self.kernel.unique_job_tag(graph.name)
        )
        #: callbacks fired exactly once when the job reaches a terminal
        #: state (finished or failed-clean); the fabric uses this to release
        #: slots and tear the namespace down
        self.on_finish_callbacks: list[Callable[["Engine"], None]] = []
        self._finish_fired = False
        self.rng = SimRandom(self.config.seed, f"engine/{graph.name}")
        self.metrics = JobMetrics()
        self.side_outputs: dict[tuple[str, str], list[StreamElement]] = {}
        self._coordinator_timer: PeriodicTimer | None = None
        self.job_finished = False
        #: kernel time at which the last task finished (None until then)
        self.finished_at: float | None = None
        #: terminal *clean* failure: a restart policy gave up and the job
        #: was torn down deliberately (distinct from a hang or a crash)
        self.job_failed = False
        self.failure_reason: str | None = None
        self._started = False
        #: task name → (token, resume_at) of the restore pending over it; a
        #: superseded restore's entries are dropped, so its completion
        #: callback finds its token gone and does nothing
        self._restores: dict[str, tuple[object, float]] = {}
        #: bumped by every restart and by fail_job, as the coordinator
        #: restarts (dropping every round in flight, as real coordinators do);
        #: sink commit retries of an older epoch are discarded
        self.execution_epoch = 0
        #: the live-rescale part (``RescaleState`` in ``load/migration.py``):
        #: key routers, rescaled groups, retired links and the finish gate;
        #: None until the first rescale or hot-group split
        self.rescale_state: Any = None
        #: store name → TxnStateStore; transactional operators register on
        #: open so queryable state and recovery can reach shared stores
        self.txn_stores: dict[str, Any] = {}
        #: kernel-time observability bundle: metric registry, latency
        #: markers, tracing, profiling (created before the plan so tasks and
        #: channels register as they are built)
        self.obs = Observability(
            self.job_tag,
            self.config,
            self.rng,
            epoch_fn=lambda: self.execution_epoch,
            registry=registry,
        )
        #: the checkpoint rounds and capture format (tasks capture and ack
        #: through it; created before the plan so backends get their chains)
        self.coordinator = CheckpointCoordinator(
            self.config.checkpoints, self._persist, self.obs.registry, f"{self.job_tag}/checkpoint/0"
        )
        #: the coordinator's own round table and queries (the benchmark reads them here)
        self.checkpoints = self.coordinator.checkpoints
        self.latest_checkpoint = self.coordinator.latest
        self.restore_bytes = self.coordinator.restore_bytes
        graph.validate()
        if self.config.guarantee is GuaranteeLevel.EXACTLY_ONCE and self.config.checkpoints is not None:
            for edge in graph.edges:
                if edge.is_feedback:
                    source, target = graph.nodes[edge.source_id].name, graph.nodes[edge.target_id].name
                    raise LoopSnapshotError(
                        f"feedback edge {source} -> {target}: an exactly-once job with checkpoints "
                        "cannot snapshot the records in flight around a loop"
                    )
        #: the tasks, channels and sinks the job runs (the only code that builds them)
        self.plan = PhysicalPlan(self)
        #: every task the job has run, by name (the plan's map)
        self.tasks: dict[str, Task] = self.plan.by_name
        self.obs.register_engine(self)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _job_scope(self):
        """Event-namespace scope for control-plane entry points.

        On a shared (fabric) kernel, every event a control action schedules
        — and, transitively, the whole event tree it seeds — must carry this
        engine's tag so suspension and O(1) teardown stay per-job. A
        sole-tenant engine skips tagging: the per-event namespace accounting
        is pure overhead when one job owns the kernel.
        """
        if self.owns_kernel:
            return nullcontext()
        return self.kernel.job_scope(self.job_tag)

    def start(self) -> None:
        """Open operators, start services, then start sources."""
        if self._started:
            raise RuntimeStateError("engine already started")
        self._started = True
        with self._job_scope():
            tasks = self.plan.tasks()
            for task in tasks:
                if not isinstance(task, SourceTask):
                    task.start()
            if self.config.checkpoints is not None:
                self._coordinator_timer = PeriodicTimer(
                    self.kernel, self.config.checkpoints.interval, self.trigger_checkpoint
                )
            for task in tasks:
                if isinstance(task, SourceTask):
                    task.start()

    def run(self, until: float | None = None, max_events: int | None = None) -> JobResult:
        """Start if needed and drive the kernel; returns a :class:`JobResult`."""
        if not self._started:
            self.start()
        self.kernel.run(until=until, max_events=max_events)
        return JobResult(self)

    # ------------------------------------------------------------------
    # engine callbacks from tasks
    # ------------------------------------------------------------------
    def on_task_finished(self, task: Task) -> None:
        """Task callback: mark the job finished when every task is done."""
        if self.job_finished:
            return
        # A dead task is done only if it finished first: else its recovery
        # is still to come and may replay records.
        if all(t.finished for t in self.tasks.values()):
            self.job_finished = True
            self.finished_at = self.kernel.now()
            self._cancel_services()
            self._fire_finish_callbacks()

    def _fire_finish_callbacks(self) -> None:
        """Notify terminal-state listeners exactly once (fabric slot
        release / teardown)."""
        if self._finish_fired:
            return
        self._finish_fired = True
        for callback in list(self.on_finish_callbacks):
            callback(self)

    def on_side_output(self, task_name: str, tag: str, element: StreamElement) -> None:
        """Task callback: collect a side-output element."""
        self.side_outputs.setdefault((task_name, tag), []).append(element)

    def _cancel_services(self) -> None:
        if self._coordinator_timer is not None:
            self._coordinator_timer.cancel()

    # ------------------------------------------------------------------
    # checkpoint coordination (kernel glue around the coordinator)
    # ------------------------------------------------------------------
    @_scoped
    def trigger_checkpoint(self) -> int | None:
        """Inject barriers at all sources; returns the checkpoint id (None
        when declined: job over, a round in flight, or a task down)."""
        tasks = self.tasks.values()
        if self.job_finished or self.job_failed or any(t.dead and not t.finished for t in tasks):
            # A task is down: a snapshot taken now would omit its state and
            # still complete (dead tasks are not in the expected-ack set),
            # registering a checkpoint that is not a consistent global
            # state. Real coordinators decline to trigger until the job is
            # fully running again.
            return None
        live = [t for t in tasks if not t.finished]  # none is down
        record = self.coordinator.trigger(self.kernel.now(), len(live))
        if record is None:
            return None
        barrier = CheckpointBarrier(record.checkpoint_id, self.kernel.now())
        for task in live:
            if isinstance(task, SourceTask):
                task.inject_barrier(barrier)
        timeout = self.config.checkpoints.timeout
        if timeout is not None:
            self.kernel.call_after(timeout, self.abort_inflight_checkpoint, record.checkpoint_id)
        return record.checkpoint_id

    def abort_inflight_checkpoint(self, checkpoint_id: int | None = None) -> None:
        """Give up on the checkpoint in flight, if any — and only if it is
        ``checkpoint_id`` when one is given, as a timeout gives its own
        round's. Used on a stuck round (lost barrier, stalled task) and
        before a reconfiguration whose barrier could never align. Later
        snapshots for it are ignored and the coordinator is free to trigger
        the next round. Sealed sink epochs stay pending and are published by
        the next completed checkpoint."""
        aborted = self.coordinator.abort(checkpoint_id)
        if aborted is None:
            return
        # Release any task still blocked aligning on the abandoned barrier —
        # with a barrier lost in transit the alignment would never resolve.
        for task in self.tasks.values():
            task.cancel_alignment(aborted)

    def _persist(self, record: CheckpointRecord, cost: float) -> None:
        """Coordinator hook: ``record`` gathered every ack. Its upload
        overlaps processing for ``cost`` virtual seconds; once it completes,
        the transactional sinks publish their sealed epochs."""

        def complete() -> None:
            if self.coordinator.persisted(record, self.kernel.now()):
                for sink in self.plan.sinks.values():
                    if isinstance(sink, TransactionalSink):
                        self._commit_sink(sink, record.checkpoint_id)

        self.kernel.call_after(cost, complete)

    def _commit_sink(
        self, sink: TransactionalSink, checkpoint_id: int, attempt: int = 1, elapsed: float = 0.0
    ) -> None:
        """Publish a sink's sealed epochs, retrying transient commit faults.

        The retry policy comes from ``sink.retry_policy`` (None → no retry);
        ``elapsed`` is the backoff this commit has already spent, which the
        policy's ``timeout`` budget caps. When retries or the budget run out
        the sink is left *degraded*: its epochs stay
        pending — graceful degradation, not data loss — and the next
        successful commit publishes them (``on_checkpoint_complete``
        publishes every sealed epoch up to the completed id). The degraded
        window is recorded in :class:`~repro.runtime.metrics.RecoveryMetrics`.
        """
        epoch = self.execution_epoch
        component = f"sink/{sink.name}"
        try:
            sink.on_checkpoint_complete(checkpoint_id)
        except TransientFault:
            self.metrics.recovery.begin_degraded(component, self.kernel.now())
            policy = getattr(sink, "retry_policy", None)
            delay = policy.delay_for(attempt, elapsed) if policy is not None else None
            if delay is None:
                return  # degraded until a later checkpoint commits

            def retry() -> None:
                if epoch != self.execution_epoch:
                    return  # a restore superseded this execution
                self._commit_sink(sink, checkpoint_id, attempt + 1, elapsed + delay)

            self.kernel.call_after(delay, retry)
            return
        self.metrics.recovery.end_degraded(component, self.kernel.now())

    # ------------------------------------------------------------------
    # failure & recovery primitives
    # ------------------------------------------------------------------
    @_scoped
    def kill_task(self, task_name: str) -> None:
        """Fail-stop one task (aborts any in-flight checkpoint unless the
        task had finished: a finished task takes part in none)."""
        task = self.tasks.get(task_name)
        if task is None:
            raise RecoveryError(f"unknown task {task_name!r}")
        finished = task.finished
        task.kill()
        if not finished:
            self.coordinator.abort()

    @property
    def restore_pending(self) -> bool:
        """True while a scheduled restore has not yet brought its tasks back
        (control loops hold off: mid-recovery metrics are meaningless)."""
        return bool(self._restores)

    # -- the restart routine --------------------------------------------
    def _refuse_if_over(self) -> None:
        if self.job_finished:
            raise RuntimeStateError(
                "job already finished: its results are committed; recovering "
                "now would re-run the pipeline and duplicate output"
            )
        if self.job_failed:
            raise RuntimeStateError(
                f"job failed terminally ({self.failure_reason}); no further recovery"
            )

    def _check_scope(self, scope: set[str]) -> None:
        """Refuse a replaying scope whose slice of a consistent cut is not
        consistent on its own."""
        if self.txn_stores and not {t.name for t in self.plan.tasks()} <= scope:
            # A shared transactional store couples every owner (and, through
            # committed effects already emitted downstream, the whole plan):
            # restoring a strict subset would fork the store's history.
            raise RecoveryError(
                "transactional state store couples failover regions — "
                "escalate to global recovery"
            )
        for channel in self.plan.channels():
            sender = channel.sender
            if (sender.name in scope) != (channel.receiver.name in scope):
                raise RecoveryError(
                    f"recovery scope is not closed under the plan's channels "
                    f"({sender.name} -> {channel.receiver.name} crosses it) — "
                    "escalate to global recovery"
                )
        outside = self.plan.transactional_sinks(set(self.tasks) - scope)
        for key, sink in self.plan.transactional_sinks(scope).items():
            if key in outside:
                raise RecoveryError(
                    f"transactional sink {sink.name!r} spans the region "
                    "boundary; its uncommitted epochs cannot be discarded "
                    "regionally — escalate to global recovery"
                )

    def _stop(self, scope: set[str]) -> None:
        """The stop half of every restart and of fail_job: a new execution
        epoch (in-flight checkpoint persistence and commit retries of the
        old one are discarded), the in-flight checkpoint dropped, the scope
        killed and every channel touching it reset so no stale element
        reaches a new incarnation."""
        self.execution_epoch += 1
        self.coordinator.restart()
        for name, task in self.tasks.items():
            if name in scope:
                task.kill()
        for channel in self.plan.channels():
            if channel.receiver.name in scope or channel.sender.name in scope:
                channel.reset()

    def _restart(self, scope: set[str], source: CheckpointRecord | str) -> float:
        """The one restart routine behind every recovery verb.

        ``scope`` is the set of task names to restart (every task for a
        global restart); ``source`` is where their state comes from: a
        completed checkpoint, :data:`OFFSET_ZERO` or :data:`NO_REPLAY`. A
        scope every task of which a pending restore already covers
        coalesces into it; otherwise the restores it overlaps are superseded
        and their tasks join the scope. Returns the virtual time processing
        resumes.
        """
        pending = [self._restores[name] for name in scope if name in self._restores]
        if pending and len(pending) == len(scope):
            return max(resume_at for _token, resume_at in pending)
        if source is not NO_REPLAY:
            self._check_scope(scope)
        superseded = {token for token, _resume_at in pending}
        for name, (token, _resume_at) in list(self._restores.items()):
            if token in superseded:
                del self._restores[name]
                scope.add(name)
        self._stop(scope)
        if not isinstance(source, CheckpointRecord):
            self._revive_scope(scope, source)
            return self.kernel.now()
        resume_at = self.kernel.now() + self.coordinator.restore_latency(source, scope)
        token = object()
        for name in scope:
            self._restores[name] = (token, resume_at)

        def finish() -> None:
            if self._restores.get(next(iter(scope)), (None,))[0] is not token:
                return  # superseded, or the job was failed terminally
            for name in scope:
                del self._restores[name]
            self._revive_scope(scope, source)

        self.kernel.call_at(resume_at, finish)
        return resume_at

    def _revive_scope(self, scope: set[str], source: CheckpointRecord | str) -> None:
        """The start half: discard the scope's uncommitted sink epochs,
        revive and restore its planned tasks, restart their sources' emission
        and re-home the state of any rescaled node among them."""
        replay = source is not NO_REPLAY
        record = source if isinstance(source, CheckpointRecord) else None
        if source is OFFSET_ZERO:
            # Sources rewind to offset zero, so shared transactional stores
            # reset too — restoring no snapshot never reaches their hook.
            for store in self.txn_stores.values():
                store.reset()
        if replay:
            for sink in self.plan.transactional_sinks(scope).values():
                sink.on_recovery()
        for channel in self.plan.channels():
            sender = channel.sender
            if channel.receiver.name in scope and sender.name not in scope:
                if sender.finished and not sender.dead:
                    # Only an open (at-most-once) scope has such a link: the
                    # reset voided the upstream's in-flight end-of-input and
                    # it never resends it, so re-inject it for the receiver.
                    channel.send(Watermark(MAX_TIMESTAMP))
                    channel.send(EndOfStream(source_id=sender.name))
        revived = [task for task in self.plan.tasks() if task.name in scope]
        for task in revived:
            if not replay and isinstance(task, SourceTask):
                task.reincarnate()  # at-most-once: continue where it stopped
            else:
                self.plan.revive(task, record.snapshots.get(task.name) if record is not None else None)
        for task in revived:
            if isinstance(task, SourceTask):
                task.restart_emission()
        if replay and self.rescale_state is not None:
            # Snapshots are keyed by the capture-time layout: re-home the
            # restored state of rescaled nodes in the scope to the current
            # owners.
            self.rescale_state.restore(self, record, scope)

    # -- recovery verbs -------------------------------------------------
    def recover_from_checkpoint(self, checkpoint_id: int | None = None) -> float:
        """Global restart from a completed checkpoint (Flink-style): the
        region of every task, so all state is restored and every source
        rewound. Returns the virtual time processing resumes."""
        return self.recover_region(list(self.tasks), checkpoint_id)

    @_scoped
    def recover_region(self, task_names: list[str], checkpoint_id: int | None = None) -> float:
        """Partial (failover-region) restart, Flink FLIP-1 style.

        Restores *only* the named tasks from the latest (or the given)
        completed *global* checkpoint, rewinding only the region's sources
        and resetting only its channels. The set must be closed under the
        current plan's channels (a union of failover regions), so its slice
        of the snapshot is a consistent cut on its own. Returns the virtual
        time processing resumes.

        Raises :class:`RecoveryError` for an unknown task, a set that is not
        closed, a transactional sink or txn store shared with tasks outside
        it (escalate to global), and :class:`CheckpointError` when no
        completed checkpoint exists.
        """
        self._refuse_if_over()
        for name in task_names:
            if name not in self.tasks:
                raise RecoveryError(f"unknown task {name!r} in failover region")
        record = (
            self.checkpoints.get(checkpoint_id)
            if checkpoint_id is not None
            else self.latest_checkpoint()
        )
        if record is None or not record.complete:
            raise CheckpointError("no completed checkpoint to recover from")
        return self._restart(set(task_names), record)

    @_scoped
    def restart_from_scratch(self) -> float:
        """Restart the whole job from offset zero — the recovery of a
        checkpointed job that has no completed checkpoint yet. Transactional
        sinks discard uncommitted epochs, sources rewind to the beginning,
        so the replay is loss- and duplicate-free end to end. Returns the
        virtual time processing resumes."""
        self._refuse_if_over()
        return self._restart(set(self.tasks), OFFSET_ZERO)

    @_scoped
    def recover_without_replay(self) -> None:
        """At-most-once recovery: dead tasks come back empty and sources
        continue from their *current* position (no rewind); in-flight
        elements on their channels are voided, which at-most-once tolerates.
        A task that finished its work before being killed stays finished:
        reincarnating it would wedge the job waiting for an EndOfStream that
        never comes again."""
        if self.job_finished or self.job_failed:
            return
        dead = {t.name for t in self.plan.tasks() if t.dead and not t.finished}
        if dead:
            self._restart(dead, NO_REPLAY)

    @_scoped
    def fail_job(self, reason: str) -> None:
        """Terminal, *clean* job failure: a restart policy gave up. Every
        task stops, in-flight data is voided, pending restores and services
        are cancelled, and the engine refuses further recovery — but
        committed results stand and the engine records why it died (no
        hang, no silent wedge)."""
        if self.job_finished or self.job_failed:
            return
        self.job_failed = True
        self.failure_reason = reason
        self._restores.clear()
        self._stop({name for name, task in self.tasks.items() if not task.finished})
        self._cancel_services()
        self.metrics.recovery.job_failed_at = self.kernel.now()
        self.metrics.recovery.job_failure_reason = reason
        self._fire_finish_callbacks()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time."""
        return self.kernel.now()

    def metrics_snapshot(self) -> dict[str, Any]:
        """Deterministic point-in-time view of the metric registry (all
        counters/gauges/histograms, kernel-time only — byte-identical
        across same-seed runs)."""
        return self.obs.registry.snapshot(self.kernel.now())

    def metrics_json(self, indent: int | None = None) -> str:
        """Canonical JSON serialization of :meth:`metrics_snapshot`."""
        return self.obs.registry.to_json(self.kernel.now(), indent)

    def __repr__(self) -> str:
        return f"Engine({self.graph.name!r}, tasks={len(self.tasks)}, now={self.now():.3f})"
