"""The execution engine: physical planning, execution, recovery.

``Engine`` expands a :class:`~repro.core.graph.StreamGraph` into tasks and
channels on the DES kernel, runs it, and exposes the control-plane
primitives the fault-tolerance / load-management packages orchestrate:
trigger checkpoints, kill tasks, restore from snapshots, rewind sources.
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
from repro.core.graph import LogicalNode, Partitioning, StreamGraph
from repro.core.operators.base import Operator
from repro.core.operators.basic import SinkOperator
from repro.core.operators.chain import ChainedOperator
from repro.errors import (
    CheckpointError,
    GraphError,
    LoopSnapshotError,
    RecoveryError,
    RuntimeStateError,
    TransientFault,
)
from repro.io.sinks import TransactionalSink
from repro.obs import Observability
from repro.progress.watermarks import NoWatermarks, WatermarkStrategy
from repro.runtime.channel import OutputGate, PhysicalChannel
from repro.runtime.config import CheckpointMode, EngineConfig, GuaranteeLevel
from repro.runtime.metrics import JobMetrics
from repro.runtime.task import SourceTask, Task, TaskSnapshot
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
        return self._engine.sinks

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
        self.tasks: dict[str, Task] = {}
        self.node_tasks: dict[int, list[Task]] = {}
        self.sinks: dict[str, Any] = {}
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
        #: task name → sinks its operator (chain) writes; regional recovery
        #: needs to know which sinks a failover region owns exclusively
        self._task_sinks: dict[str, list[Any]] = {}
        #: bumped by every restart and by fail_job, as the coordinator
        #: restarts (dropping every round in flight, as real coordinators do);
        #: sink commit retries of an older epoch are discarded
        self.execution_epoch = 0
        #: edge-index → {sender task name → OutputGate}; maintained for
        #: dynamic rewiring (rescaling, dynamic topologies)
        self.edge_gates: dict[int, dict[str, OutputGate]] = {}
        #: the live-rescale part (``RescaleState`` in ``load/migration.py``):
        #: key routers, rescaled groups, retired links and the finish gate;
        #: None until the first rescale or hot-group split
        self.rescale_state: Any = None
        #: task name → (operator factory, state-backend factory) a revival
        #: rebuilds it from; a chained task's operator is the whole chain
        self._task_factories: dict[str, tuple[Callable[[], Operator], Callable[[], Any]]] = {}
        #: chain member node_id → fused group (head first); heads map too
        self._chained_nodes: dict[int, list[LogicalNode]] = {}
        #: store name → TxnStateStore; transactional operators register on
        #: open so queryable state and recovery can reach shared stores
        self.txn_stores: dict[str, Any] = {}
        #: kernel-time observability bundle: metric registry, latency
        #: markers, tracing, profiling (created before _build so tasks and
        #: channels register as they are wired)
        self.obs = Observability(
            self.job_tag,
            self.config,
            self.rng,
            epoch_fn=lambda: self.execution_epoch,
            registry=registry,
        )
        #: the checkpoint rounds and capture format (tasks capture and ack
        #: through it; created before _build so backends get their chains)
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
        self._build()
        for task in self.planned_tasks():
            self.obs.attach_task(task)
        self.obs.register_engine(self)

    # ------------------------------------------------------------------
    # physical planning
    # ------------------------------------------------------------------
    def _build(self) -> None:
        order = self.graph.topological_order()
        chain_groups = self._compute_chains()
        for group in chain_groups:
            for member in group:
                self._chained_nodes[member.node_id] = group
        for node in order:
            group = self._chained_nodes.get(node.node_id, [node])
            if node is not group[0]:
                continue  # tasks were created when the head was visited
            tasks = [self._make_task(group, index) for index in range(node.parallelism)]
            for member in group:
                self.node_tasks[member.node_id] = tasks
            for task in tasks:
                self.tasks[task.name] = task
        for edge_index, edge in enumerate(self.graph.edges):
            if self._is_fused_edge(edge):
                continue
            self._wire_edge(edge, edge_index)
        # Register sinks by scanning for SinkOperator instances (including
        # ones fused into a chain).
        for task in self.tasks.values():
            for operator in self._flatten_operators(task.operator):
                if isinstance(operator, SinkOperator):
                    sink = operator.sink
                    name = getattr(sink, "name", task.name)
                    self.sinks.setdefault(name, sink)
                    self._task_sinks.setdefault(task.name, []).append(sink)

    @staticmethod
    def _flatten_operators(operator: Operator) -> list[Operator]:
        if isinstance(operator, ChainedOperator):
            return list(operator.operators)
        return [operator]

    def _compute_chains(self) -> list[list[LogicalNode]]:
        """Greedy Flink-style fusion: walk forward edges, fusing a node into
        the current chain while the link is FORWARD-partitioned, one-to-one
        (fan-out 1 upstream, fan-in 1 downstream), same parallelism, not a
        feedback edge, and the downstream node doesn't demand its own state
        backend. Sources are never fused (they drive workload emission)."""
        if not self.config.chaining_enabled:
            return []
        groups: list[list[LogicalNode]] = []
        fused: set[int] = set()
        for node in self.graph.topological_order():
            if node.is_source or node.node_id in fused or node.options.get("no_chain"):
                continue
            group = [node]
            current = node
            while True:
                outs = self.graph.outputs_of(current.node_id)
                if len(outs) != 1 or outs[0].is_feedback:
                    break
                edge = outs[0]
                if edge.partitioning is not Partitioning.FORWARD:
                    break
                target = self.graph.nodes[edge.target_id]
                if (
                    target.is_source
                    or target.node_id in fused
                    or target.options.get("no_chain")
                    or target.parallelism != current.parallelism
                    or target.state_backend_factory is not None
                    or len(self.graph.inputs_of(target.node_id)) != 1
                ):
                    break
                group.append(target)
                current = target
            if len(group) > 1:
                groups.append(group)
                fused.update(member.node_id for member in group)
        return groups

    def _is_fused_edge(self, edge) -> bool:
        """True when both endpoints live in the same fused chain — the hop
        happens as a plain Python call, so no channel is built."""
        source_group = self._chained_nodes.get(edge.source_id)
        return source_group is not None and source_group is self._chained_nodes.get(edge.target_id)

    def _node_cost(self, node: LogicalNode, operator: Operator) -> float:
        if node.processing_cost is not None:
            return node.processing_cost
        if operator.processing_cost is not None:
            return operator.processing_cost
        return self.config.default_processing_cost

    def _chain_operator_factory(
        self, group: list[LogicalNode], name: str
    ) -> Callable[[], ChainedOperator]:
        def build() -> ChainedOperator:
            operators = [member.new_operator() for member in group]
            costs = [self._node_cost(member, op) for member, op in zip(group, operators)]
            # The head's cost is carried by the task itself; members after it
            # charge theirs per record entered via ctx.add_cost.
            return ChainedOperator(operators, name=name, extra_costs=[0.0, *costs[1:]])

        return build

    def _make_task(self, group: list[LogicalNode], index: int) -> Task:
        """Subtask ``index`` of ``group``: a source, a bare operator (a group
        of one), or the group's operators fused into one chain."""
        head = group[0]
        chain_name = "->".join(member.name for member in group)
        name = f"{chain_name}[{index}]"
        metrics = self.metrics.for_task(name)
        if head.is_source:
            workload = head.options.get("workload")
            if workload is None:
                raise GraphError(f"source node {head.name!r} lacks options['workload']")
            strategy: WatermarkStrategy = head.options.get("watermarks") or NoWatermarks()
            return SourceTask(
                self.kernel,
                name,
                workload=workload,
                watermark_strategy=strategy.fresh(),
                bounded=head.options.get("bounded", True),
                heartbeat_interval=head.options.get("heartbeat_interval"),
                metrics=metrics,
                engine=self,
                subtask_index=index,
                parallelism=head.parallelism,
                batch_records=self.config.columnar_batch_size,
            )
        if len(group) == 1:
            operator_factory = head.new_operator
        else:
            operator_factory = self._chain_operator_factory(group, chain_name)
        operator = operator_factory()
        head_operator = operator.operators[0] if len(group) > 1 else operator
        backend_factory = self.coordinator.backend_factory(
            head.state_backend_factory or self.config.state_backend_factory
        )
        self._task_factories[name] = (operator_factory, backend_factory)
        task = Task(
            self.kernel,
            name,
            operator=operator,
            state_backend=backend_factory(),
            subtask_index=index,
            parallelism=head.parallelism,
            # Task prefers a bare operator's own cost over this one
            processing_cost=self._node_cost(head, head_operator),
            metrics=metrics,
            engine=self,
        )
        checkpoints = self.config.checkpoints
        task.inputs.aligned = checkpoints is None or checkpoints.mode is not CheckpointMode.UNALIGNED
        return task

    def _wire_edge(self, edge, edge_index: int) -> None:
        spec = self.config.channel_for(edge.channel)
        senders = self.node_tasks[edge.source_id]
        receivers = self.node_tasks[edge.target_id]
        gates = self.edge_gates.setdefault(edge_index, {})
        for sender in senders:
            if edge.partitioning is Partitioning.FORWARD:
                targets = [receivers[sender.subtask_index]]
            else:
                targets = receivers
            channels = [self.make_channel(spec, sender, receiver, edge.is_feedback) for receiver in targets]
            gate = OutputGate(edge.partitioning, channels, self.config.max_parallelism)
            sender.attach_output(gate)
            gates[sender.name] = gate

    def make_channel(self, spec, sender, receiver, is_feedback: bool = False) -> PhysicalChannel:
        """Create and register one physical link (also used by dynamic
        rewiring: rescaling and runtime-spawned operators)."""
        channel_index = receiver.inputs.register(is_feedback)
        channel = PhysicalChannel(
            self.kernel,
            spec,
            receiver,
            channel_index,
            self.rng.fork(f"ch/{sender.name}->{receiver.name}"),
            sender=sender,
        )
        self.obs.register_channel(channel)
        return channel

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
            # the nodes fused into one task share it: start it with the head
            order = [
                node
                for node in self.graph.topological_order()
                if self._chained_nodes.get(node.node_id, [node])[0] is node
            ]
            for node in order:
                if not node.is_source:
                    for task in self.node_tasks[node.node_id]:
                        task.start()
            if self.config.checkpoints is not None:
                self._coordinator_timer = PeriodicTimer(
                    self.kernel, self.config.checkpoints.interval, self.trigger_checkpoint
                )
            for node in order:
                if node.is_source:
                    for task in self.node_tasks[node.node_id]:
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
                for sink in self.sinks.values():
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

    def revive(
        self, task: Task, snapshot: TaskSnapshot | None = None, fresh_backend: bool = False
    ) -> None:
        """Bring a dead task back as a new incarnation: a fresh operator (the
        whole fused chain for a chained task) and a fresh state backend
        unless the old one survives task failure (or ``fresh_backend``),
        then ``snapshot`` loaded — None means empty state, and for a source
        a rewind to offset zero."""
        if isinstance(task, SourceTask):
            task.reincarnate()
        else:
            operator_factory, backend_factory = self._task_factories[task.name]
            keep = task.state_backend.survives_task_failure and not fresh_backend
            backend = None if keep else backend_factory()
            task.reincarnate(operator_factory(), backend)
        task.restore_snapshot(snapshot)

    def planned_tasks(self) -> list[Task]:
        """Unique tasks currently in the physical plan, in topological order.
        (With chaining, several logical nodes alias one task list; after a
        scale-in, retired tasks linger in ``self.tasks`` but not here.)"""
        seen: set[int] = set()
        planned: list[Task] = []
        for tasks in self.node_tasks.values():
            for task in tasks:
                if id(task) not in seen:
                    seen.add(id(task))
                    planned.append(task)
        return planned

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
        if self.txn_stores and not {t.name for t in self.planned_tasks()} <= scope:
            # A shared transactional store couples every owner (and, through
            # committed effects already emitted downstream, the whole plan):
            # restoring a strict subset would fork the store's history.
            raise RecoveryError(
                "transactional state store couples failover regions — "
                "escalate to global recovery"
            )
        for channel in self.iter_physical_channels():
            sender = channel.sender
            if sender is not None and (sender.name in scope) != (channel.receiver.name in scope):
                raise RecoveryError(
                    f"recovery scope is not closed under the plan's channels "
                    f"({sender.name} -> {channel.receiver.name} crosses it) — "
                    "escalate to global recovery"
                )
        outside = self._transactional_sinks(set(self._task_sinks) - scope)
        for key, sink in self._transactional_sinks(scope).items():
            if key in outside:
                raise RecoveryError(
                    f"transactional sink {sink.name!r} spans the region "
                    "boundary; its uncommitted epochs cannot be discarded "
                    "regionally — escalate to global recovery"
                )

    def _transactional_sinks(self, task_names: set[str]) -> dict[int, TransactionalSink]:
        """The transactional sinks the named tasks write, by identity."""
        return {
            id(sink): sink
            for name, sinks in self._task_sinks.items()
            if name in task_names
            for sink in sinks
            if isinstance(sink, TransactionalSink)
        }

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
        for channel in self.iter_physical_channels():
            sender = channel.sender
            if channel.receiver.name in scope or (sender is not None and sender.name in scope):
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
            for sink in self._transactional_sinks(scope).values():
                sink.on_recovery()
        for channel in self.iter_physical_channels():
            sender = channel.sender
            if channel.receiver.name in scope and sender is not None and sender.name not in scope:
                if sender.finished and not sender.dead:
                    # Only an open (at-most-once) scope has such a link: the
                    # reset voided the upstream's in-flight end-of-input and
                    # it never resends it, so re-inject it for the receiver.
                    channel.send(Watermark(MAX_TIMESTAMP))
                    channel.send(EndOfStream(source_id=sender.name))
        revived = [task for task in self.planned_tasks() if task.name in scope]
        for task in revived:
            if not replay and isinstance(task, SourceTask):
                task.reincarnate()  # at-most-once: continue where it stopped
            else:
                self.revive(task, record.snapshots.get(task.name) if record is not None else None)
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
        dead = {t.name for t in self.planned_tasks() if t.dead and not t.finished}
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
    def iter_physical_channels(self) -> list[PhysicalChannel]:
        """Every physical link in the plan, in deterministic (edge, sender,
        channel) order — chaos targeting and invariant probes walk this."""
        seen: set[int] = set()
        channels: list[PhysicalChannel] = []
        for gates in self.edge_gates.values():
            for gate in gates.values():
                for channel in gate.channels:
                    if id(channel) not in seen:
                        seen.add(id(channel))
                        channels.append(channel)
        return channels

    def tasks_of(self, node_name: str) -> list[Task]:
        """All subtasks of a logical node, by name."""
        node = self.graph.node_by_name(node_name)
        return self.node_tasks[node.node_id]

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

    def describe(self) -> str:
        """Human-readable physical plan: nodes, parallelism, edges, channels."""
        lines = [f"job {self.graph.name!r}"]
        for node in self.graph.topological_order():
            tasks = self.node_tasks.get(node.node_id, [])
            kind = "source" if node.is_source else type(tasks[0].operator).__name__ if tasks else "?"
            group = self._chained_nodes.get(node.node_id)
            if group is not None and node is not group[0]:
                lines.append(f"  {node.name} [fused into {group[0].name}]")
            else:
                lines.append(f"  {node.name} [{kind}] x{len(tasks)}")
            for edge in self.graph.outputs_of(node.node_id):
                target = self.graph.nodes[edge.target_id]
                if self._is_fused_edge(edge):
                    lines.append(f"    -> {target.name} [chained]")
                    continue
                spec = self.config.channel_for(edge.channel)
                feedback = " (feedback)" if edge.is_feedback else ""
                capacity = spec.capacity if spec.capacity is not None else "unbounded"
                lines.append(
                    f"    -> {target.name} [{edge.partitioning.value}] "
                    f"latency={spec.latency:g}s capacity={capacity}{feedback}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Engine({self.graph.name!r}, tasks={len(self.tasks)}, now={self.now():.3f})"
