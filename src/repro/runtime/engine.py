"""The execution engine: physical planning, checkpointing, recovery.

``Engine`` expands a :class:`~repro.core.graph.StreamGraph` into tasks and
channels on the DES kernel, runs it, and exposes the control-plane
primitives the fault-tolerance / load-management packages orchestrate:
trigger checkpoints, kill tasks, restore from snapshots, rewind sources.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.checkpoint.incremental import IncrementalSnapshotter, TaskChainStore, restore_chain
from repro.core.events import MAX_TIMESTAMP, CheckpointBarrier, EndOfStream, StreamElement, Watermark
from repro.core.graph import LogicalNode, Partitioning, StreamGraph
from repro.core.operators.base import Operator
from repro.core.operators.basic import SinkOperator
from repro.core.operators.chain import ChainedOperator
from repro.errors import (
    CheckpointError,
    GraphError,
    RecoveryError,
    RuntimeStateError,
    TransientFault,
)
from repro.io.sinks import TransactionalSink
from repro.obs import Observability
from repro.progress.watermarks import NoWatermarks, WatermarkStrategy
from repro.runtime.channel import OutputGate, PhysicalChannel
from repro.runtime.config import CheckpointMode, EngineConfig
from repro.runtime.metrics import JobMetrics
from repro.runtime.task import SourceTask, Task, TaskSnapshot
from repro.sim.kernel import Kernel, PeriodicTimer
from repro.sim.random import SimRandom


@dataclass
class CheckpointRecord:
    checkpoint_id: int
    triggered_at: float
    snapshots: dict[str, TaskSnapshot] = field(default_factory=dict)
    completed_at: float | None = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def total_bytes(self) -> int:
        """Snapshot volume across all tasks."""
        return sum(s.size_bytes() for s in self.snapshots.values())


class JobResult:
    """Handle over a finished (or paused) execution."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    def sink(self, name: str) -> Any:
        """Look up a sink by name."""
        return self._engine.sinks[name]

    @property
    def sinks(self) -> dict[str, Any]:
        return self._engine.sinks

    @property
    def metrics(self) -> JobMetrics:
        return self._engine.metrics

    @property
    def duration(self) -> float:
        return self._engine.kernel.now()

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
        self.checkpoints: dict[int, CheckpointRecord] = {}
        self.completed_checkpoints: list[int] = []
        self._next_checkpoint_id = 1
        self._pending_checkpoint: CheckpointRecord | None = None
        self._coordinator_timer: PeriodicTimer | None = None
        self._sampler_timer: PeriodicTimer | None = None
        self.job_finished = False
        #: terminal *clean* failure: a restart policy gave up and the job
        #: was torn down deliberately (distinct from a hang or a crash)
        self.job_failed = False
        self.failure_reason: str | None = None
        self._started = False
        self._expected_snapshot_count = 0
        self._restore_in_flight = False
        self._restore_resume_at = 0.0
        #: task name → (token, resume_at) for an in-flight *regional*
        #: restore; a broader restore clears the map, aborting the pending
        #: per-region completion callbacks (their token no longer matches)
        self._region_restores: dict[str, tuple[object, float]] = {}
        #: task name → sinks its operator (chain) writes; regional recovery
        #: needs to know which sinks a failover region owns exclusively
        self._task_sinks: dict[str, list[Any]] = {}
        #: bumped by every global restore; a checkpoint whose persistence is
        #: still in flight when the epoch changes is discarded (the restart
        #: aborts all pending checkpoints, as real coordinators do)
        self.execution_epoch = 0
        #: edge-index → {sender task name → OutputGate}; maintained for
        #: dynamic rewiring (rescaling, dynamic topologies)
        self.edge_gates: dict[int, dict[str, OutputGate]] = {}
        #: node_id → KeyRouter for nodes that have been live-rescaled or
        #: hot-split; gates, migration, and reroute closures all consult the
        #: same router so routing stays consistent (see repro.load.routing)
        self.key_routers: dict[int, Any] = {}
        #: node_ids whose parallelism has diverged from the plan; global
        #: restore must redistribute checkpointed state across the *current*
        #: tasks instead of assuming the checkpoint-time layout
        self.rescaled_nodes: set[int] = set()
        #: node_id → channels into subtasks retired by a scale-in; records
        #: can still be travelling these popped links, and a rescaled node's
        #: EOS drain barrier waits until they land (and get rerouted)
        self.retired_channels: dict[int, list] = {}
        #: task name → factory rebuilding its operator (chained tasks need
        #: the whole fused pipeline, not one member) / its state backend
        self._task_factories: dict[str, Callable[[], Operator]] = {}
        self._task_backend_factories: dict[str, Callable[[], Any]] = {}
        #: chain member node_id → fused group (head first); heads map too
        self._chained_nodes: dict[int, list[LogicalNode]] = {}
        #: store name → TxnStateStore; transactional operators register on
        #: open so queryable state and recovery can reach shared stores
        self.txn_stores: dict[str, Any] = {}
        #: incremental checkpoint mode: per-task base + delta snapshot chains
        #: (None when ``checkpoints.incremental`` is off); task backends get
        #: an IncrementalSnapshotter attached during planning
        checkpoint_config = self.config.checkpoints
        self.checkpoint_store: TaskChainStore | None = None
        if checkpoint_config is not None and checkpoint_config.incremental:
            self.checkpoint_store = TaskChainStore(
                max_chain_length=checkpoint_config.max_chain_length,
                retained_checkpoints=checkpoint_config.retained_checkpoints,
            )
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
        self.obs.install_kernel(self.kernel)
        graph.validate()
        self._build()
        for task in self._planned_tasks():
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
            group = self._chained_nodes.get(node.node_id)
            if group is not None:
                if node is not group[0]:
                    continue  # tasks were created when the head was visited
                tasks = [self._make_chained_task(group, index) for index in range(node.parallelism)]
                for member in group:
                    self.node_tasks[member.node_id] = tasks
            else:
                tasks = [self._make_task(node, index) for index in range(node.parallelism)]
                self.node_tasks[node.node_id] = tasks
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

    def _resolve_backend_factory(self, node_factory: Callable[[], Any] | None) -> Callable[[], Any]:
        """Resolve a node's backend factory against the config default and,
        in incremental checkpoint mode, attach a capture chain to every built
        backend (and every reincarnation's), which then tracks its own
        changes for delta captures."""
        base_factory = node_factory or self.config.state_backend_factory
        if self.checkpoint_store is None:
            return base_factory

        def build() -> Any:
            backend = base_factory()
            if backend.snapshotter is None:
                IncrementalSnapshotter(backend)  # attaches itself
            return backend

        return build

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

    def _make_chained_task(self, group: list[LogicalNode], index: int) -> Task:
        head = group[0]
        chain_name = "->".join(member.name for member in group)
        name = f"{chain_name}[{index}]"
        operator_factory = self._chain_operator_factory(group, chain_name)
        operator = operator_factory()
        backend_factory = self._resolve_backend_factory(head.state_backend_factory)
        task = Task(
            self.kernel,
            name,
            operator=operator,
            state_backend=backend_factory(),
            subtask_index=index,
            parallelism=head.parallelism,
            processing_cost=self._node_cost(head, operator.operators[0]),
            timer_cost=self.config.timer_cost,
            metrics=self.metrics.for_task(name),
            engine=self,
        )
        if (
            self.config.checkpoints is not None
            and self.config.checkpoints.mode is CheckpointMode.UNALIGNED
        ):
            task.align_unaligned = True
        self._task_factories[name] = operator_factory
        self._task_backend_factories[name] = backend_factory
        return task

    def _make_task(self, node: LogicalNode, index: int) -> Task:
        name = f"{node.name}[{index}]"
        metrics = self.metrics.for_task(name)
        if node.is_source:
            workload = node.options.get("workload")
            if workload is None:
                raise GraphError(f"source node {node.name!r} lacks options['workload']")
            strategy: WatermarkStrategy = node.options.get("watermarks") or NoWatermarks()
            return SourceTask(
                self.kernel,
                name,
                workload=workload,
                watermark_strategy=strategy.fresh(),
                bounded=node.options.get("bounded", True),
                heartbeat_interval=node.options.get("heartbeat_interval"),
                metrics=metrics,
                engine=self,
                subtask_index=index,
                parallelism=node.parallelism,
                batch_records=(
                    self.config.columnar_batch_size if self.config.columnar_enabled else None
                ),
            )
        backend_factory = self._resolve_backend_factory(node.state_backend_factory)
        self._task_factories[name] = node.new_operator
        self._task_backend_factories[name] = backend_factory
        task = Task(
            self.kernel,
            name,
            operator=node.new_operator(),
            state_backend=backend_factory(),
            subtask_index=index,
            parallelism=node.parallelism,
            processing_cost=(
                node.processing_cost
                if node.processing_cost is not None
                else self.config.default_processing_cost
            ),
            timer_cost=self.config.timer_cost,
            metrics=metrics,
            engine=self,
        )
        if (
            self.config.checkpoints is not None
            and self.config.checkpoints.mode is CheckpointMode.UNALIGNED
        ):
            task.align_unaligned = True
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
        channel_index = receiver.register_input_channel(is_feedback=is_feedback)
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
            order = self.graph.topological_order()
            for node in order:
                if not node.is_source:
                    for task in self.node_tasks[node.node_id]:
                        task.start()
            if self.config.checkpoints is not None:
                self._coordinator_timer = PeriodicTimer(
                    self.kernel, self.config.checkpoints.interval, self.trigger_checkpoint
                )
            if self.config.metrics_interval is not None:
                self._sampler_timer = PeriodicTimer(
                    self.kernel, self.config.metrics_interval, self._sample_metrics
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

    def run_until_quiescent(self, horizon: float = 1e9) -> JobResult:
        """Run with a generous horizon (bounded jobs drain on their own)."""
        return self.run(until=horizon)

    # ------------------------------------------------------------------
    # engine callbacks from tasks
    # ------------------------------------------------------------------
    def on_task_finished(self, task: Task) -> None:
        """Task callback: mark the job finished when every task is done."""
        if self.job_finished:
            return
        if all(t.finished or t.dead for t in self.tasks.values()):
            self.job_finished = True
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
        if self._sampler_timer is not None:
            self._sampler_timer.cancel()

    def _sample_metrics(self) -> None:
        now = self.kernel.now()
        for task in self.tasks.values():
            task.metrics.queue_samples.append((now, task.mailbox_size))

    # ------------------------------------------------------------------
    # checkpoint coordination
    # ------------------------------------------------------------------
    @_scoped
    def trigger_checkpoint(self) -> int | None:
        """Inject barriers at all sources; returns the checkpoint id."""
        if self.job_finished or self.job_failed:
            return None
        if self._pending_checkpoint is not None:
            # Previous checkpoint still in flight: skip this trigger (the
            # behaviour of real coordinators under a min-pause policy).
            return None
        if any(t.dead for t in self.tasks.values()):
            # A task is down: a snapshot taken now would omit its state and
            # still complete (dead tasks are not in the expected-ack set),
            # registering a checkpoint that is not a consistent global
            # state. Real coordinators decline to trigger until the job is
            # fully running again.
            return None
        checkpoint_id = self._next_checkpoint_id
        self._next_checkpoint_id += 1
        record = CheckpointRecord(checkpoint_id, self.kernel.now())
        self.checkpoints[checkpoint_id] = record
        self._pending_checkpoint = record
        self._expected_snapshot_count = sum(
            1 for t in self.tasks.values() if not t.dead and not t.finished
        )
        barrier = CheckpointBarrier(checkpoint_id, self.kernel.now())
        for task in self.tasks.values():
            if isinstance(task, SourceTask) and not task.dead and not task.finished:
                snapshot = task.take_snapshot(checkpoint_id)
                self.on_task_snapshot(task, snapshot, source=True)
                task.collect_output(barrier)
                task._flush_outputs()
        timeout = self.config.checkpoints.timeout
        if timeout is not None:
            self.kernel.call_after(timeout, lambda: self._abort_checkpoint(record))
        return checkpoint_id

    def _abort_checkpoint(self, record: CheckpointRecord) -> None:
        """Give up on a checkpoint stuck in flight (lost barrier, stalled
        task): later snapshots for it are ignored and the coordinator is
        free to trigger the next round. Sealed sink epochs stay pending and
        are published by the next completed checkpoint."""
        if self._pending_checkpoint is not record or record.complete:
            return
        self.checkpoints.pop(record.checkpoint_id, None)
        self._pending_checkpoint = None
        if self.checkpoint_store is not None:
            self.checkpoint_store.note_aborted(record.checkpoint_id)
        # Release any task still blocked aligning on the abandoned barrier —
        # with a barrier lost in transit the alignment would never resolve.
        for task in self.tasks.values():
            task.cancel_alignment(record.checkpoint_id)

    def on_task_snapshot(self, task: Task, snapshot: TaskSnapshot, source: bool = False) -> None:
        """Task callback: gather a snapshot into the pending checkpoint."""
        if snapshot.delta is not None and self.checkpoint_store is not None:
            # Append the captured link unconditionally: the snapshotter's
            # next delta bases on it, so even a capture for an
            # already-aborted checkpoint must stay as chain interior — it
            # just never becomes restorable (checkpoint id withheld).
            live = snapshot.checkpoint_id in self.checkpoints
            self.checkpoint_store.append(
                task.name, snapshot.delta, snapshot.checkpoint_id if live else None
            )
            self._record_capture_metrics(task, snapshot)
        record = self._pending_checkpoint
        if record is None or snapshot.checkpoint_id not in self.checkpoints:
            return
        record = self.checkpoints[snapshot.checkpoint_id]
        record.snapshots[task.name] = snapshot
        if len(record.snapshots) >= self._expected_snapshot_count:
            self._finalize_checkpoint(record)

    def _record_capture_metrics(self, task: Task, snapshot: TaskSnapshot) -> None:
        """Publish per-capture checkpoint internals (delta vs would-be-full
        volume, captured churn, capture cost) to the metric registry."""
        registry = self.obs.registry
        prefix = f"{self.job_tag}/checkpoint/0"
        delta = snapshot.delta
        registry.histogram(f"{prefix}/delta_bytes").record(delta.size_bytes())
        registry.histogram(f"{prefix}/dirty_keys").record(delta.entry_count())
        registry.histogram(f"{prefix}/full_bytes").record(task.state_backend.snapshot_bytes())
        capture_cost_per_entry = self.config.checkpoints.capture_cost_per_entry
        registry.histogram(f"{prefix}/capture_seconds").record(
            delta.entry_count() * capture_cost_per_entry
        )

    def _finalize_checkpoint(self, record: CheckpointRecord) -> None:
        cfg = self.config.checkpoints
        # Two-phase protocol: capture already happened synchronously at each
        # barrier; the serialization + upload below overlaps processing in
        # virtual time, priced from what is actually uploaded — the deltas in
        # incremental mode (record.total_bytes() sums delta sizes then).
        persist_cost = cfg.write_base_cost + record.total_bytes() * cfg.write_cost_per_byte
        self.obs.registry.histogram(
            f"{self.job_tag}/checkpoint/0/persist_seconds"
        ).record(persist_cost)
        epoch = self.execution_epoch

        def complete() -> None:
            if epoch != self.execution_epoch or record.checkpoint_id not in self.checkpoints:
                # A restore (or abort) intervened while the snapshot was
                # persisting: the checkpoint belongs to a dead execution and
                # must never be registered or commit sink epochs.
                self.checkpoints.pop(record.checkpoint_id, None)
                if self.checkpoint_store is not None:
                    self.checkpoint_store.note_aborted(record.checkpoint_id)
                return
            record.completed_at = self.kernel.now()
            self.completed_checkpoints.append(record.checkpoint_id)
            if self.checkpoint_store is not None:
                self.checkpoint_store.note_completed(record.checkpoint_id)
            for sink in self.sinks.values():
                if isinstance(sink, TransactionalSink):
                    self._commit_sink(sink, record.checkpoint_id)

        self.kernel.call_after(persist_cost, complete)
        self._pending_checkpoint = None

    def _commit_sink(self, sink: TransactionalSink, checkpoint_id: int, attempt: int = 1) -> None:
        """Publish a sink's sealed epochs, retrying transient commit faults.

        The retry policy comes from ``sink.retry_policy`` (None → no retry).
        When retries run out the sink is left *degraded*: its epochs stay
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
            delay = policy.delay_for(attempt) if policy is not None else None
            if delay is None:
                return  # degraded until a later checkpoint commits

            def retry() -> None:
                if epoch != self.execution_epoch:
                    return  # a restore superseded this execution
                self._commit_sink(sink, checkpoint_id, attempt + 1)

            self.kernel.call_after(delay, retry)
            return
        self.metrics.recovery.end_degraded(component, self.kernel.now())

    def latest_checkpoint(self) -> CheckpointRecord | None:
        """The most recent completed checkpoint record, if any."""
        if not self.completed_checkpoints:
            return None
        return self.checkpoints[self.completed_checkpoints[-1]]

    # ------------------------------------------------------------------
    # failure & recovery primitives
    # ------------------------------------------------------------------
    @_scoped
    def kill_task(self, task_name: str) -> None:
        """Fail-stop one task (aborts any in-flight checkpoint)."""
        task = self.tasks.get(task_name)
        if task is None:
            raise RecoveryError(f"unknown task {task_name!r}")
        task.kill()
        if self._pending_checkpoint is not None:
            # In-flight checkpoint can never complete: abort it.
            aborted_id = self._pending_checkpoint.checkpoint_id
            self.checkpoints.pop(aborted_id, None)
            self._pending_checkpoint = None
            if self.checkpoint_store is not None:
                self.checkpoint_store.note_aborted(aborted_id)

    def node_of(self, task: Task) -> LogicalNode:
        """The logical node a task belongs to (the chain head for a task
        running a fused :class:`ChainedOperator`)."""
        for node_id, tasks in self.node_tasks.items():
            if task in tasks:
                return self.graph.nodes[node_id]
        raise RuntimeStateError(f"task {task.name} not in plan")

    def new_operator_for(self, task: Task) -> Operator:
        """Build a fresh operator for ``task`` — the full fused pipeline when
        the task runs a chain. Recovery paths must use this instead of
        ``node_of(task).new_operator()``."""
        factory = self._task_factories.get(task.name)
        if factory is not None:
            return factory()
        return self.node_of(task).new_operator()

    def backend_factory_for(self, task: Task) -> Callable[[], Any]:
        """The state-backend factory ``task`` was built with."""
        factory = self._task_backend_factories.get(task.name)
        if factory is not None:
            return factory
        node = self.node_of(task)
        return self._resolve_backend_factory(node.state_backend_factory)

    def restore_latency(self, snapshot_bytes: int) -> float:
        """Virtual time to pull a snapshot from durable storage."""
        cfg = self.config.checkpoints
        if cfg is None:
            return 0.0
        return cfg.write_base_cost + snapshot_bytes * cfg.write_cost_per_byte

    def restore_bytes(self, record: CheckpointRecord, task_names: set[str] | None = None) -> int:
        """Volume a restore must pull for ``record`` (optionally restricted
        to ``task_names``): full-snapshot sizes classically, the whole
        base + delta chain per task in incremental mode — which is what
        makes recovery time grow with chain length until a rebase bounds it.
        """
        total = 0
        for name, snapshot in record.snapshots.items():
            if task_names is not None and name not in task_names:
                continue
            if snapshot.delta is not None and self.checkpoint_store is not None:
                total += self.checkpoint_store.chain_bytes(name, snapshot.delta)
            else:
                total += snapshot.size_bytes()
        return total

    def restore_task_chain(self, task: Task, snapshot: TaskSnapshot) -> None:
        """Rebuild ``task``'s keyed state from the base + delta chain ending
        at ``snapshot``'s captured link. The backend is cleared first so a
        reused (failure-surviving) backend cannot leak post-checkpoint keys
        into the restored state."""
        if self.checkpoint_store is None:
            raise CheckpointError(
                "incremental snapshot cannot be restored: engine has no chain store"
            )
        chain = self.checkpoint_store.chain_to(task.name, snapshot.delta)
        task.state_backend.clear_all()
        restore_chain(task.state_backend, chain)

    @_scoped
    def recover_from_checkpoint(self, checkpoint_id: int | None = None) -> float:
        """Global restart from a completed checkpoint (Flink-style).

        Kills every task, restores all state, rewinds sources, and resumes.
        Returns the virtual time at which processing resumed.
        """
        if self.job_finished:
            raise RuntimeStateError(
                "job already finished: its results are committed; recovering "
                "now would re-run the pipeline and duplicate output"
            )
        if self.job_failed:
            raise RuntimeStateError(
                f"job failed terminally ({self.failure_reason}); no further recovery"
            )
        if self._restore_in_flight:
            # A concurrent failure detection while a restore is already
            # scheduled: coalesce — restarting the restore would race two
            # source-emission chains against each other.
            return self._restore_resume_at
        record = (
            self.checkpoints.get(checkpoint_id)
            if checkpoint_id is not None
            else self.latest_checkpoint()
        )
        if record is None or not record.complete:
            raise CheckpointError("no completed checkpoint to recover from")
        self.execution_epoch += 1
        # A global restore supersedes any pending regional one: the regional
        # completion callback's token no longer matches and it aborts.
        self._region_restores.clear()
        for task in self.tasks.values():
            if not task.dead:
                task.kill()
        # Global restart re-establishes every connection: in-flight elements
        # from the failed execution must not leak into the restored one (a
        # stale EndOfStream would finish the job before the replay arrives).
        for channel in self.iter_physical_channels():
            channel.reset()
        restore_delay = self.restore_latency(self.restore_bytes(record))
        resume_at = self.kernel.now() + restore_delay
        self._restore_in_flight = True
        self._restore_resume_at = resume_at
        epoch = self.execution_epoch

        def do_restore() -> None:
            if epoch != self.execution_epoch:
                return  # superseded (e.g. the job was failed terminally)
            self._do_restore(record)

        self.kernel.call_at(resume_at, do_restore)
        return resume_at

    def _planned_tasks(self) -> list[Task]:
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

    def planned_tasks(self) -> list[Task]:
        """Public view of :meth:`_planned_tasks` (region computation,
        supervision, and other control planes walk the physical plan)."""
        return self._planned_tasks()

    def _restore_tasks(self, tasks: list[Task], record: CheckpointRecord | None) -> None:
        """Reincarnate ``tasks`` and load their state from ``record`` (None →
        restart from scratch: empty state, sources rewound to offset zero),
        then restart emission on the sources among them. Shared by the
        global, regional and scratch recovery paths."""
        if record is None and self.txn_stores:
            # Restart from scratch: sources rewind to offset zero, so shared
            # transactional stores must also reset — restore_snapshot(None)
            # never reaches the operator's restore hook.
            for store in self.txn_stores.values():
                reset = getattr(store, "reset", None)
                if reset is not None:
                    reset()
        for task in tasks:
            snapshot = record.snapshots.get(task.name) if record is not None else None
            if isinstance(task, SourceTask):
                task.reincarnate()
                task.restore_snapshot(snapshot)
            else:
                backend = None
                if not task.state_backend.survives_task_failure:
                    backend = self.backend_factory_for(task)()
                task.reincarnate(self.new_operator_for(task), backend)
                task.restore_snapshot(snapshot)
        for task in tasks:
            if isinstance(task, SourceTask):
                task.restart_emission()

    def _do_restore(self, record: CheckpointRecord) -> None:
        self._restore_in_flight = False
        for sink in self.sinks.values():
            if isinstance(sink, TransactionalSink):
                sink.on_recovery()
        self._restore_tasks(self._planned_tasks(), record)
        if self.rescaled_nodes:
            # The checkpoint predates a rescale: its snapshots are keyed by
            # the capture-time layout, so restored state must be re-homed to
            # the current owners (and retired tasks revived as finished).
            # Late import: the engine module must not depend on load/.
            from repro.load.migration import redistribute_after_restore

            redistribute_after_restore(self, record)

    @_scoped
    def recover_region(self, task_names: list[str], checkpoint_id: int | None = None) -> float:
        """Partial (failover-region) restart, Flink FLIP-1 style.

        Restores *only* the named tasks — which must form a union of
        pipelined-connected failover regions, so every channel adjacent to
        the set is internal to it — rewinds only the region's sources, and
        resets only the region's channels. State comes from the latest (or
        the given) completed *global* checkpoint; because a region is closed
        under data dependencies, its slice of the snapshot is a consistent
        cut on its own. Returns the virtual time processing resumes.

        Raises :class:`RecoveryError` when a transactional sink written
        inside the region is shared with tasks outside it (its uncommitted
        epochs cannot be partially discarded — escalate to global), and
        :class:`CheckpointError` when no completed checkpoint exists.
        """
        if self.job_finished or self.job_failed:
            raise RuntimeStateError("job is finished or failed; no regional recovery")
        if self._restore_in_flight:
            # A global restore is already pending: it will cover the region.
            return self._restore_resume_at
        region = []
        for name in task_names:
            task = self.tasks.get(name)
            if task is None:
                raise RecoveryError(f"unknown task {name!r} in failover region")
            region.append(task)
        region_names = set(task_names)
        pending = [self._region_restores.get(name) for name in task_names]
        live = [entry for entry in pending if entry is not None]
        if live:
            # Coalesce with the restore already in flight for this region.
            return max(resume_at for _token, resume_at in live)
        record = (
            self.checkpoints.get(checkpoint_id)
            if checkpoint_id is not None
            else self.latest_checkpoint()
        )
        if record is None or not record.complete:
            raise CheckpointError("no completed checkpoint to recover from")
        region_sinks = {
            id(sink): sink
            for task in region
            for sink in self._task_sinks.get(task.name, ())
        }
        for name, sinks in self._task_sinks.items():
            if name in region_names:
                continue
            for sink in sinks:
                if id(sink) in region_sinks and isinstance(sink, TransactionalSink):
                    raise RecoveryError(
                        f"transactional sink {sink.name!r} spans the region "
                        "boundary; its uncommitted epochs cannot be discarded "
                        "regionally — escalate to global recovery"
                    )
        if self.txn_stores and region_names != {t.name for t in self._planned_tasks()}:
            # A shared transactional store couples every owner (and, through
            # committed effects already emitted downstream, the whole plan):
            # restoring a strict subset would fork the store's history.
            raise RecoveryError(
                "transactional state store couples failover regions — "
                "escalate to global recovery"
            )
        # Any restart aborts in-flight checkpoint persistence (the snapshot
        # being persisted no longer matches a running execution).
        self.execution_epoch += 1
        for task in region:
            if not task.dead:
                self.kill_task(task.name)
        for channel in self.iter_physical_channels():
            if channel.receiver.name in region_names or (
                channel.sender is not None and channel.sender.name in region_names
            ):
                channel.reset()
        region_bytes = self.restore_bytes(record, region_names)
        resume_at = self.kernel.now() + self.restore_latency(region_bytes)
        token = object()
        for name in region_names:
            self._region_restores[name] = (token, resume_at)

        def finish() -> None:
            current = self._region_restores.get(next(iter(region_names)))
            if current is None or current[0] is not token:
                return  # a broader restore superseded this one
            for name in region_names:
                self._region_restores.pop(name, None)
            for sink in region_sinks.values():
                if isinstance(sink, TransactionalSink):
                    sink.on_recovery()
            self._restore_tasks(region, record)

        self.kernel.call_at(resume_at, finish)
        return resume_at

    @_scoped
    def restart_from_scratch(self) -> float:
        """Restart the whole job from offset zero — the recovery of a
        checkpointed job that has no completed checkpoint yet. Transactional
        sinks discard uncommitted epochs, sources rewind to the beginning,
        so the replay is loss- and duplicate-free end to end. Returns the
        (current) virtual time processing resumes."""
        if self.job_finished or self.job_failed:
            raise RuntimeStateError("job is finished or failed; no restart")
        self.execution_epoch += 1
        self._region_restores.clear()
        for sink in self.sinks.values():
            if isinstance(sink, TransactionalSink):
                sink.on_recovery()
        for task in self._planned_tasks():
            if not task.dead:
                self.kill_task(task.name)
        for channel in self.iter_physical_channels():
            channel.reset()
        self._restore_tasks(self._planned_tasks(), None)
        return self.kernel.now()

    @_scoped
    def fail_job(self, reason: str) -> None:
        """Terminal, *clean* job failure: a restart policy gave up. Every
        task stops, in-flight data is voided, services are cancelled, and
        the engine refuses further recovery — but committed results stand
        and the engine records why it died (no hang, no silent wedge)."""
        if self.job_finished or self.job_failed:
            return
        self.job_failed = True
        self.failure_reason = reason
        # Invalidate pending restores and in-flight checkpoint persistence.
        self.execution_epoch += 1
        self._region_restores.clear()
        self._restore_in_flight = False
        if self._pending_checkpoint is not None:
            failed_id = self._pending_checkpoint.checkpoint_id
            self.checkpoints.pop(failed_id, None)
            self._pending_checkpoint = None
            if self.checkpoint_store is not None:
                self.checkpoint_store.note_aborted(failed_id)
        for task in self._planned_tasks():
            if not task.dead and not task.finished:
                task.kill()
        for channel in self.iter_physical_channels():
            channel.reset()
        self._cancel_services()
        self.metrics.recovery.job_failed_at = self.kernel.now()
        self.metrics.recovery.job_failure_reason = reason
        self._fire_finish_callbacks()

    def shutdown(self) -> int:
        """Tear the job down: cancel services, kill live tasks, and — on a
        shared kernel — bulk-cancel the whole event namespace (O(1) in heap
        size). Returns the number of kernel events condemned."""
        self._cancel_services()
        for task in self._planned_tasks():
            if not task.dead and not task.finished:
                task.kill()
        if self.owns_kernel:
            return 0
        return self.kernel.cancel_job(self.job_tag)

    @_scoped
    def recover_without_replay(self) -> None:
        """At-most-once recovery: dead tasks come back empty and sources
        continue from their *current* position (no rewind).

        Applies the same hygiene as the replaying paths: the restart opens a
        new execution epoch (in-flight checkpoint persistence from the dead
        execution must not register) and every channel touching a restarted
        task is reset, so stale in-flight elements addressed to the dead
        incarnation are voided — at-most-once tolerates the loss — instead
        of being delivered to the fresh one. A task that already finished
        its work before being killed stays finished: reincarnating it would
        wedge the job waiting for an EndOfStream that never comes again.
        """
        dead = [t for t in self._planned_tasks() if t.dead and not t.finished]
        if not dead:
            return
        dead_names = {task.name for task in dead}
        self.execution_epoch += 1
        for channel in self.iter_physical_channels():
            sender = channel.sender
            if channel.receiver.name in dead_names or (
                sender is not None and sender.name in dead_names
            ):
                channel.reset()
                if sender is not None and sender.finished and not sender.dead:
                    # The reset voided this upstream's in-flight end-of-input
                    # markers and it will never resend them — re-inject so
                    # the reincarnated receiver can still drain and finish.
                    channel.send(Watermark(MAX_TIMESTAMP))
                    channel.send(EndOfStream(source_id=sender.name))
        for task in dead:
            if isinstance(task, SourceTask):
                task.reincarnate()
                task._next_arrival = self.kernel.now()
                task.restart_emission()
            else:
                backend = None
                if not task.state_backend.survives_task_failure:
                    backend = self.backend_factory_for(task)()
                task.reincarnate(self.new_operator_for(task), backend)

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
                if self._is_fused_edge(edge):
                    target = self.graph.nodes[edge.target_id]
                    lines.append(f"    -> {target.name} [chained]")
                    continue
                target = self.graph.nodes[edge.target_id]
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
