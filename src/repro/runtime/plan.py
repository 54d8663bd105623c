"""The physical plan: the tasks and channels a job runs, and the one place
that builds them.

:class:`PhysicalPlan` expands a :class:`~repro.core.graph.StreamGraph` into
*vertices* (a chain of fused logical nodes, or one node) with their subtasks,
and gives every sender one output gate per plan edge. Only its own methods
change it. Every task is built in :meth:`PhysicalPlan._make_task` and every
gate and channel in :meth:`PhysicalPlan._wire`, so a subtask added at run
time is wired, observed and revived like one built with the job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.events import MAX_TIMESTAMP, EndOfStream, Watermark
from repro.core.graph import ChannelSpec, LogicalEdge, LogicalNode, Partitioning
from repro.core.operators.base import Operator
from repro.core.operators.basic import SinkOperator
from repro.core.operators.chain import ChainedOperator
from repro.errors import GraphError
from repro.io.sinks import TransactionalSink
from repro.progress.watermarks import NoWatermarks, WatermarkStrategy
from repro.runtime.channel import OutputGate, PhysicalChannel
from repro.runtime.config import CheckpointMode
from repro.runtime.task import SourceTask, Task, TaskSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


@dataclass(eq=False)
class Vertex:
    """One chain group (head first; a tap's node is not in the graph)."""

    members: list[LogicalNode]
    #: what a revival rebuilds a subtask from (None for a source)
    operator_factory: Callable[[], Operator] | None
    backend_factory: Callable[[], Any] | None
    subtasks: list[Task] = field(default_factory=list)
    #: the sinks its operators write
    sinks: list[Any] = field(default_factory=list)
    #: the key router hash-partitioned gates into it consult (a live rescale sets it)
    router: Any = None


@dataclass(eq=False)
class _Edge:
    """An unfused logical edge, or a tap's input, with each sender's gate."""

    source: Vertex
    target: Vertex
    partitioning: Partitioning
    spec: ChannelSpec
    is_feedback: bool
    #: sender → its gate
    gates: dict[Task, OutputGate] = field(default_factory=dict)


class PhysicalPlan:
    """The physical layout of one engine's job."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: every task the job has run, by name, retired subtasks included
        #: (``Engine.tasks`` is this map)
        self.by_name: dict[str, Task] = {}
        #: sink name → sink
        self.sinks: dict[str, Any] = {}
        self._vertices: list[Vertex] = []
        #: node (chain member or tap) name → vertex; task name → vertex
        self._vertex_of: dict[str, Vertex] = {}
        self._vertex_of_task: dict[str, Vertex] = {}
        #: in graph edge order, taps after
        self._edges: list[_Edge] = []
        graph = engine.graph
        chains = self._chains()
        for node in graph.topological_order():
            group = chains.get(node.node_id, [node])
            if node is group[0]:
                self._add_vertex(group, node.parallelism)
        for edge in graph.edges:
            if not self._fused(edge):
                self._connect(*self._ends(edge), edge)

    # -- queries ----------------------------------------------------------
    def tasks(self) -> list[Task]:
        """The tasks currently in the plan, in plan order: vertices in
        topological order of their heads (taps last), subtasks by index."""
        return [task for vertex in self._vertices for task in vertex.subtasks]

    def subtasks(self, node_name: str) -> list[Task]:
        """The current subtasks of a logical node (of its chain when fused)
        or of a tap, by index: the plan's own list, whose length is the
        node's current parallelism (a rescale changes it here only)."""
        return self._vertex(node_name).subtasks

    def channels(self) -> list[PhysicalChannel]:
        """Every physical link, in deterministic (edge, sender, channel)
        order — chaos targeting, invariant probes and recovery walk this."""
        return [
            channel
            for edge in self._edges
            for gate in edge.gates.values()
            for channel in gate.channels
        ]

    def transactional_sinks(self, task_names: set[str]) -> dict[int, TransactionalSink]:
        """The transactional sinks the named tasks write, by identity."""
        return {
            id(sink): sink
            for name in self.by_name
            if name in task_names
            for sink in self._vertex_of_task[name].sinks
            if isinstance(sink, TransactionalSink)
        }

    def describe(self) -> str:
        """Human-readable plan: nodes, parallelism, edges, channels."""
        graph = self.engine.graph
        lines = [f"job {graph.name!r}"]
        for node in graph.topological_order():
            vertex = self._vertex_of[node.name]
            head = vertex.members[0]
            if node is not head:
                lines.append(f"  {node.name} [fused into {head.name}]")
            else:
                kind = "source" if node.is_source else type(vertex.subtasks[0].operator).__name__
                lines.append(f"  {node.name} [{kind}] x{len(vertex.subtasks)}")
            for edge in graph.outputs_of(node.node_id):
                target = graph.nodes[edge.target_id]
                if self._fused(edge):
                    lines.append(f"    -> {target.name} [chained]")
                    continue
                spec = self.engine.config.channel_for(edge.channel)
                feedback = " (feedback)" if edge.is_feedback else ""
                capacity = spec.capacity if spec.capacity is not None else "unbounded"
                lines.append(
                    f"    -> {target.name} [{edge.partitioning.value}] "
                    f"latency={spec.latency:g}s capacity={capacity}{feedback}"
                )
        return "\n".join(lines)

    # -- transformations --------------------------------------------------
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
            vertex = self._vertex_of_task[task.name]
            keep = task.state_backend.survives_task_failure and not fresh_backend
            backend = None if keep else vertex.backend_factory()
            task.reincarnate(vertex.operator_factory(), backend)
        task.restore_snapshot(snapshot)

    def add_subtasks(self, node_name: str, parallelism: int) -> None:
        """Scale a node out: start the new subtasks and link every sender
        into the node to them, in index order so hash routing stays aligned,
        and them to every receiver (REBALANCE where the edge is FORWARD)."""
        vertex = self._vertex(node_name)
        new = []
        for index in range(len(vertex.subtasks), parallelism):
            task = self._make_task(vertex, index)
            task.start()
            new.append(task)
        for edge in self._edges:
            if edge.target is vertex:
                for sender in list(edge.gates):
                    self._wire(edge, sender, new)
            if edge.source is vertex:
                partitioning = edge.partitioning
                if partitioning is Partitioning.FORWARD:
                    partitioning = Partitioning.REBALANCE
                for task in new:
                    self._wire(edge, task, edge.target.subtasks, partitioning)

    def retire_subtasks(
        self, node_name: str, parallelism: int, hand_off: Callable[[Any], None]
    ) -> list[PhysicalChannel]:
        """Scale a node in: detach and retire its trailing subtasks, handing
        what they still held to ``hand_off``. Returns the links into them,
        on which records can still be travelling."""
        vertex = self._vertex(node_name)
        retired = vertex.subtasks[parallelism:]
        links: list[PhysicalChannel] = []
        for edge in self._edges:
            if edge.target is vertex:
                for gate in edge.gates.values():
                    # the trailing channels point at the retired subtasks
                    links.extend(gate.channels.pop() for _ in range(len(gate.channels) - parallelism))
            if edge.source is vertex:
                for task in retired:
                    gate = edge.gates.pop(task, None)
                    if gate is not None:
                        for channel in gate.channels:
                            channel.receiver.retire_input_channel(channel.receiver_channel_index)
        for task in retired:
            task.retire(hand_off)
        vertex.subtasks = vertex.subtasks[:parallelism]
        return links

    def route(self, node_name: str, router: Any) -> None:
        """Point every hash-partitioned gate into the node, and every such
        gate made later, at ``router``."""
        vertex = self._vertex(node_name)
        vertex.router = router
        for edge in self._edges:
            if edge.target is vertex and edge.partitioning is Partitioning.HASH:
                for gate in edge.gates.values():
                    gate.router = router

    def add_tap(
        self,
        node_name: str,
        operator_factory: Callable[[], Operator],
        tap_name: str,
        processing_cost: float | None,
        channel: ChannelSpec | None,
    ) -> Task:
        """Start a single-task operator outside the logical graph and feed it
        everything ``node_name``'s subtasks emit from now on."""
        source = self._vertex(node_name)
        if tap_name in self._vertex_of or any(n.startswith(f"{tap_name}[") for n in self.by_name):
            raise GraphError(f"tap name {tap_name!r} already in use")
        node = LogicalNode(-1, tap_name, operator_factory, processing_cost=processing_cost)
        vertex = self._add_vertex([node], 1)
        task = vertex.subtasks[0]
        task.start()
        self._connect(source, vertex, LogicalEdge(-1, -1, Partitioning.BROADCAST, channel or ChannelSpec()))
        return task

    # -- construction -----------------------------------------------------
    def _vertex(self, node_name: str) -> Vertex:
        vertex = self._vertex_of.get(node_name)
        if vertex is None:
            raise GraphError(f"no node named {node_name!r}")
        return vertex

    def _chains(self) -> dict[int, list[LogicalNode]]:
        """Greedy Flink-style fusion: walk forward edges, fusing a node into
        the current chain while the link is FORWARD-partitioned, one-to-one
        (fan-out 1 upstream, fan-in 1 downstream), same parallelism, not a
        feedback edge, and the downstream node doesn't demand its own state
        backend. Sources are never fused (they drive workload emission).
        Returns chain member node id → its chain, head first."""
        chains: dict[int, list[LogicalNode]] = {}
        if not self.engine.config.chaining_enabled:
            return chains
        graph = self.engine.graph
        for node in graph.topological_order():
            if node.is_source or node.node_id in chains or node.options.get("no_chain"):
                continue
            group = [node]
            while True:
                outs = graph.outputs_of(group[-1].node_id)
                if len(outs) != 1 or outs[0].is_feedback or outs[0].partitioning is not Partitioning.FORWARD:
                    break
                target = graph.nodes[outs[0].target_id]
                if (
                    target.is_source
                    or target.node_id in chains
                    or target.options.get("no_chain")
                    or target.parallelism != node.parallelism
                    or target.state_backend_factory is not None
                    or len(graph.inputs_of(target.node_id)) != 1
                ):
                    break
                group.append(target)
            if len(group) > 1:
                for member in group:
                    chains[member.node_id] = group
        return chains

    def _ends(self, edge: LogicalEdge) -> tuple[Vertex, Vertex]:
        nodes = self.engine.graph.nodes
        return self._vertex_of[nodes[edge.source_id].name], self._vertex_of[nodes[edge.target_id].name]

    def _fused(self, edge: LogicalEdge) -> bool:
        """True when both ends of ``edge`` run in one chain — the hop is a
        plain Python call, so no channel is built."""
        source, target = self._ends(edge)
        return source is target and len(source.members) > 1

    def _cost(self, node: LogicalNode, operator: Operator) -> float:
        if node.processing_cost is not None:
            return node.processing_cost
        if operator.processing_cost is not None:
            return operator.processing_cost
        return self.engine.config.default_processing_cost

    def _add_vertex(self, members: list[LogicalNode], parallelism: int) -> Vertex:
        """A vertex for ``members`` with ``parallelism`` subtasks, not started."""
        head = members[0]
        operator_factory = backend_factory = None
        if not head.is_source:
            engine = self.engine
            operator_factory = head.new_operator
            if len(members) > 1:
                name = "->".join(member.name for member in members)

                def operator_factory() -> ChainedOperator:
                    operators = [member.new_operator() for member in members]
                    costs = [self._cost(member, op) for member, op in zip(members, operators)]
                    # The head's cost is carried by the task itself; members
                    # after it charge theirs per record entered via ctx.add_cost.
                    return ChainedOperator(operators, name=name, extra_costs=[0.0, *costs[1:]])

            backend_factory = engine.coordinator.backend_factory(
                head.state_backend_factory or engine.config.state_backend_factory
            )
        vertex = Vertex(members, operator_factory, backend_factory)
        self._vertices.append(vertex)
        for member in members:
            self._vertex_of[member.name] = vertex
        for index in range(parallelism):
            self._make_task(vertex, index)
        return vertex

    def _make_task(self, vertex: Vertex, index: int) -> Task:
        """Subtask ``index`` of ``vertex``, entered in the plan and bound to
        observability: the one place a task is constructed."""
        engine = self.engine
        head = vertex.members[0]
        name = "->".join(member.name for member in vertex.members) + f"[{index}]"
        metrics = engine.metrics.for_task(name)
        if head.is_source:
            workload = head.options.get("workload")
            if workload is None:
                raise GraphError(f"source node {head.name!r} lacks options['workload']")
            strategy: WatermarkStrategy = head.options.get("watermarks") or NoWatermarks()
            task: Task = SourceTask(
                engine.kernel,
                name,
                workload=workload,
                watermark_strategy=strategy.fresh(),
                bounded=head.options.get("bounded", True),
                heartbeat_interval=head.options.get("heartbeat_interval"),
                metrics=metrics,
                engine=engine,
                subtask_index=index,
                batch_records=engine.config.columnar_batch_size,
            )
        else:
            operator = vertex.operator_factory()
            chained = isinstance(operator, ChainedOperator)
            task = Task(
                engine.kernel,
                name,
                operator=operator,
                state_backend=vertex.backend_factory(),
                subtask_index=index,
                # Task prefers a bare operator's own cost over this one
                processing_cost=self._cost(head, operator.operators[0] if chained else operator),
                metrics=metrics,
                engine=engine,
            )
            checkpoints = engine.config.checkpoints
            task.inputs.aligned = checkpoints is None or checkpoints.mode is not CheckpointMode.UNALIGNED
            for member in operator.operators if chained else [operator]:
                if isinstance(member, SinkOperator):
                    sink = member.sink
                    self.sinks.setdefault(getattr(sink, "name", name), sink)
                    if all(known is not sink for known in vertex.sinks):
                        vertex.sinks.append(sink)
        vertex.subtasks.append(task)
        self.by_name[name] = task
        self._vertex_of_task[name] = vertex
        engine.obs.attach_task(task)
        return task

    def _connect(self, source: Vertex, target: Vertex, logical: LogicalEdge) -> None:
        """A plan edge like ``logical`` from ``source`` to ``target``, every
        current sender linked (FORWARD pairs subtask i with subtask i)."""
        spec = self.engine.config.channel_for(logical.channel)
        edge = _Edge(source, target, logical.partitioning, spec, logical.is_feedback)
        self._edges.append(edge)
        for sender in source.subtasks:
            if edge.partitioning is Partitioning.FORWARD:
                self._wire(edge, sender, [target.subtasks[sender.subtask_index]])
            else:
                self._wire(edge, sender, target.subtasks)

    def _wire(
        self,
        edge: _Edge,
        sender: Task,
        receivers: list[Task],
        partitioning: Partitioning | None = None,
    ) -> None:
        """Link ``sender`` to ``receivers`` through its gate on ``edge`` (made
        on first use, partitioned like the edge unless ``partitioning`` is
        given): the one place gates and channels are constructed."""
        engine = self.engine
        channels = []
        for receiver in receivers:
            channel = PhysicalChannel(
                engine.kernel,
                edge.spec,
                receiver,
                receiver.inputs.register(edge.is_feedback),
                engine.rng.fork(f"ch/{sender.name}->{receiver.name}"),
                sender=sender,
            )
            engine.obs.register_channel(channel)
            channels.append(channel)
        gate = edge.gates.get(sender)
        if gate is None:
            gate = OutputGate(partitioning or edge.partitioning, channels)
            if gate.partitioning is Partitioning.HASH:
                gate.router = edge.target.router
            sender.output_gates.append(gate)
            edge.gates[sender] = gate
        else:
            gate.channels.extend(channels)
        if sender.finished and not sender.dead:
            # The sender's end of input went out on its other links only:
            # seed the new ones so their receivers can still finish.
            for channel in channels:
                channel.send(Watermark(MAX_TIMESTAMP))
                channel.send(EndOfStream(source_id=sender.name))
