"""Logical dataflow graphs.

A :class:`StreamGraph` is the compiled form of a pipeline: nodes are
operator factories with a parallelism, edges carry a partitioning strategy.
The physical runtime (:mod:`repro.runtime`) expands it into tasks and
channels. Feedback edges are allowed when explicitly marked, which is how
loops & cycles (survey §4.2) enter the model without breaking scheduling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.operators.base import Operator
from repro.errors import GraphError


class Partitioning(enum.Enum):
    """How records travel across a logical edge."""

    FORWARD = "forward"  # subtask i → subtask i (requires equal parallelism)
    HASH = "hash"  # by record.key via key groups
    REBALANCE = "rebalance"  # round-robin
    BROADCAST = "broadcast"  # to every receiving subtask


@dataclass
class ChannelSpec:
    """Network model of an edge: base latency plus bounded jitter, and an
    optional per-channel credit capacity for flow control (None = unbounded,
    i.e. no backpressure — the early-systems default)."""

    latency: float = 1e-4
    jitter: float = 0.0
    capacity: int | None = None


@dataclass
class LogicalNode:
    node_id: int
    name: str
    operator_factory: Callable[[], Operator]
    parallelism: int = 1
    is_source: bool = False
    #: virtual seconds of CPU per element; None uses the engine default
    processing_cost: float | None = None
    #: factory for this node's keyed state backend; None uses engine default
    state_backend_factory: Callable[[], Any] | None = None
    #: free-form knobs read by specific operators/the runtime
    options: dict[str, Any] = field(default_factory=dict)

    def new_operator(self) -> Operator:
        """Instantiate a fresh operator (one per subtask/incarnation)."""
        return self.operator_factory()


@dataclass
class LogicalEdge:
    source_id: int
    target_id: int
    partitioning: Partitioning = Partitioning.FORWARD
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    #: feedback edges close loops; they are excluded from the DAG check and
    #: from watermark/barrier propagation (async feedback semantics)
    is_feedback: bool = False


class StreamGraph:
    """Mutable builder + validated container for the logical plan."""

    def __init__(self, name: str = "job") -> None:
        self.name = name
        self.nodes: dict[int, LogicalNode] = {}
        self.edges: list[LogicalEdge] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        operator_factory: Callable[[], Operator],
        parallelism: int = 1,
        is_source: bool = False,
        processing_cost: float | None = None,
        state_backend_factory: Callable[[], Any] | None = None,
        options: dict[str, Any] | None = None,
    ) -> LogicalNode:
        """Add an operator (or source) node; returns it."""
        if parallelism < 1:
            raise GraphError(f"node {name!r}: parallelism must be >= 1, got {parallelism}")
        node = LogicalNode(
            node_id=self._next_id,
            name=name,
            operator_factory=operator_factory,
            parallelism=parallelism,
            is_source=is_source,
            processing_cost=processing_cost,
            state_backend_factory=state_backend_factory,
            options=options or {},
        )
        self.nodes[node.node_id] = node
        self._next_id += 1
        return node

    def add_edge(
        self,
        source: LogicalNode | int,
        target: LogicalNode | int,
        partitioning: Partitioning = Partitioning.FORWARD,
        channel: ChannelSpec | None = None,
        is_feedback: bool = False,
    ) -> LogicalEdge:
        """Connect two nodes with a partitioning strategy and channel spec."""
        src_id = source.node_id if isinstance(source, LogicalNode) else source
        dst_id = target.node_id if isinstance(target, LogicalNode) else target
        if src_id not in self.nodes or dst_id not in self.nodes:
            raise GraphError(f"edge references unknown node ({src_id} -> {dst_id})")
        if partitioning is Partitioning.FORWARD:
            src, dst = self.nodes[src_id], self.nodes[dst_id]
            if src.parallelism != dst.parallelism:
                raise GraphError(
                    f"forward edge {src.name}->{dst.name} requires equal "
                    f"parallelism ({src.parallelism} != {dst.parallelism}); "
                    "use REBALANCE or HASH"
                )
        edge = LogicalEdge(
            source_id=src_id,
            target_id=dst_id,
            partitioning=partitioning,
            channel=channel or ChannelSpec(),
            is_feedback=is_feedback,
        )
        self.edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    def inputs_of(self, node_id: int) -> list[LogicalEdge]:
        """Edges arriving at ``node_id``."""
        return [e for e in self.edges if e.target_id == node_id]

    def outputs_of(self, node_id: int) -> list[LogicalEdge]:
        """Edges leaving ``node_id``."""
        return [e for e in self.edges if e.source_id == node_id]

    def sources(self) -> list[LogicalNode]:
        """All source nodes."""
        return [n for n in self.nodes.values() if n.is_source]

    def sinks(self) -> list[LogicalNode]:
        """Nodes with no outgoing edges."""
        return [n for n in self.nodes.values() if not self.outputs_of(n.node_id)]

    def node_by_name(self, name: str) -> LogicalNode:
        """Look up a node by name; raises :class:`GraphError` if absent."""
        for node in self.nodes.values():
            if node.name == name:
                return node
        raise GraphError(f"no node named {name!r}")

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants before execution."""
        if not self.sources():
            raise GraphError("graph has no sources")
        for node in self.nodes.values():
            if node.is_source and self.inputs_of(node.node_id):
                non_feedback = [e for e in self.inputs_of(node.node_id) if not e.is_feedback]
                if non_feedback:
                    raise GraphError(f"source {node.name!r} has data inputs")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        """The graph minus feedback edges must be a DAG (Kahn's algorithm)."""
        indegree = {nid: 0 for nid in self.nodes}
        adj: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for edge in self.edges:
            if edge.is_feedback:
                continue
            indegree[edge.target_id] += 1
            adj[edge.source_id].append(edge.target_id)
        frontier = [nid for nid, deg in indegree.items() if deg == 0]
        visited = 0
        while frontier:
            nid = frontier.pop()
            visited += 1
            for succ in adj[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
        if visited != len(self.nodes):
            raise GraphError(
                "graph contains a cycle without feedback marking; mark loop "
                "edges with is_feedback=True"
            )

    def topological_order(self) -> list[LogicalNode]:
        """Nodes in dataflow order, ignoring feedback edges."""
        self._check_acyclic()
        indegree = {nid: 0 for nid in self.nodes}
        adj: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for edge in self.edges:
            if edge.is_feedback:
                continue
            indegree[edge.target_id] += 1
            adj[edge.source_id].append(edge.target_id)
        frontier = sorted(nid for nid, deg in indegree.items() if deg == 0)
        order: list[LogicalNode] = []
        while frontier:
            nid = frontier.pop(0)
            order.append(self.nodes[nid])
            for succ in adj[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    frontier.append(succ)
            frontier.sort()
        return order

    def __repr__(self) -> str:
        return f"StreamGraph({self.name!r}, nodes={len(self.nodes)}, edges={len(self.edges)})"
