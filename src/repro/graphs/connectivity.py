"""Incremental connected components over an edge stream.

Insertions are handled in near-constant time with union-find; deletions
(which union-find cannot undo) trigger a bounded recompute — the standard
incremental/decremental asymmetry dynamic-graph systems manage. The
:class:`RecomputeComponents` baseline recomputes from scratch per event,
which experiment E13 compares against.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.stream import DynamicGraph, EdgeEvent


class UnionFind:
    """Disjoint sets with union by rank and path compression."""

    def __init__(self) -> None:
        self._parent: dict[Any, Any] = {}
        self._rank: dict[Any, int] = {}
        self.components = 0

    def add(self, node: Any) -> None:
        """Register a node as its own singleton component."""
        if node not in self._parent:
            self._parent[node] = node
            self._rank[node] = 0
            self.components += 1

    def find(self, node: Any) -> Any:
        """Representative of the node's component (compressing the path)."""
        self.add(node)
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:  # path compression
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: Any, b: Any) -> bool:
        """Merge two components; returns False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self.components -= 1
        return True


class IncrementalComponents:
    """Union-find for inserts; full rebuild only when a deletion occurs."""

    def __init__(self) -> None:
        self.graph = DynamicGraph()
        self._uf = UnionFind()
        self.rebuilds = 0
        self.operations = 0  # union/find cost metric

    def apply(self, event: EdgeEvent) -> None:
        """Apply one edge event (union on insert, rebuild on effective delete)."""
        changed = self.graph.apply(event)
        if event.op == "insert":
            self._uf.union(event.u, event.v)
            self.operations += 1
        elif changed:
            self._rebuild()

    def _rebuild(self) -> None:
        self.rebuilds += 1
        self._uf = UnionFind()
        for node in self.graph.nodes():
            self._uf.add(node)
        for u, v, _w in self.graph.edges():
            self._uf.union(u, v)
            self.operations += 1

    def connected(self, a: Any, b: Any) -> bool:
        """Whether two nodes share a component."""
        return self._uf.find(a) == self._uf.find(b)


class RecomputeComponents:
    """Baseline: BFS labelling from scratch after every event."""

    def __init__(self) -> None:
        self.graph = DynamicGraph()
        self._labels: dict[Any, int] = {}
        self.operations = 0

    def apply(self, event: EdgeEvent) -> None:
        """Apply one edge event and relabel the whole graph by BFS."""
        self.graph.apply(event)
        self._labels = {}
        label = 0
        for start in self.graph.nodes():
            if start in self._labels:
                continue
            queue = [start]
            self._labels[start] = label
            while queue:
                node = queue.pop()
                self.operations += 1
                for neighbor in self.graph.neighbors(node):
                    if neighbor not in self._labels:
                        self._labels[neighbor] = label
                        queue.append(neighbor)
            label += 1

    def connected(self, a: Any, b: Any) -> bool:
        """Whether two nodes share a component."""
        return (
            a in self._labels and b in self._labels and self._labels[a] == self._labels[b]
        )
