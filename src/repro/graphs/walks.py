"""Streaming random walks and lightweight online graph embeddings (§4.1).

"The prediction tasks require generating graph embeddings using streaming
random walks." :class:`StreamingRandomWalks` maintains a reservoir of
walks that are lazily extended as the graph evolves;
:class:`CooccurrenceEmbedding` turns walk windows into co-occurrence
counts, a DeepWalk-style similarity signal cheap enough to keep online.
"""

from __future__ import annotations

from typing import Any

from repro.graphs.stream import DynamicGraph, EdgeEvent
from repro.sim.random import SimRandom


class StreamingRandomWalks:
    """Maintains ``walks_per_node`` random walks of length ``walk_length``.

    On every edge event the walks touching the affected endpoints are
    invalidated from the mutation point and re-extended over the current
    graph — the standard trick that keeps the walk distribution close to
    that of static walks on the evolving graph without global recompute.
    """

    def __init__(self, walk_length: int = 8, walks_per_node: int = 4, seed: int = 0) -> None:
        if walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        self.graph = DynamicGraph()
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self._rng = SimRandom(seed, "walks")
        self._walks: dict[Any, list[list[Any]]] = {}
        self.extensions = 0

    def apply(self, event: EdgeEvent) -> None:
        """Apply one edge event, refreshing and repairing affected walks."""
        self.graph.apply(event)
        for endpoint in (event.u, event.v):
            self._refresh_node(endpoint)
        # Invalidate walk suffixes that pass through the mutated endpoints.
        for node, walks in self._walks.items():
            for walk in walks:
                for position, step in enumerate(walk):
                    if step in (event.u, event.v) and position < len(walk) - 1:
                        del walk[position + 1 :]
                        self._extend(walk)
                        break

    def _refresh_node(self, node: Any) -> None:
        walks = self._walks.setdefault(node, [])
        while len(walks) < self.walks_per_node:
            walk = [node]
            self._extend(walk)
            walks.append(walk)

    def _extend(self, walk: list[Any]) -> None:
        while len(walk) < self.walk_length:
            neighbors = self.graph.neighbors(walk[-1])
            if not neighbors:
                return
            choices = sorted(neighbors.items(), key=lambda kv: repr(kv[0]))
            total = sum(w for _n, w in choices)
            point = self._rng.uniform(0.0, total)
            acc = 0.0
            for neighbor, weight in choices:
                acc += weight
                if point <= acc:
                    walk.append(neighbor)
                    break
            else:
                walk.append(choices[-1][0])
            self.extensions += 1

    def walks_of(self, node: Any) -> list[list[Any]]:
        """Copies of the walks anchored at ``node``."""
        return [list(w) for w in self._walks.get(node, [])]


class CooccurrenceEmbedding:
    """Windowed co-occurrence counts over walks: a cheap online embedding.

    ``similarity(a, b)`` is the normalized co-occurrence frequency —
    monotone in how often the walk corpus sees the two nodes together.
    """

    def __init__(self, window: int = 3) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._counts: dict[tuple[str, str], int] = {}
        self._node_totals: dict[Any, int] = {}

    def ingest_walk(self, walk: list[Any]) -> None:
        """Count windowed co-occurrences along one walk."""
        for i, node in enumerate(walk):
            self._node_totals[node] = self._node_totals.get(node, 0) + 1
            for j in range(i + 1, min(i + 1 + self.window, len(walk))):
                pair = self._pair(node, walk[j])
                self._counts[pair] = self._counts.get(pair, 0) + 1

    @staticmethod
    def _pair(a: Any, b: Any) -> tuple[str, str]:
        ra, rb = repr(a), repr(b)
        return (ra, rb) if ra <= rb else (rb, ra)

    def cooccurrence(self, a: Any, b: Any) -> int:
        """Raw co-occurrence count of two nodes."""
        return self._counts.get(self._pair(a, b), 0)

    def similarity(self, a: Any, b: Any) -> float:
        """Normalized co-occurrence (geometric-mean denominator)."""
        co = self.cooccurrence(a, b)
        if co == 0:
            return 0.0
        denom = (self._node_totals.get(a, 0) * self._node_totals.get(b, 0)) ** 0.5
        return co / denom if denom else 0.0

    def top_similar(self, node: Any, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` most co-occurring nodes for ``node``."""
        scores: dict[str, float] = {}
        rn = repr(node)
        for (a, b), _count in self._counts.items():
            if a == rn and b != rn:
                scores[b] = max(scores.get(b, 0.0), self._score_repr(rn, b))
            elif b == rn and a != rn:
                scores[a] = max(scores.get(a, 0.0), self._score_repr(rn, a))
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]

    def _score_repr(self, ra: str, rb: str) -> float:
        count = self._counts.get((ra, rb) if ra <= rb else (rb, ra), 0)
        return float(count)
