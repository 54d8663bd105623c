"""Streaming graph state: a dynamic weighted graph fed by edge events."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


@dataclass(frozen=True)
class EdgeEvent:
    """One mutation of the evolving graph."""

    op: str  # "insert" | "delete"
    u: Any
    v: Any
    weight: float = 1.0

    @staticmethod
    def from_payload(value: dict) -> "EdgeEvent":
        return EdgeEvent(
            op=value.get("op", "insert"),
            u=value["u"],
            v=value["v"],
            weight=float(value.get("weight", 1.0)),
        )


class DynamicGraph:
    """Undirected weighted adjacency under a stream of edge events."""

    def __init__(self) -> None:
        self._adj: dict[Any, dict[Any, float]] = {}
        self.insertions = 0
        self.deletions = 0

    def apply(self, event: EdgeEvent) -> bool:
        """Apply one event; returns True if the graph changed."""
        if event.op == "insert":
            existing = self._adj.get(event.u, {}).get(event.v)
            self._adj.setdefault(event.u, {})[event.v] = event.weight
            self._adj.setdefault(event.v, {})[event.u] = event.weight
            self.insertions += 1
            return existing != event.weight
        if event.op == "delete":
            removed = False
            if event.v in self._adj.get(event.u, {}):
                del self._adj[event.u][event.v]
                del self._adj[event.v][event.u]
                removed = True
                self.deletions += 1
            return removed
        raise ValueError(f"unknown edge op {event.op!r}")

    # ------------------------------------------------------------------
    def neighbors(self, node: Any) -> dict[Any, float]:
        """Adjacent nodes with edge weights."""
        return dict(self._adj.get(node, {}))

    def has_edge(self, u: Any, v: Any) -> bool:
        """Whether the undirected edge exists."""
        return v in self._adj.get(u, {})

    def weight(self, u: Any, v: Any) -> float | None:
        """Weight of an edge, or None when absent."""
        return self._adj.get(u, {}).get(v)

    def nodes(self) -> list[Any]:
        """All nodes ever touched by an event."""
        return list(self._adj.keys())

    def edges(self) -> Iterator[tuple[Any, Any, float]]:
        """Each undirected edge once, as (u, v, weight)."""
        seen = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = (min(repr(u), repr(v)), max(repr(u), repr(v)))
                if key not in seen:
                    seen.add(key)
                    yield (u, v, w)

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self._adj.values()) // 2
