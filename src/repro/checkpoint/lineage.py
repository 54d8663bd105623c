"""Lineage-based recovery: the discretized-streams model (survey §3.1).

Spark Streaming's D-Streams recover lost partitions by *recomputing* them
from lineage instead of restoring snapshots: each micro-batch RDD remembers
the deterministic transformation and parents that produced it. This module
is a compact micro-batch engine with exactly that recovery semantics, used
by experiment E5 to compare recovery cost against checkpoint restore and
changelog replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RecoveryError


@dataclass(frozen=True)
class BatchRef:
    """Identity of one micro-batch dataset: (stream name, batch index)."""

    stream: str
    index: int


@dataclass
class _Node:
    ref: BatchRef
    parents: list[BatchRef]
    compute: Callable[[list[list[Any]]], list[Any]]
    is_source: bool = False


class LineageGraph:
    """Deterministic micro-batch computation with lineage-tracked caching.

    * :meth:`source_batch` registers a materialized input batch (replayable:
      the compute function regenerates it, like a Kafka offset range).
    * :meth:`derive` declares a transformation over parent batches.
    * :meth:`materialize` computes (and caches) a batch.
    * :meth:`evict` simulates losing a cached partition; the next
      materialize recomputes from lineage, counting the recomputed batches.
    * :meth:`checkpoint_batch` truncates lineage at a batch (the D-Streams
      periodic-checkpoint escape hatch that bounds recomputation depth).
    """

    def __init__(self) -> None:
        self._nodes: dict[BatchRef, _Node] = {}
        self._cache: dict[BatchRef, list[Any]] = {}
        self._checkpointed: dict[BatchRef, list[Any]] = {}
        self.recomputed_batches = 0
        self.compute_calls = 0

    # ------------------------------------------------------------------
    def source_batch(self, stream: str, index: int, generate: Callable[[], list[Any]]) -> BatchRef:
        """Register a replayable input batch; ``generate`` recreates its data."""
        ref = BatchRef(stream, index)
        self._nodes[ref] = _Node(ref, [], lambda _parents: list(generate()), is_source=True)
        return ref

    def derive(
        self,
        stream: str,
        index: int,
        parents: list[BatchRef],
        compute: Callable[[list[list[Any]]], list[Any]],
    ) -> BatchRef:
        """Declare a deterministic transformation over parent batches."""
        ref = BatchRef(stream, index)
        for parent in parents:
            if parent not in self._nodes:
                raise RecoveryError(f"unknown parent batch {parent}")
        self._nodes[ref] = _Node(ref, list(parents), compute)
        return ref

    # ------------------------------------------------------------------
    def materialize(self, ref: BatchRef) -> list[Any]:
        """Compute (and cache) a batch, recursing through its lineage."""
        if ref in self._cache:
            return self._cache[ref]
        if ref in self._checkpointed:
            data = list(self._checkpointed[ref])
            self._cache[ref] = data
            return data
        node = self._nodes.get(ref)
        if node is None:
            raise RecoveryError(f"unknown batch {ref}")
        parent_data = [self.materialize(parent) for parent in node.parents]
        self.compute_calls += 1
        data = node.compute(parent_data)
        self._cache[ref] = data
        return data

    def evict(self, ref: BatchRef) -> None:
        """Lose the cached copy (a failed executor's partitions)."""
        self._cache.pop(ref, None)

    def evict_all(self) -> None:
        """Lose every cached batch (total executor loss)."""
        self._cache.clear()

    def recover(self, ref: BatchRef) -> tuple[list[Any], int]:
        """Recompute a lost batch; returns (data, batches recomputed)."""
        before = self.compute_calls
        data = self.materialize(ref)
        recomputed = self.compute_calls - before
        self.recomputed_batches += recomputed
        return data, recomputed

    # ------------------------------------------------------------------
    def checkpoint_batch(self, ref: BatchRef) -> None:
        """Persist a batch's data, truncating lineage below it."""
        data = self.materialize(ref)
        self._checkpointed[ref] = list(data)

    def lineage_depth(self, ref: BatchRef) -> int:
        """Longest recompute chain needed if everything below is lost."""
        if ref in self._checkpointed:
            return 0
        node = self._nodes.get(ref)
        if node is None:
            raise RecoveryError(f"unknown batch {ref}")
        if node.is_source or not node.parents:
            return 1
        return 1 + max(self.lineage_depth(parent) for parent in node.parents)


def stateful_dstream(
    graph: LineageGraph,
    stream: str,
    batches: list[list[Any]],
    update: Callable[[dict, list[Any]], dict],
) -> list[BatchRef]:
    """Build an updateStateByKey-style chain: state_i = update(state_{i-1},
    batch_i). Returns the refs of the state stream, whose lineage depth grows
    with i — the pathology periodic checkpoints exist to bound."""
    refs: list[BatchRef] = []
    previous: BatchRef | None = None
    for index, data in enumerate(batches):
        src = graph.source_batch(f"{stream}-in", index, lambda data=data: list(data))
        parents = [src] if previous is None else [previous, src]
        if previous is None:
            ref = graph.derive(stream, index, parents, lambda p, u=update: [u({}, p[0])])
        else:
            ref = graph.derive(
                stream, index, parents, lambda p, u=update: [u(p[0][0], p[1])]
            )
        refs.append(ref)
        previous = ref
    return refs
