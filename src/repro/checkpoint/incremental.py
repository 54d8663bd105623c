"""Incremental checkpointing: snapshot only what changed (survey §3.1).

Full snapshots scale with total state size; incremental snapshots (RocksDB
SST-upload style) scale with the churn between checkpoints. Change tracking
is the backend's own (:meth:`KeyedStateBackend.track_changes`): every write
and delete lands in its change record. The :class:`IncrementalSnapshotter`
attached to a backend numbers the chain and turns that record into
:class:`DeltaSnapshot` links; :func:`restore_chain` folds a base + deltas
back into a backend. Experiment E5 sweeps state size vs. churn to show the
crossover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import CheckpointError
from repro.state.api import TOMBSTONE, KeyedStateBackend, StateDescriptor


@dataclass
class DeltaSnapshot:
    """Changes since the previous snapshot in the chain."""

    snapshot_id: int
    base_id: int | None  # None = this is a full (base) snapshot
    entries: dict[str, dict[Any, bytes]] = field(default_factory=dict)
    _size: int | None = field(default=None, init=False, repr=False, compare=False)

    def size_bytes(self) -> int:
        """Serialized size of the entries, 16 bytes of framing each (a
        cost-model input); computed once, as a captured link never changes."""
        if self._size is None:
            data = itertools.chain.from_iterable(map(dict.values, self.entries.values()))
            self._size = sum(map(len, data)) + 16 * self.entry_count()
        return self._size

    def entry_count(self) -> int:
        """Entries carried (puts + tombstones) — the captured churn."""
        return sum(map(len, self.entries.values()))

    @property
    def is_full(self) -> bool:
        return self.base_id is None


#: the backend surface a snapshotter answers for its backend: bound methods
#: and shared objects, so calling one through the snapshotter is the call
_BACKEND_SURFACE = """register get put delete keys descriptors handle snapshot restore merge
clear_all extract_keys total_entries snapshot_bytes stats read_latency write_latency
survives_task_failure snapshotter""".split()


class IncrementalSnapshotter:
    """The incremental capture chain of one backend.

    Construction attaches it (``backend.track_changes``): the backend then
    records its own changes and the snapshotter stays off the access path.
    It numbers the chain and captures links — :meth:`delta_snapshot` at each
    checkpoint, :meth:`full_snapshot` to rebase. The backend's surface is
    bound onto it, so it can also stand in for the backend.
    """

    def __init__(self, backend: KeyedStateBackend) -> None:
        self.backend = backend
        #: id of the most recent capture (None: none yet). Live migration's
        #: delta-chain handoff (state = chain replay ⊕ live change record) is
        #: only sound when this matches the chain store's newest link; after a
        #: recovery it is None, and the handoff falls back to full extraction.
        self.last_snapshot_id: int | None = None
        backend.track_changes(self)
        for name in _BACKEND_SURFACE:
            setattr(self, name, getattr(backend, name))

    def _link(self, base_id: int | None, entries: dict[str, dict[Any, bytes]]) -> DeltaSnapshot:
        self.last_snapshot_id = (self.last_snapshot_id or 0) + 1
        return DeltaSnapshot(self.last_snapshot_id, base_id, entries)

    def full_snapshot(self) -> DeltaSnapshot:
        """A base snapshot containing everything; starts a new change record."""
        return self._link(None, self.backend.capture_all())

    def delta_snapshot(self) -> DeltaSnapshot:
        """Only entries changed since the previous snapshot (falls back to a
        full snapshot if none was taken yet)."""
        if self.last_snapshot_id is None:
            return self.full_snapshot()
        return self._link(self.last_snapshot_id, self.backend.capture_changes())

    def dirty_entries(self) -> tuple[set[tuple[str, Any]], set[tuple[str, Any]]]:
        """The backend's change record as (written, deleted) sets of
        ``(descriptor, key)`` — the live overlay a delta-chain state handoff
        must ship synchronously."""
        changes = self.backend.changes
        written = {entry for entry, is_write in changes.items() if is_write}
        return written, changes.keys() - written


class TaskChainStore:
    """Per-task base + delta snapshot chains.

    Each capture appends one :class:`DeltaSnapshot` link to the owning
    task's chain — unconditionally, even for a round the coordinator has
    already given up, because the snapshotter's next delta bases on it.
    Which links a restore may start from is the coordinator's to say: its
    round table holds them, and it names the ones still needed when it
    compacts (:meth:`prune`). Restores walk back from a link to the nearest
    full snapshot; when a segment reaches ``max_chain_length`` the next
    capture rebases (full snapshot).
    """

    def __init__(self, max_chain_length: int = 8) -> None:
        self.max_chain_length = max(1, max_chain_length)
        self._links: dict[str, list[DeltaSnapshot]] = {}
        #: chain segments restarted with a fresh full snapshot (rebase count)
        self.rebases = 0
        #: links dropped by compaction
        self.links_pruned = 0

    # --- capture-side ------------------------------------------------------
    def wants_full(self, task_name: str) -> bool:
        """Whether the next capture for ``task_name`` should rebase: no chain
        yet, or the current segment reached ``max_chain_length``."""
        segment = self.segment_length(task_name)
        return segment == 0 or segment >= self.max_chain_length

    def append(self, task_name: str, link: DeltaSnapshot) -> None:
        """Record one captured link."""
        links = self._links.setdefault(task_name, [])
        if link.is_full and links:
            self.rebases += 1
        links.append(link)

    def prune(
        self, keep: Callable[[str], list[DeltaSnapshot]], task_name: str | None = None
    ) -> None:
        """Compact ``task_name``'s chain (every chain when None): drop the
        links older than the newest full snapshot that still covers the
        links ``keep(task_name)`` names and the newest link."""
        for name in list(self._links) if task_name is None else [task_name]:
            links = self._links[name]
            kept = set(map(id, keep(name)))
            cut = 0
            for position, link in enumerate(links):  # up to the oldest kept link
                if link.is_full:
                    cut = position
                if id(link) in kept:
                    break
            if cut:
                self.links_pruned += cut
                self._links[name] = links[cut:]

    # --- restore-side ------------------------------------------------------
    def chain_to(self, task_name: str, link: DeltaSnapshot) -> list[DeltaSnapshot]:
        """Base + deltas ending at a specific captured link (standby restores
        a capture whose checkpoint may never have completed)."""
        links = self._links.get(task_name, [])
        for end in range(len(links) - 1, -1, -1):
            if links[end] is link:
                for start in range(end, -1, -1):
                    if links[start].is_full:
                        return links[start : end + 1]
                raise CheckpointError(
                    f"chain for task {task_name!r} lacks a base snapshot (compacted away?)"
                )
        raise CheckpointError(
            f"snapshot link for task {task_name!r} is no longer in the chain"
        )

    def chain_bytes(self, task_name: str, link: DeltaSnapshot) -> int:
        """Serialized volume a restore must pull for this link's chain."""
        return sum(part.size_bytes() for part in self.chain_to(task_name, link))

    def latest_link(self, task_name: str) -> DeltaSnapshot | None:
        """The newest captured link for ``task_name`` (restorable or not);
        None when the task has no chain yet. Live migration anchors its
        delta-chain handoff here."""
        links = self._links.get(task_name)
        return links[-1] if links else None

    # --- introspection -----------------------------------------------------
    def segment_length(self, task_name: str) -> int:
        """Links in the task's current segment (since the last full)."""
        segment = 0
        for link in reversed(self._links.get(task_name, [])):
            segment += 1
            if link.is_full:
                break
        return segment

    def max_segment_length(self) -> int:
        """Longest current segment across tasks (chain-length gauge)."""
        return max((self.segment_length(name) for name in self._links), default=0)

    def chain_length(self, task_name: str) -> int:
        """Total links currently retained for a task."""
        return len(self._links.get(task_name, ()))


def restore_chain(target: KeyedStateBackend, chain: list[DeltaSnapshot]) -> int:
    """Fold a base + ordered deltas into ``target``; returns entries applied.

    The chain must start with a full snapshot and be ordered: each delta's
    ``base_id`` must match its predecessor's id.
    """
    if not chain:
        raise CheckpointError("empty snapshot chain")
    if not chain[0].is_full:
        raise CheckpointError("snapshot chain must start with a full snapshot")
    previous = chain[0].snapshot_id
    for delta in chain[1:]:
        if delta.base_id != previous:
            raise CheckpointError(
                f"broken chain: delta {delta.snapshot_id} bases on {delta.base_id}, "
                f"expected {previous}"
            )
        previous = delta.snapshot_id

    by_name = {d.name: d for d in target.descriptors()}
    applied = 0
    for snapshot in chain:
        for name, entries in snapshot.entries.items():
            descriptor = by_name.get(name)
            if descriptor is None:
                descriptor = StateDescriptor(name)
                target.register(descriptor)
                by_name[name] = descriptor
            for key, data in entries.items():
                if data == TOMBSTONE:
                    target.delete(descriptor, key)
                else:
                    target.put(descriptor, key, descriptor.serde.deserialize(data))
                applied += 1
    return applied
