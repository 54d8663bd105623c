"""Changelog-based state: every mutation appended to a durable log.

This models Kafka Streams / Samza-style state durability (survey §3.1):
instead of periodic full snapshots, each write is logged to an external
compacted log; recovery replays the log (optionally from a materialized
checkpoint offset), so recovery time scales with the *delta* since the last
materialization rather than with total state size (experiment E5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.state.api import KeyedStateBackend, StateDescriptor


@dataclass(frozen=True)
class ChangelogEntry:
    offset: int
    op: str  # "put" | "delete"
    descriptor_name: str
    key: Any
    payload: bytes | None


class Changelog:
    """A durable, append-only, compactable log (the Kafka topic stand-in)."""

    def __init__(self) -> None:
        self._entries: list[ChangelogEntry] = []
        self._next_offset = 0

    def append(self, op: str, descriptor_name: str, key: Any, payload: bytes | None) -> int:
        """Log one mutation; returns its offset."""
        entry = ChangelogEntry(self._next_offset, op, descriptor_name, key, payload)
        self._entries.append(entry)
        self._next_offset += 1
        return entry.offset

    def read_from(self, offset: int) -> Iterator[ChangelogEntry]:
        """Iterate entries at or after ``offset``."""
        for entry in self._entries:
            if entry.offset >= offset:
                yield entry

    def compact(self) -> int:
        """Keep only the latest entry per (descriptor, key); returns entries
        removed. Offsets are preserved so readers stay valid."""
        latest: dict[tuple[str, str], ChangelogEntry] = {}
        for entry in self._entries:
            latest[(entry.descriptor_name, repr(entry.key))] = entry
        removed = len(self._entries) - len(latest)
        self._entries = sorted(latest.values(), key=lambda e: e.offset)
        return removed

    @property
    def end_offset(self) -> int:
        return self._next_offset

    def __len__(self) -> int:
        return len(self._entries)


class ChangelogStateBackend(KeyedStateBackend):
    """Wraps an inner backend, mirroring every mutation to a changelog.

    Recovery contract: build a fresh inner backend and call
    :meth:`restore_from_log`. If a materialized snapshot + offset pair is
    available, restore the snapshot first and replay only the tail.
    """

    def __init__(self, inner: KeyedStateBackend, changelog: Changelog, write_latency: float | None = None) -> None:
        super().__init__()
        self._inner = inner
        self.changelog = changelog
        self.read_latency = inner.read_latency
        # Appends to the log ride on the write path; by default we model the
        # log as asynchronously batched, adding a small constant.
        self.write_latency = inner.write_latency + (write_latency if write_latency is not None else 5e-6)
        self.survives_task_failure = False  # the *backend* dies; the log survives

    def register(self, descriptor: StateDescriptor) -> None:
        self._inner.register(descriptor)

    def get(self, descriptor: StateDescriptor, key: Any) -> Any:
        self.stats.reads += 1
        return self._inner.get(descriptor, key)

    def put(self, descriptor: StateDescriptor, key: Any, value: Any) -> None:
        self.stats.writes += 1
        self._inner.put(descriptor, key, value)
        self.changelog.append("put", descriptor.name, key, descriptor.serde.serialize(value))

    def delete(self, descriptor: StateDescriptor, key: Any) -> None:
        self.stats.writes += 1
        self._inner.delete(descriptor, key)
        self.changelog.append("delete", descriptor.name, key, None)

    def keys(self, descriptor: StateDescriptor) -> Iterator[Any]:
        return self._inner.keys(descriptor)

    def descriptors(self) -> list[StateDescriptor]:
        return self._inner.descriptors()

    def snapshot(self) -> dict[str, dict[Any, bytes]]:
        """Delegate snapshots to the inner backend (the log is the backup)."""
        return self._inner.snapshot()

    # Every write reaches the inner backend: its change record and its
    # captures are this backend's.
    def track_changes(self, snapshotter: Any) -> None:
        self._inner.track_changes(snapshotter)
        self.snapshotter, self.changes = snapshotter, self._inner.changes

    def capture_all(self) -> dict[str, dict[Any, bytes]]:
        return self._inner.capture_all()

    def capture_changes(self) -> dict[str, dict[Any, bytes]]:
        return self._inner.capture_changes()

    def restore(self, snapshot: dict[str, dict[Any, bytes]]) -> None:
        """Replace inner state with a snapshot (no changelog writes)."""
        self._inner.restore(snapshot)

    def merge(self, snapshot: dict[str, dict[Any, bytes]]) -> None:
        """Load entries into live inner state (no changelog writes)."""
        self._inner.merge(snapshot)

    def total_entries(self) -> int:
        """Inner backend's live entry count (incremental accounting)."""
        return self._inner.total_entries()

    def snapshot_bytes(self) -> int:
        """Inner backend's serialized snapshot volume."""
        return self._inner.snapshot_bytes()

    def restore_from_log(self, from_offset: int = 0) -> int:
        """Replay the changelog into the inner backend; returns the number of
        entries replayed (the recovery-cost driver in E5)."""
        by_name = {d.name: d for d in self._inner.descriptors()}
        replayed = 0
        for entry in self.changelog.read_from(from_offset):
            descriptor = by_name.get(entry.descriptor_name)
            if descriptor is None:
                descriptor = StateDescriptor(entry.descriptor_name)
                self._inner.register(descriptor)
                by_name[entry.descriptor_name] = descriptor
            if entry.op == "put":
                self._inner.put(descriptor, entry.key, descriptor.serde.deserialize(entry.payload))
            else:
                self._inner.delete(descriptor, entry.key)
            replayed += 1
        return replayed
