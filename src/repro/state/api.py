"""Keyed state API: descriptors, handles, and the backend contract.

This is the survey's §3.1 made concrete: state is a first-class, explicitly
managed citizen. Operators declare *descriptors* (name + type + default) and
access per-key *handles* through their context; where the bytes actually
live — heap dict, LSM tree, external store, persistent memory — is a backend
choice invisible to operator code, which is exactly what makes
internally-vs-externally-managed state (E4) a fair experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.serde import DEFAULT_SERDE, Serde
from repro.errors import StateError


@dataclass(frozen=True)
class StateDescriptor:
    """Identity and typing of a piece of keyed state."""

    name: str
    serde: Serde = field(default=DEFAULT_SERDE, compare=False)
    ttl: float | None = field(default=None, compare=False)
    schema_version: int = field(default=1, compare=False)

    kind = "value"


@dataclass(frozen=True)
class ValueStateDescriptor(StateDescriptor):
    default: Any = field(default=None, compare=False)
    kind = "value"


@dataclass(frozen=True)
class ListStateDescriptor(StateDescriptor):
    kind = "list"


@dataclass(frozen=True)
class MapStateDescriptor(StateDescriptor):
    kind = "map"


@dataclass(frozen=True)
class ReducingStateDescriptor(StateDescriptor):
    reduce_fn: Callable[[Any, Any], Any] = field(default=None, compare=False)
    kind = "reducing"


#: what a delete ships in an incremental capture (a tombstone entry)
TOMBSTONE = b"\x00__deleted__"

_new_handle = tuple.__new__


class _Handle(tuple):
    """A typed state handle: one immutable ``(backend, descriptor, key)``
    row, built in one ``tuple.__new__`` call like
    :class:`~repro.core.events.Record`. An access is the handle's frame and
    then the backend's: ``self[0].get(self[1], self[2])``."""

    __slots__ = ()

    def clear(self) -> None:
        """Delete the key's state."""
        self[0].delete(self[1], self[2])


class ValueState(_Handle):
    """Single value per key."""

    __slots__ = ()

    def value(self) -> Any:
        """Current value, or the descriptor default when unset."""
        stored = self[0].get(self[1], self[2])
        if stored is None:
            return getattr(self[1], "default", None)
        return stored

    def update(self, value: Any) -> None:
        """Replace the value."""
        self[0].put(self[1], self[2], value)


class ListState(_Handle):
    """Append-oriented list per key (window buffers, join buffers)."""

    __slots__ = ()

    def get(self) -> list[Any]:
        """The stored list (empty when unset)."""
        return self[0].get(self[1], self[2]) or []

    def add(self, value: Any) -> None:
        """Append one element."""
        current = self[0].get(self[1], self[2])
        if current is None:
            current = []
        current.append(value)
        self[0].put(self[1], self[2], current)

    def update(self, values: list[Any]) -> None:
        """Replace the whole list."""
        self[0].put(self[1], self[2], list(values))


class MapState(_Handle):
    """Nested map per key (per-window panes, per-entity attributes)."""

    __slots__ = ()

    def get(self, map_key: Any, default: Any = None) -> Any:
        """Value for ``map_key`` (or ``default``)."""
        return (self[0].get(self[1], self[2]) or {}).get(map_key, default)

    def put(self, map_key: Any, value: Any) -> None:
        """Set ``map_key`` to ``value``."""
        backend, descriptor, key = self
        current = backend.get(descriptor, key) or {}
        current[map_key] = value
        backend.put(descriptor, key, current)

    def remove(self, map_key: Any) -> None:
        """Delete ``map_key`` (dropping the map when it empties)."""
        backend, descriptor, key = self
        current = backend.get(descriptor, key) or {}
        current.pop(map_key, None)
        if current:
            backend.put(descriptor, key, current)
        else:
            backend.delete(descriptor, key)

    def contains(self, map_key: Any) -> bool:
        """Whether ``map_key`` is present."""
        return map_key in (self[0].get(self[1], self[2]) or {})

    def items(self) -> list[tuple[Any, Any]]:
        """All (map_key, value) pairs."""
        return list((self[0].get(self[1], self[2]) or {}).items())

    def keys(self) -> list[Any]:
        """All map keys."""
        return list(self[0].get(self[1], self[2]) or ())

    def is_empty(self) -> bool:
        """Whether the map holds no entries."""
        return not self[0].get(self[1], self[2])


class ReducingState(_Handle):
    """Pre-aggregated value per key: ``add`` folds through the reduce fn."""

    __slots__ = ()

    def get(self) -> Any:
        """Current pre-aggregated value (None when unset)."""
        return self[0].get(self[1], self[2])

    def add(self, value: Any) -> None:
        """Fold one value through the descriptor's reduce function."""
        backend, descriptor, key = self
        current = backend.get(descriptor, key)
        merged = value if current is None else descriptor.reduce_fn(current, value)
        backend.put(descriptor, key, merged)


#: handle class per descriptor kind
HANDLE_TYPES = {
    "value": ValueState,
    "list": ListState,
    "map": MapState,
    "reducing": ReducingState,
}


@dataclass(slots=True)
class AccessStats:
    """Cumulative backend access counters; the runtime diffs these around
    each element to charge virtual state-access latency (E4)."""

    reads: int = 0
    writes: int = 0


class KeyedStateBackend:
    """Storage contract: (descriptor, key) → value, plus snapshot/restore.

    Subclasses provide the physical layout. All values crossing the snapshot
    boundary go through the descriptor's serde, so restored state never
    aliases live objects.
    """

    #: virtual seconds charged per read / write by the runtime cost model
    read_latency: float = 0.0
    write_latency: float = 0.0
    #: whether state survives the loss of the owning task (external storage)
    survives_task_failure: bool = False
    #: the incremental capture chain attached by :meth:`track_changes`
    snapshotter: Any = None
    #: while a chain is attached: ``(descriptor name, key)`` → True for a
    #: write, False for a delete, since the last capture
    changes: dict[tuple[str, Any], bool] | None = None

    def __init__(self) -> None:
        self.stats = AccessStats()

    # --- required primitive ops ----------------------------------------
    def get(self, descriptor: StateDescriptor, key: Any) -> Any:
        """Read the value stored for (descriptor, key)."""
        raise NotImplementedError

    def put(self, descriptor: StateDescriptor, key: Any, value: Any) -> None:
        """Store a value for (descriptor, key)."""
        raise NotImplementedError

    def delete(self, descriptor: StateDescriptor, key: Any) -> None:
        """Remove the value for (descriptor, key)."""
        raise NotImplementedError

    def keys(self, descriptor: StateDescriptor) -> Iterator[Any]:
        """All keys with a value for ``descriptor`` (queryable state, tests)."""
        raise NotImplementedError

    def descriptors(self) -> list[StateDescriptor]:
        """All descriptors this backend has seen."""
        raise NotImplementedError

    # --- handles ---------------------------------------------------------
    def handle(self, descriptor: StateDescriptor, key: Any) -> Any:
        """Return the typed handle for ``descriptor`` bound to ``key``."""
        if key is None:
            raise StateError(
                f"keyed state {descriptor.name!r} accessed without a key; "
                "did you forget key_by()?"
            )
        handle_type = HANDLE_TYPES.get(descriptor.kind)
        if handle_type is None:
            raise StateError(f"unknown state kind {descriptor.kind!r}")
        if handle_type is ReducingState and descriptor.reduce_fn is None:
            raise StateError(f"reducing state {descriptor.name!r} lacks a reduce_fn")
        return _new_handle(handle_type, (self, descriptor, key))

    # --- snapshots -------------------------------------------------------
    def snapshot(self) -> dict[str, dict[Any, bytes]]:
        """Full snapshot: descriptor name → {key: serialized value}."""
        out: dict[str, dict[Any, bytes]] = {}
        for descriptor in self.descriptors():
            entries = {}
            for key in list(self.keys(descriptor)):
                value = self.get(descriptor, key)
                if value is not None:
                    entries[key] = descriptor.serde.serialize(value)
            out[descriptor.name] = entries
        return out

    def restore(self, snapshot: dict[str, dict[Any, bytes]]) -> None:
        """Load a snapshot produced by :meth:`snapshot`, replacing all state.

        Pre-existing entries are cleared first: restore means "become exactly
        the checkpointed state". On a reused backend (NVRAM-style storage
        that survives task failure, for example) a key written after the
        checkpoint must not survive into the restored state. Use
        :meth:`merge` to load entries *into* live state instead.
        """
        self.clear_all()
        self.merge(snapshot)

    def merge(self, snapshot: dict[str, dict[Any, bytes]]) -> None:
        """Load snapshot entries on top of live state without clearing.

        Live-migration uses this to move key groups into a destination
        backend that already owns other keys.
        """
        by_name = {d.name: d for d in self.descriptors()}
        for name, entries in snapshot.items():
            descriptor = by_name.get(name)
            if descriptor is None:
                # State for a descriptor this incarnation has not declared
                # yet; register lazily under a plain descriptor so nothing
                # is silently dropped.
                descriptor = StateDescriptor(name)
                self.register(descriptor)
            for key, data in entries.items():
                self.put(descriptor, key, descriptor.serde.deserialize(data))

    def register(self, descriptor: StateDescriptor) -> None:
        """Declare a descriptor ahead of first access (optional for most
        backends, required by schema-versioned restore paths)."""

    # --- sizing / migration ----------------------------------------------
    def total_entries(self) -> int:
        """Live (descriptor, key) pairs across all descriptors."""
        return sum(len(list(self.keys(d))) for d in self.descriptors())

    def snapshot_bytes(self) -> int:
        """Serialized size of a full snapshot."""
        return sum(
            len(data) for entries in self.snapshot().values() for data in entries.values()
        )

    def note_serialized(self, entries: dict[str, dict[Any, bytes]]) -> None:
        """A capture just serialized these live entries (descriptor name →
        key → bytes, the shape :meth:`snapshot` returns). Backends that
        cache entry sizes for :meth:`snapshot_bytes` take the lengths, so
        the sizing query that follows a capture does not serialize the same
        entries again; the default keeps no cache and ignores them."""

    # --- change tracking (incremental captures) ----------------------------
    def track_changes(self, snapshotter: Any) -> None:
        """Attach an incremental capture chain: from now on each write,
        delete and TTL expiry lands in :attr:`changes` as one container
        operation, and the chain's captures read that record."""
        self.snapshotter = snapshotter
        if self.changes is None:
            self.changes = {}

    def capture_all(self) -> dict[str, dict[Any, bytes]]:
        """Full snapshot for the attached chain; starts a new change record.
        A capture is not an access: reads :meth:`snapshot` counts go back."""
        reads = self.stats.reads
        entries = self.snapshot()
        self.stats.reads = reads
        self.note_serialized(entries)
        self.changes.clear()
        return entries

    def capture_changes(self) -> dict[str, dict[Any, bytes]]:
        """Serialize the change record and start a new one: descriptor name →
        key → the entry's bytes (left out if it holds no value by now), or
        :data:`TOMBSTONE` for a delete. Counts no access."""
        by_name = {d.name: d for d in self.descriptors()}
        reads = self.stats.reads
        entries: dict[str, dict[Any, bytes]] = {}
        for (name, key), written in self.changes.items():
            if not written:
                entries.setdefault(name, {})[key] = TOMBSTONE
                continue
            descriptor = by_name[name]
            value = self.get(descriptor, key)
            if value is not None:
                entries.setdefault(name, {})[key] = descriptor.serde.serialize(value)
        self.stats.reads = reads
        self.changes.clear()
        return entries

    def extract_keys(self, predicate: Callable[[Any], bool]) -> dict[str, dict[Any, bytes]]:
        """Remove and return all state for keys matching ``predicate``
        (live migration: the moving key groups are extracted here and
        restored on the destination task)."""
        out: dict[str, dict[Any, bytes]] = {}
        for descriptor in self.descriptors():
            moved = {}
            for key in list(self.keys(descriptor)):
                if predicate(key):
                    value = self.get(descriptor, key)
                    moved[key] = descriptor.serde.serialize(value)
                    self.delete(descriptor, key)
            if moved:
                out[descriptor.name] = moved
        return out

    def clear_all(self) -> None:
        """Drop every entry (task failure with volatile storage)."""
        for descriptor in self.descriptors():
            for key in list(self.keys(descriptor)):
                self.delete(descriptor, key)
