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


class ValueState:
    """Single value per key."""

    def __init__(self, backend: "KeyedStateBackend", descriptor: ValueStateDescriptor, key: Any) -> None:
        self._backend = backend
        self._descriptor = descriptor
        self._key = key

    def value(self) -> Any:
        """Current value, or the descriptor default when unset."""
        stored = self._backend.get(self._descriptor, self._key)
        if stored is None:
            return getattr(self._descriptor, "default", None)
        return stored

    def update(self, value: Any) -> None:
        """Replace the value."""
        self._backend.put(self._descriptor, self._key, value)

    def clear(self) -> None:
        """Delete the value."""
        self._backend.delete(self._descriptor, self._key)


class ListState:
    """Append-oriented list per key (window buffers, join buffers)."""

    def __init__(self, backend: "KeyedStateBackend", descriptor: ListStateDescriptor, key: Any) -> None:
        self._backend = backend
        self._descriptor = descriptor
        self._key = key

    def get(self) -> list[Any]:
        """The stored list (empty when unset)."""
        return self._backend.get(self._descriptor, self._key) or []

    def add(self, value: Any) -> None:
        """Append one element."""
        current = self._backend.get(self._descriptor, self._key)
        if current is None:
            current = []
        current.append(value)
        self._backend.put(self._descriptor, self._key, current)

    def update(self, values: list[Any]) -> None:
        """Replace the whole list."""
        self._backend.put(self._descriptor, self._key, list(values))

    def clear(self) -> None:
        """Delete the list."""
        self._backend.delete(self._descriptor, self._key)


class MapState:
    """Nested map per key (per-window panes, per-entity attributes)."""

    def __init__(self, backend: "KeyedStateBackend", descriptor: MapStateDescriptor, key: Any) -> None:
        self._backend = backend
        self._descriptor = descriptor
        self._key = key

    def _map(self) -> dict:
        return self._backend.get(self._descriptor, self._key) or {}

    def get(self, map_key: Any, default: Any = None) -> Any:
        """Value for ``map_key`` (or ``default``)."""
        return self._map().get(map_key, default)

    def put(self, map_key: Any, value: Any) -> None:
        """Set ``map_key`` to ``value``."""
        current = self._map()
        current[map_key] = value
        self._backend.put(self._descriptor, self._key, current)

    def remove(self, map_key: Any) -> None:
        """Delete ``map_key`` (dropping the map when it empties)."""
        current = self._map()
        current.pop(map_key, None)
        if current:
            self._backend.put(self._descriptor, self._key, current)
        else:
            self._backend.delete(self._descriptor, self._key)

    def contains(self, map_key: Any) -> bool:
        """Whether ``map_key`` is present."""
        return map_key in self._map()

    def items(self) -> list[tuple[Any, Any]]:
        """All (map_key, value) pairs."""
        return list(self._map().items())

    def keys(self) -> list[Any]:
        """All map keys."""
        return list(self._map().keys())

    def is_empty(self) -> bool:
        """Whether the map holds no entries."""
        return not self._map()

    def clear(self) -> None:
        """Delete the whole map."""
        self._backend.delete(self._descriptor, self._key)


class ReducingState:
    """Pre-aggregated value per key: ``add`` folds through the reduce fn."""

    def __init__(self, backend: "KeyedStateBackend", descriptor: ReducingStateDescriptor, key: Any) -> None:
        if descriptor.reduce_fn is None:
            raise StateError(f"reducing state {descriptor.name!r} lacks a reduce_fn")
        self._backend = backend
        self._descriptor = descriptor
        self._key = key

    def get(self) -> Any:
        """Current pre-aggregated value (None when unset)."""
        return self._backend.get(self._descriptor, self._key)

    def add(self, value: Any) -> None:
        """Fold one value through the descriptor's reduce function."""
        current = self._backend.get(self._descriptor, self._key)
        merged = value if current is None else self._descriptor.reduce_fn(current, value)
        self._backend.put(self._descriptor, self._key, merged)

    def clear(self) -> None:
        """Delete the aggregate."""
        self._backend.delete(self._descriptor, self._key)


_HANDLE_TYPES = {
    "value": ValueState,
    "list": ListState,
    "map": MapState,
    "reducing": ReducingState,
}


@dataclass
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
        handle_type = _HANDLE_TYPES.get(descriptor.kind)
        if handle_type is None:
            raise StateError(f"unknown state kind {descriptor.kind!r}")
        return handle_type(self, descriptor, key)

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
