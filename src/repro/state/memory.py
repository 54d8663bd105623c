"""Heap (in-memory) state backend — the "internally managed" fast path.

Survey §3.1: internally managed state lives with the task, giving the lowest
access latency but dying with it on failure (hence checkpoints, E5). TTL
support implements the state-expiration policies the tutorial lists among
state-management aspects.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.state.api import TOMBSTONE, KeyedStateBackend, StateDescriptor


class InMemoryStateBackend(KeyedStateBackend):
    """Nested-dict storage: descriptor name → key → value.

    Optionally time-aware: pass a ``clock`` callable to enforce descriptor
    TTLs lazily on read (expired entries are dropped when touched, the same
    lazy policy RocksDB-backed engines use).

    Sizing is maintained incrementally: writes mark entries in the change
    record in O(1) and :meth:`snapshot_bytes` re-serializes only entries
    written since they were last sized, so repeated sizing queries on the
    checkpoint path are O(churn), not O(state). Until a capture chain is
    attached the record serves sizing alone.
    """

    read_latency = 0.0
    write_latency = 0.0
    survives_task_failure = False

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        super().__init__()
        self._clock = clock
        self._data: dict[str, dict[Any, Any]] = {}
        self._write_times: dict[str, dict[Any, float]] = {}
        self._descriptors: dict[str, StateDescriptor] = {}
        # incremental sizing accounting (satellite of E5's cost model):
        # entry count is exact; serialized sizes are cached per entry and
        # computed lazily for entries written since they were last sized
        self._entry_count = 0
        self._size_total = 0
        self._sizes: dict[str, dict[Any, int]] = {}
        self.changes = {}
        self._has_ttl = False

    def register(self, descriptor: StateDescriptor) -> None:
        """Declare ``descriptor``. Every access declares lazily, but only
        the first under a name gets here: for a later one the lines below
        are no-ops, bar the TTL flag — and the sweeps that flag turns on
        walk the registered descriptors, which a later one never joins."""
        self._descriptors.setdefault(descriptor.name, descriptor)
        self._data.setdefault(descriptor.name, {})
        self._write_times.setdefault(descriptor.name, {})
        self._sizes.setdefault(descriptor.name, {})
        if descriptor.ttl is not None:
            self._has_ttl = True

    def _expired(self, descriptor: StateDescriptor, key: Any) -> bool:
        if descriptor.ttl is None or self._clock is None:
            return False
        written = self._write_times.get(descriptor.name, {}).get(key)
        if written is None:
            return False
        return self._clock() - written > descriptor.ttl

    def _expire(self, descriptor: StateDescriptor, key: Any) -> None:
        """Drop an expired entry: a delete the cost model does not charge.
        It reaches the change record as a delete, so the next delta capture
        ships its tombstone."""
        self.delete(descriptor, key)
        self.stats.writes -= 1

    def get(self, descriptor: StateDescriptor, key: Any) -> Any:
        if descriptor.name not in self._data:
            self.register(descriptor)
        self.stats.reads += 1
        if descriptor.ttl is not None and self._expired(descriptor, key):
            self._expire(descriptor, key)
            return None
        return self._data[descriptor.name].get(key)

    def put(self, descriptor: StateDescriptor, key: Any, value: Any) -> None:
        name = descriptor.name
        if name not in self._data:
            self.register(descriptor)
        data = self._data[name]
        self.stats.writes += 1
        if key in data:
            self._size_total -= self._sizes[name].pop(key, 0)
        else:
            self._entry_count += 1
        self.changes[(name, key)] = True
        data[key] = value
        if self._clock is not None:
            self._write_times[name][key] = self._clock()

    def delete(self, descriptor: StateDescriptor, key: Any) -> None:
        name = descriptor.name
        if name not in self._data:
            self.register(descriptor)
        data = self._data[name]
        self.stats.writes += 1
        if key in data:
            del data[key]
            self._entry_count -= 1
            self._size_total -= self._sizes[name].pop(key, 0)
        if self._clock is not None:
            self._write_times[name].pop(key, None)
        if self.snapshotter is None:
            self.changes.pop((name, key), None)
        else:
            self.changes[(name, key)] = False

    def keys(self, descriptor: StateDescriptor) -> Iterator[Any]:
        if descriptor.name not in self._data:
            self.register(descriptor)
        for key in list(self._data[descriptor.name].keys()):
            if descriptor.ttl is not None and self._expired(descriptor, key):
                self._expire(descriptor, key)
            else:
                yield key

    def descriptors(self) -> list[StateDescriptor]:
        return list(self._descriptors.values())

    def snapshot(self) -> dict[str, dict[Any, bytes]]:
        """Full snapshot via direct reads: checkpoint capture must not
        perturb the access stats the task cost model charges for."""
        out: dict[str, dict[Any, bytes]] = {}
        for descriptor in self.descriptors():
            name = descriptor.name
            entries = {}
            for key in list(self._data[name].keys()):
                if descriptor.ttl is not None and self._expired(descriptor, key):
                    self._expire(descriptor, key)
                    continue
                value = self._data[name].get(key)
                if value is not None:
                    entries[key] = descriptor.serde.serialize(value)
            out[name] = entries
        return out

    def sweep_expired(self) -> int:
        """Eagerly drop all expired entries; returns the count removed."""
        if not self._has_ttl or self._clock is None:
            return 0
        removed = 0
        for descriptor in self.descriptors():
            for key in list(self._data[descriptor.name].keys()):
                if self._expired(descriptor, key):
                    self._expire(descriptor, key)
                    removed += 1
        return removed

    def capture_changes(self) -> dict[str, dict[Any, bytes]]:
        """Delta capture by direct dict reads (no access counted, no backend
        call per entry); each entry serialized here is sized from its bytes."""
        self.sweep_expired()
        entries: dict[str, dict[Any, bytes]] = {}
        for (name, key), written in self.changes.items():
            data = TOMBSTONE
            if written:
                value = self._data[name].get(key)
                if value is None:
                    continue
                data = self._descriptors[name].serde.serialize(value)
                sizes = self._sizes[name]
                self._size_total += len(data) - sizes.get(key, 0)
                sizes[key] = len(data)
            entries.setdefault(name, {})[key] = data
        self.changes.clear()
        return entries

    # --- incremental sizing ------------------------------------------------
    def _flush_sizes(self, serialized: dict[str, dict[Any, bytes]] | None = None) -> None:
        """Size entries written since they were last sized (O(churn)), from
        ``serialized`` where a capture already holds their bytes."""
        self.sweep_expired()
        changes = self.changes
        if not changes:
            return
        nothing: dict[Any, bytes] = {}
        for (name, key), written in changes.items():
            sizes = self._sizes[name]
            if not written or key in sizes:
                continue  # deleted, or sized since its last write
            value = self._data[name].get(key)
            if value is None:
                continue
            data = serialized.get(name, nothing).get(key) if serialized else None
            if data is None:
                data = self._descriptors[name].serde.serialize(value)
            sizes[key] = size = len(data)
            self._size_total += size
        if self.snapshotter is None:
            changes.clear()  # the record serves sizing alone

    def note_serialized(self, entries: dict[str, dict[Any, bytes]]) -> None:
        """A capture's bytes are the sizing query's too: flush the size
        cache from them now, so the :meth:`snapshot_bytes` that follows a
        capture serializes nothing a second time."""
        self._flush_sizes(entries)

    def total_entries(self) -> int:
        """Live (descriptor, key) pairs, from O(1) incremental accounting."""
        self.sweep_expired()
        return self._entry_count

    def snapshot_bytes(self) -> int:
        """Serialized snapshot volume from the incremental size cache: only
        entries written since they were last sized are re-serialized."""
        self._flush_sizes()
        return self._size_total
