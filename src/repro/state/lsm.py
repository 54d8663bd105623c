"""Log-structured merge-tree state backend.

The survey (§3.1) names log-structured merge trees as the data structure
behind modern large-state backends (RocksDB under Flink, Faster-style
stores). This is a real LSM implementation — memtable, immutable sorted
runs, tombstones, size-tiered compaction — kept in memory so benchmarks are
deterministic, with virtual read/write latencies reflecting that the tree
spills beyond RAM.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.state.api import KeyedStateBackend, StateDescriptor

_TOMBSTONE = object()


class SSTable:
    """An immutable sorted run of (composite_key, value) pairs."""

    def __init__(self, items: list[tuple[str, Any]]) -> None:
        # items must arrive sorted by key
        self._keys = [k for k, _ in items]
        self._values = [v for _, v in items]

    def get(self, key: str) -> Any:
        """Return the stored value, ``_TOMBSTONE``, or None if absent."""
        idx = bisect.bisect_left(self._keys, key)
        if idx < len(self._keys) and self._keys[idx] == key:
            return self._values[idx]
        return None

    def items(self) -> Iterator[tuple[str, Any]]:
        """Iterate (composite_key, value) pairs in key order."""
        return iter(zip(self._keys, self._values))

    def __len__(self) -> int:
        return len(self._keys)


def merge_runs(runs: list[SSTable]) -> SSTable:
    """Merge sorted runs, newest first, dropping shadowed entries and
    collapsing tombstones (full-compaction semantics)."""
    merged: dict[str, Any] = {}
    # Iterate oldest → newest so newer entries overwrite older ones.
    for run in reversed(runs):
        for key, value in run.items():
            merged[key] = value
    live = sorted((k, v) for k, v in merged.items() if v is not _TOMBSTONE)
    return SSTable(live)


class LSMStateBackend(KeyedStateBackend):
    """Size-tiered LSM tree over composite keys ``descriptor/key-repr``.

    Args:
        memtable_limit: entries before the memtable is flushed to a run.
        compaction_fanout: number of runs that triggers a compaction.
        read_latency / write_latency: virtual seconds charged per access by
            the runtime cost model (defaults model an on-SSD tree: reads
            slower than memory, writes cheap because they hit the memtable).
    """

    survives_task_failure = False

    def __init__(
        self,
        memtable_limit: int = 1024,
        compaction_fanout: int = 4,
        read_latency: float = 20e-6,
        write_latency: float = 2e-6,
    ) -> None:
        super().__init__()
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._memtable_limit = memtable_limit
        self._fanout = compaction_fanout
        self._memtable: dict[str, Any] = {}
        self._runs: list[SSTable] = []  # newest first
        self._descriptors: dict[str, StateDescriptor] = {}
        self._key_index: dict[str, dict[str, Any]] = {}  # name -> composite -> key
        self.flushes = 0
        self.compactions = 0
        # incremental sizing accounting: name -> composite -> cached
        # serialized size (_DIRTY_SIZE until the next sizing query), kept in
        # lock-step with put/delete so entry counts are O(1) and sizing
        # queries are O(entries written since the last query)
        self._live_sizes: dict[str, dict[str, int]] = {}
        self._size_dirty: set[tuple[str, str]] = set()
        self._entry_count = 0
        self._size_total = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _composite(descriptor: StateDescriptor, key: Any) -> str:
        return f"{descriptor.name}\x00{key!r}"

    def register(self, descriptor: StateDescriptor) -> None:
        self._descriptors.setdefault(descriptor.name, descriptor)
        self._key_index.setdefault(descriptor.name, {})
        self._live_sizes.setdefault(descriptor.name, {})

    def _flush_memtable(self) -> None:
        items = sorted(self._memtable.items())
        self._runs.insert(0, SSTable(items))
        self._memtable = {}
        self.flushes += 1
        if len(self._runs) >= self._fanout:
            self._runs = [merge_runs(self._runs)]
            self.compactions += 1

    # ------------------------------------------------------------------
    def get(self, descriptor: StateDescriptor, key: Any) -> Any:
        self.register(descriptor)
        self.stats.reads += 1
        composite = self._composite(descriptor, key)
        if composite in self._memtable:
            value = self._memtable[composite]
            return None if value is _TOMBSTONE else value
        for run in self._runs:
            value = run.get(composite)
            if value is not None:
                return None if value is _TOMBSTONE else value
        return None

    #: cached-size sentinel: entry rewritten since the last sizing query
    _DIRTY_SIZE = -1

    def put(self, descriptor: StateDescriptor, key: Any, value: Any) -> None:
        self.register(descriptor)
        self.stats.writes += 1
        composite = self._composite(descriptor, key)
        sizes = self._live_sizes[descriptor.name]
        cached = sizes.get(composite)
        if cached is None:
            self._entry_count += 1
        elif cached >= 0:
            self._size_total -= cached
        sizes[composite] = self._DIRTY_SIZE
        self._size_dirty.add((descriptor.name, composite))
        if self.changes is not None:
            self.changes[(descriptor.name, key)] = True
        self._memtable[composite] = value
        self._key_index[descriptor.name][composite] = key
        if len(self._memtable) >= self._memtable_limit:
            self._flush_memtable()

    def delete(self, descriptor: StateDescriptor, key: Any) -> None:
        self.register(descriptor)
        self.stats.writes += 1
        composite = self._composite(descriptor, key)
        sizes = self._live_sizes[descriptor.name]
        cached = sizes.pop(composite, None)
        if cached is not None:
            self._entry_count -= 1
            if cached >= 0:
                self._size_total -= cached
            self._size_dirty.discard((descriptor.name, composite))
        if self.changes is not None:
            self.changes[(descriptor.name, key)] = False
        self._memtable[composite] = _TOMBSTONE
        if len(self._memtable) >= self._memtable_limit:
            self._flush_memtable()

    def keys(self, descriptor: StateDescriptor) -> Iterator[Any]:
        self.register(descriptor)
        for composite, key in list(self._key_index[descriptor.name].items()):
            if self.contains(descriptor, key):
                yield key

    def contains(self, descriptor: StateDescriptor, key: Any) -> bool:
        """Whether a live (non-tombstoned) value exists for the key."""
        composite = self._composite(descriptor, key)
        if composite in self._memtable:
            return self._memtable[composite] is not _TOMBSTONE
        for run in self._runs:
            value = run.get(composite)
            if value is not None:
                return value is not _TOMBSTONE
        return False

    def descriptors(self) -> list[StateDescriptor]:
        return list(self._descriptors.values())

    def snapshot(self) -> dict[str, dict[Any, bytes]]:
        """Full snapshot via stats-free reads: checkpoint capture must not
        perturb the access stats the task cost model charges for."""
        out: dict[str, dict[Any, bytes]] = {}
        for descriptor in self.descriptors():
            name = descriptor.name
            entries = {}
            for composite, key in list(self._key_index[name].items()):
                value = self._lookup(composite)
                if value is not None:
                    entries[key] = descriptor.serde.serialize(value)
            out[name] = entries
        return out

    # --- incremental sizing ------------------------------------------------
    def _lookup(self, composite: str) -> Any:
        """Read a composite key without touching access stats (sizing path)."""
        if composite in self._memtable:
            value = self._memtable[composite]
            return None if value is _TOMBSTONE else value
        for run in self._runs:
            value = run.get(composite)
            if value is not None:
                return None if value is _TOMBSTONE else value
        return None

    def _flush_sizes(self) -> None:
        """Re-serialize entries rewritten since the last sizing query."""
        if not self._size_dirty:
            return
        for name, composite in self._size_dirty:
            sizes = self._live_sizes[name]
            if sizes.get(composite) != self._DIRTY_SIZE:
                continue  # deleted since it was marked
            value = self._lookup(composite)
            size = 0 if value is None else len(self._descriptors[name].serde.serialize(value))
            sizes[composite] = size
            self._size_total += size
        self._size_dirty.clear()

    def total_entries(self) -> int:
        """Live (descriptor, key) pairs, from O(1) incremental accounting."""
        return self._entry_count

    def snapshot_bytes(self) -> int:
        """Serialized snapshot volume from the incremental size cache: only
        entries written since the previous call are re-serialized."""
        self._flush_sizes()
        return self._size_total

    # ------------------------------------------------------------------
    @property
    def run_count(self) -> int:
        return len(self._runs)

    @property
    def memtable_size(self) -> int:
        return len(self._memtable)

    def force_compaction(self) -> None:
        """Flush + full compaction (used before measuring read paths)."""
        if self._memtable:
            self._flush_memtable()
        if len(self._runs) > 1:
            self._runs = [merge_runs(self._runs)]
            self.compactions += 1
