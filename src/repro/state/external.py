"""Externally-managed state: a remote key-value store shared across tasks.

Survey §3.1 splits state management into internally-managed [Flink, Samza,
SEEP] and externally-managed [MillWheel/Bigtable, S-Store, Faster]. This
backend models the external side: every access pays a network round-trip of
virtual time, but the store outlives any task, so recovery needs no state
restore (E4) and rescaling needs no migration.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.state.api import KeyedStateBackend, StateDescriptor
from repro.state.memory import InMemoryStateBackend


class RemoteStore:
    """The shared server side: one per job (or per deployment).

    Durability model: fail-stop tasks never lose it; it is the MillWheel
    "state lives in Bigtable" architecture.
    """

    def __init__(self, read_latency: float = 1e-3, write_latency: float = 1e-3) -> None:
        self.read_latency = read_latency
        self.write_latency = write_latency
        self._tables: dict[str, dict[Any, Any]] = {}
        self.total_reads = 0
        self.total_writes = 0
        #: optional transient-failure injector: ``fault_hook(op)`` is called
        #: before each operation ("get"/"put"/"delete"/"keys") and may raise
        #: :class:`~repro.errors.TransientFault` to simulate a timeout or
        #: throttle (see ``repro.supervision.retry.ScriptedOutage``). None on
        #: the production path.
        self.fault_hook: Callable[[str], None] | None = None

    def _maybe_fault(self, op: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op)

    def get(self, table: str, key: Any) -> Any:
        """Server-side read."""
        self._maybe_fault("get")
        self.total_reads += 1
        return self._tables.get(table, {}).get(key)

    def put(self, table: str, key: Any, value: Any) -> None:
        """Server-side write."""
        self._maybe_fault("put")
        self.total_writes += 1
        self._tables.setdefault(table, {})[key] = value

    def delete(self, table: str, key: Any) -> None:
        """Server-side delete."""
        self._maybe_fault("delete")
        self.total_writes += 1
        self._tables.get(table, {}).pop(key, None)

    def keys(self, table: str) -> list[Any]:
        """All keys in a table."""
        self._maybe_fault("keys")
        return list(self._tables.get(table, {}).keys())

    def table_names(self) -> list[str]:
        """All table names."""
        return list(self._tables.keys())


class ExternalStateBackend(KeyedStateBackend):
    """Per-task client view of a :class:`RemoteStore`.

    Multiple task incarnations (or multiple tasks, for shared mutable state
    experiments) may point at the same store; the backend itself is
    stateless apart from the descriptor registry, which is what makes
    failure recovery trivial and is charged for with per-access latency.
    """

    survives_task_failure = True

    def __init__(self, store: RemoteStore, namespace: str = "") -> None:
        super().__init__()
        self._store = store
        self._namespace = namespace
        self._descriptors: dict[str, StateDescriptor] = {}
        self.read_latency = store.read_latency
        self.write_latency = store.write_latency

    def _table(self, descriptor: StateDescriptor) -> str:
        return f"{self._namespace}/{descriptor.name}" if self._namespace else descriptor.name

    def register(self, descriptor: StateDescriptor) -> None:
        self._descriptors.setdefault(descriptor.name, descriptor)

    def get(self, descriptor: StateDescriptor, key: Any) -> Any:
        self.register(descriptor)
        self.stats.reads += 1
        return self._store.get(self._table(descriptor), key)

    def put(self, descriptor: StateDescriptor, key: Any, value: Any) -> None:
        self.register(descriptor)
        self.stats.writes += 1
        if self.changes is not None:
            self.changes[(descriptor.name, key)] = True
        self._store.put(self._table(descriptor), key, value)

    def delete(self, descriptor: StateDescriptor, key: Any) -> None:
        self.register(descriptor)
        self.stats.writes += 1
        if self.changes is not None:
            self.changes[(descriptor.name, key)] = False
        self._store.delete(self._table(descriptor), key)

    def keys(self, descriptor: StateDescriptor) -> Iterator[Any]:
        self.register(descriptor)
        return iter(self._store.keys(self._table(descriptor)))

    def descriptors(self) -> list[StateDescriptor]:
        return list(self._descriptors.values())

    # External state needs no snapshot: it survives the task. Returning an
    # empty snapshot (and ignoring restores) models that directly.
    def snapshot(self) -> dict[str, dict[Any, bytes]]:
        return {}

    def restore(self, snapshot: dict[str, dict[Any, bytes]]) -> None:
        if snapshot:
            # A snapshot taken by an internal backend can still be loaded
            # into the store (migration between management styles).
            by_name = {d.name: d for d in self.descriptors()}
            for name, entries in snapshot.items():
                descriptor = by_name.get(name, StateDescriptor(name))
                self.register(descriptor)
                for key, data in entries.items():
                    self._store.put(self._table(descriptor), key, descriptor.serde.deserialize(data))


class PersistentMemoryBackend(InMemoryStateBackend):
    """NVRAM-style backend (§4.2 hardware): memory-speed reads, slightly
    slower persistent writes, and — crucially — contents survive task
    failure without any checkpoint/restore cycle (E15).

    The "device" is this object (module-level storage keyed by backend
    identity would defeat determinism): the recovery path re-attaches the
    same backend object to the new task. A full snapshot reads the device
    entry by entry, each read charged like any other.
    """

    survives_task_failure = True
    snapshot = KeyedStateBackend.snapshot

    def __init__(self, read_latency: float = 0.2e-6, write_latency: float = 1e-6) -> None:
        super().__init__()
        self.read_latency = read_latency
        self.write_latency = write_latency
