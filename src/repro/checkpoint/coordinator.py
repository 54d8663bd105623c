"""The checkpoint coordinator in one part (survey §3.1/§3.2: aligned
Chandy-Lamport snapshots as Flink coordinates them). It knows no kernel,
task or engine, so ``tests/checkpoint/test_coordinator_protocol.py`` drives
it on its own."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.checkpoint.incremental import (
    DeltaSnapshot,
    IncrementalSnapshotter,
    TaskChainStore,
    restore_chain,
)
from repro.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricRegistry
    from repro.runtime.config import CheckpointConfig
    from repro.runtime.task import TaskSnapshot
    from repro.state.api import KeyedStateBackend


@dataclass
class CheckpointRecord:
    checkpoint_id: int
    triggered_at: float
    snapshots: dict[str, "TaskSnapshot"] = field(default_factory=dict)
    completed_at: float | None = None

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    def total_bytes(self) -> int:
        """Snapshot volume across all tasks."""
        return sum(s.size_bytes() for s in self.snapshots.values())


class CheckpointCoordinator:
    """One job's checkpoint rounds and how each task captures for them. The
    engine feeds it triggers, aborts and restarts, tasks their captures and
    acks; waiting out a round's upload in virtual time it leaves to its
    ``persist`` hook.

    A round is *pending* from its trigger until every expected task acked
    it (one at a time: a trigger meanwhile is declined, the min-pause
    policy of real coordinators), then *persisting* until its upload ends,
    then *completed*. A pending round can be aborted by id or dropped (a
    task died); a restart drops it and dooms the rounds still persisting,
    as a newer round's completion dooms older ones. A doomed round is
    dropped when its upload ends. A dropped round leaves the table and is
    never restorable: the table is what a restore reads.

    In incremental mode it also owns the :class:`TaskChainStore`: backends
    get an :class:`IncrementalSnapshotter` as they are built, a capture is a
    chain link instead of a full dict, and a restore replays a chain.
    """

    def __init__(
        self,
        config: "CheckpointConfig | None",
        persist: Callable[[CheckpointRecord, float], None],
        registry: "MetricRegistry | None" = None,
        prefix: str = "",
    ) -> None:
        self.config = config
        #: called with a fully acked round and its upload's virtual seconds;
        #: answered by :meth:`persisted` once that time has passed
        self.persist = persist
        #: captures and uploads publish histograms under ``prefix`` here
        self.registry, self.prefix = registry, prefix
        #: every round still in the table, by id
        self.checkpoints: dict[int, CheckpointRecord] = {}
        #: completed round ids, in completion order
        self.completed: list[int] = []
        self.pending: CheckpointRecord | None = None
        self.next_id = 1
        #: acks the pending round waits for (tasks live at its trigger)
        self.expected = 0
        #: id -> False once doomed, for each round whose upload is running
        self._uploads: dict[int, bool] = {}
        self.store: TaskChainStore | None = None
        if config is not None and config.incremental:
            self.store = TaskChainStore(config.max_chain_length)

    # --- the round table ---------------------------------------------------
    def trigger(self, now: float, expected: int) -> CheckpointRecord | None:
        """Open a round awaiting ``expected`` acks; None while one is pending."""
        if self.pending is not None:
            return None
        record = self.pending = CheckpointRecord(self.next_id, now)
        self.checkpoints[self.next_id] = record
        self.next_id += 1
        self.expected = expected
        return record

    def ack(self, snapshot: "TaskSnapshot") -> None:
        """A task captured ``snapshot`` at a barrier. Its chain link is kept
        whatever the round's fate (the next delta bases on it); only the
        pending round takes the ack, and its last expected ack starts the
        upload, priced from what is uploaded (the deltas, incrementally)."""
        record, name, link = self.pending, snapshot.task_name, snapshot.delta
        live = record is not None and record.checkpoint_id == snapshot.checkpoint_id
        if live:
            record.snapshots[name] = snapshot
        if link is not None and self.store is not None:
            self.store.append(name, link)
            if link.is_full:
                self.store.prune(self._kept, name)
        if not live or len(record.snapshots) < self.expected:
            return
        cfg = self.config
        cost = cfg.write_base_cost + record.total_bytes() * cfg.write_cost_per_byte
        if self.registry is not None:
            self.registry.histogram(f"{self.prefix}/persist_seconds").record(cost)
        self.pending = None
        self._uploads[record.checkpoint_id] = True
        self.persist(record, cost)

    def persisted(self, record: CheckpointRecord, now: float) -> bool:
        """``record``'s upload ended: True when it completed, False when it
        was doomed meanwhile (it is dropped then: it must never be restored
        or commit sinks)."""
        checkpoint_id = record.checkpoint_id
        if not self._uploads.pop(checkpoint_id, False):
            self.checkpoints.pop(checkpoint_id, None)
            return False
        self._uploads = {i: live and i > checkpoint_id for i, live in self._uploads.items()}
        record.completed_at = now
        self.completed.append(checkpoint_id)
        if self.store is not None:
            self.store.prune(self._kept)
        return True

    def abort(self, checkpoint_id: int | None = None) -> int | None:
        """Drop the pending round (a task it waits on died, or it is stuck)
        — only if it is ``checkpoint_id`` when one is given, as a timeout
        gives its own round's. Returns the aborted id (None: none)."""
        record = self.pending
        if record is None or checkpoint_id not in (None, record.checkpoint_id):
            return None
        self.pending = None
        del self.checkpoints[record.checkpoint_id]
        return record.checkpoint_id

    def restart(self) -> None:
        """A new execution: drop the pending round, doom the persisting ones."""
        self._uploads = dict.fromkeys(self._uploads, False)
        self.abort()

    def _kept(self, task_name: str) -> list[DeltaSnapshot]:
        """The chain links of ``task_name`` a restore may still need: those
        of the retained completed rounds and of every round not completed."""
        retained = self.completed[-max(1, self.config.retained_checkpoints) :]
        rounds = [self.checkpoints[i] for i in (*retained, *self._uploads)]
        if self.pending is not None:
            rounds.append(self.pending)
        return [r.snapshots[task_name].delta for r in rounds if task_name in r.snapshots]

    def latest(self) -> CheckpointRecord | None:
        """The most recent completed round, if any."""
        return self.checkpoints[self.completed[-1]] if self.completed else None

    # --- the capture format ------------------------------------------------
    def backend_factory(self, base: Callable[[], Any]) -> Callable[[], Any]:
        """``base``, or in incremental mode a factory attaching a capture
        chain to every backend it builds (reincarnations' too)."""
        if self.store is None:
            return base

        def build() -> Any:
            backend = base()
            if backend.snapshotter is None:
                IncrementalSnapshotter(backend)  # attaches itself
            return backend

        return build

    def capture(
        self, task_name: str, backend: "KeyedStateBackend", checkpoint_id: int
    ) -> tuple[dict[str, dict[Any, bytes]], DeltaSnapshot | None, float]:
        """``backend``'s keyed state for a round as ``(full dict, chain link,
        capture cost)``. In incremental mode a round's capture is a link —
        full when the chain asks for a rebase, else the delta since the
        previous capture — costing ``capture_cost_per_entry`` per captured
        entry on the processing path. Out-of-band captures (standby mirrors
        use negative ids) take the full dict and leave the chain alone."""
        store = self.store
        snapshotter = backend.snapshotter if store is not None else None
        if checkpoint_id < 0 or snapshotter is None:
            return backend.snapshot(), None, 0.0
        full = store.wants_full(task_name)
        link = snapshotter.full_snapshot() if full else snapshotter.delta_snapshot()
        cost = link.entry_count() * self.config.capture_cost_per_entry
        registry, prefix = self.registry, self.prefix
        if registry is not None:
            # delta vs would-be-full volume, captured churn, capture cost
            registry.histogram(f"{prefix}/delta_bytes").record(link.size_bytes())
            registry.histogram(f"{prefix}/dirty_keys").record(link.entry_count())
            registry.histogram(f"{prefix}/full_bytes").record(backend.snapshot_bytes())
            registry.histogram(f"{prefix}/capture_seconds").record(cost)
        return {}, link, cost

    # --- restore -----------------------------------------------------------
    def restore_bytes(self, record: CheckpointRecord, task_names: set[str] | None = None) -> int:
        """Volume a restore of ``record`` (for ``task_names`` only, if given)
        pulls: snapshot sizes, or a task's whole base + delta chain in
        incremental mode — so recovery time grows with chain length until a
        rebase bounds it."""
        total = 0
        for name, snapshot in record.snapshots.items():
            if task_names is not None and name not in task_names:
                continue
            if snapshot.delta is not None and self.store is not None:
                total += self.store.chain_bytes(name, snapshot.delta)
            else:
                total += snapshot.size_bytes()
        return total

    def restore_latency(self, record: CheckpointRecord, task_names: set[str]) -> float:
        """Virtual time to pull that volume from durable storage."""
        cfg = self.config
        return cfg.write_base_cost + self.restore_bytes(record, task_names) * cfg.write_cost_per_byte

    def restore_chain(self, task_name: str, backend: "KeyedStateBackend", link: DeltaSnapshot) -> None:
        """Rebuild ``backend`` from ``task_name``'s chain ending at ``link``,
        clearing it first so a reused (failure-surviving) backend cannot
        leak post-checkpoint keys into the restored state."""
        if self.store is None:
            raise CheckpointError("incremental snapshot cannot be restored: no chain store")
        chain = self.store.chain_to(task_name, link)
        backend.clear_all()
        restore_chain(backend, chain)
