"""Live rescaling with state migration (survey §3.3, §4.2).

Elastic engines change an operator's parallelism while the job runs: new
subtasks join the hash routing, key-group state moves to its new owners,
timers follow their keys, and watermark accounting adapts. Two
reconfiguration modes are modelled:

* ``"live"`` — Megaphone-style: only the moving state pauses (the involved
  tasks stall for the transfer time);
* ``"stop-restart"`` — the classic savepoint cycle: sources pause for the
  full snapshot+restore round-trip (what the survey calls "inadequate for
  constantly-online applications").

Who owns a key, and when a rescaled group may finish, is one part:
:class:`RescaleState`, which the engine holds from the first rescale or
hot-group split on. It keeps one :class:`~repro.load.routing.KeyRouter` per
node — installed on the upstream output gates, consulted by the migration
pass, by the owner lookup that forwards in-flight records, and by
post-restore redistribution — so all four views of "who owns this key"
cannot diverge. It also keeps every task a rescaled node ran (retired
subtasks included), the links a scale-in retired, and the finish gate.
:class:`Rescaler` is the kernel glue around it: it refuses what cannot be
reconfigured, has the engine's physical plan add or retire subtasks, and
charges the pause. The router also carries hot-group splits (see
:meth:`Rescaler.split_key_group`).

State handoff is **incremental when it can be**: if the engine checkpoints
with base + delta chains (PR 5) and a task's chain is current (its backend's
last capture is the chain's newest link), the new owner rebuilds the bulk of
a moving key's state by replaying the chain from durable storage, and only
the *live overlay* — entries dirtied or deleted since the last capture —
ships synchronously from the old owner. A rescale then moves O(dirty) bytes
instead of a full snapshot, which is what makes frequent autoscaling viable
on large keyed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.events import RecordBatch
from repro.core.graph import Partitioning
from repro.core.keys import DEFAULT_MAX_PARALLELISM
from repro.core.operators.chain import ChainedOperator
from repro.errors import LoadManagementError
from repro.load.routing import KeyRouter
from repro.runtime.channel import PhysicalChannel
from repro.runtime.engine import Engine
from repro.runtime.task import SourceTask, Task

#: modelled size of a deletion tombstone in the shipped overlay (matches the
#: per-entry framing constant in DeltaSnapshot.size_bytes)
_TOMBSTONE_BYTES = 16
#: a reconfiguration's fixed pause, plus its transfer time per moved byte
#: (virtual seconds)
_BASE_PAUSE = 5e-3
_TRANSFER_COST_PER_BYTE = 2e-9
_MODES = ("live", "stop-restart")


@dataclass
class RescaleReport:
    node_name: str
    old_parallelism: int
    new_parallelism: int
    moved_entries: int
    #: bytes shipped synchronously for the reconfiguration: the live overlay
    #: under delta-chain handoff, the full extraction otherwise, the whole
    #: savepoint round-trip for stop-restart
    moved_bytes: int
    mode: str
    started_at: float
    resumed_at: float
    #: chain volume the new owners replay from durable storage (delta-chain
    #: handoff only; fetched in the background, not part of the stall)
    chain_bytes: int = 0
    #: "delta-chain" when at least one task handed off via its chain,
    #: "full" for plain extraction, "savepoint" for stop-restart
    handoff: str = "full"

    @property
    def downtime(self) -> float:
        return self.resumed_at - self.started_at


class RescaleState:
    """Key ownership and the finish gate of a job's live-rescaled nodes.

    The engine holds one in ``Engine.rescale_state`` (see :meth:`of`), and
    so does every task of a rescaled node, or that such a node sends to, in
    ``Task.rescale_state``. A task asks it :meth:`owner`, :meth:`reroutes`
    and :meth:`ready`. The transitions are a :meth:`router` change,
    :meth:`gate`, :meth:`retire`, :meth:`migrate` and :meth:`restore`; only
    the last two touch state backends, so the rest runs without a kernel.
    Nodes are named by whatever key ``subtasks`` takes: the engine's plan
    takes logical node names.
    """

    def __init__(self, subtasks: Callable[[Any], list[Task]], max_parallelism: int) -> None:
        #: the plan's lookup: node → its current subtasks, in index order
        self.subtasks = subtasks
        self.max_parallelism = max_parallelism
        #: node → the router its gates, migration and owner lookup share
        self.routers: dict[Any, KeyRouter] = {}
        #: rescaled node → every task it ran, by name, retired subtasks
        #: included (a subtask re-added under a retired one's name replaces it)
        self.members: dict[Any, dict[str, Task]] = {}
        #: rescaled node → links into subtasks retired by a scale-in;
        #: records can still be travelling them, and the finish gate waits
        #: until they land (and get forwarded)
        self.retired: dict[Any, list[PhysicalChannel]] = {}
        #: member name → its node
        self._node_of: dict[str, Any] = {}

    @classmethod
    def of(cls, engine: Engine) -> RescaleState:
        """The engine's part, created on first use."""
        if engine.rescale_state is None:
            engine.rescale_state = cls(engine.plan.subtasks, DEFAULT_MAX_PARALLELISM)
        return engine.rescale_state

    # -- transitions ------------------------------------------------------
    def router(self, node: Any) -> KeyRouter:
        """The node's router, created at its current parallelism on first use."""
        router = self.routers.get(node)
        if router is None:
            router = KeyRouter(len(self.subtasks(node)), self.max_parallelism)
            self.routers[node] = router
        return router

    def gate(self, node: Any) -> None:
        """The node is rescaled: its current subtasks join its members. Every
        member forwards records whose key moved (the Megaphone-style
        correctness piece of live migration), and every member and every
        task a member sends to holds its end-of-stream until :meth:`ready`,
        so no straggler can trail a final EOS."""
        self.router(node)
        members = self.members.setdefault(node, {})
        for task in self.subtasks(node):
            members[task.name] = task
            self._node_of[task.name] = node
        for task in members.values():
            task.rescale_state = self
            for gate in task.output_gates:
                for channel in gate.channels:
                    channel.receiver.rescale_state = self

    def retire(self, node: Any, links: list[PhysicalChannel]) -> None:
        """A scale-in detached ``links`` into the node's retired subtasks."""
        self.retired.setdefault(node, []).extend(links)

    # -- queries ----------------------------------------------------------
    def owner(self, task: Task, key: Any) -> Task | None:
        """The task that owns ``key`` now (``task`` itself, maybe) when
        ``task`` belongs to a rescaled node, else None; resolved through the
        current plan and router, so it stays correct across rescales."""
        node = self._node_of.get(task.name)
        if node is None:
            return None
        return self.subtasks(node)[self.routers[node].owner_index(key)]

    def reroutes(self, task: Task) -> bool:
        """True when ``task`` belongs to a rescaled node."""
        return task.name in self._node_of

    def ready(self, task: Task) -> bool:
        """True when no rescaled node can still send ``task`` anything: for
        a node it belongs to, its siblings are drained (none can forward a
        straggler here); for a node it receives from, every task of the node
        has finished (a reopened owner re-sends its end-of-stream). Either
        way nothing travels a link retired into the node, or from the node
        to it."""
        for node, members in self.members.items():
            group = members.values()
            links = [c for m in group for g in m.output_gates for c in g.channels if c.receiver is task]
            if members.get(task.name) is task:
                waiting = any(not m.drained for m in group if m is not task)
            elif links:
                waiting = any(not (m.finished or m.dead) for m in group)
            else:
                continue
            if waiting or any(c.pending for c in links + self.retired.get(node, [])):
                return False
        return True

    # -- state ------------------------------------------------------------
    def migrate(self, node: Any, store: Any) -> tuple[int, int, int, str]:
        """Move every misplaced key (and its timers) to its router-assigned
        owner; ``store`` is the checkpoint chain store (None: full
        checkpoints). Returns ``(moved_entries, moved_bytes, chain_bytes,
        handoff)`` — see :class:`RescaleReport` for the accounting."""
        router = self.routers[node]
        tasks = self.subtasks(node)
        all_tasks = tasks + [
            t for t in self.members[node].values() if t not in tasks and t.finished
        ]
        moved_entries = 0
        moved_bytes = 0
        chain_bytes = 0
        used_chain = False
        for task in all_tasks:
            active = not task.finished and task in tasks

            def misplaced(key, index=task.subtask_index, active=active):
                return not active or router.owner_index(key) != index

            backend = task.state_backend
            snapshotter = backend.snapshotter
            link = store.latest_link(task.name) if store is not None else None
            use_chain = (
                link is not None
                and snapshotter is not None
                and snapshotter.last_snapshot_id == link.snapshot_id
            )
            dirty: set = set()
            deleted: set = set()
            if use_chain:
                # Overlay must be captured *before* extraction: extracting a
                # key deletes it, which flips its marker dirty -> deleted.
                dirty, deleted = snapshotter.dirty_entries()
                for part in store.chain_to(task.name, link):
                    for name, entries in part.entries.items():
                        for key, data in entries.items():
                            if misplaced(key):
                                chain_bytes += len(data) + _TOMBSTONE_BYTES
                for name, key in deleted:
                    if misplaced(key):
                        moved_bytes += _TOMBSTONE_BYTES
                used_chain = True
            extracted = backend.extract_keys(misplaced)
            # Timers follow their keys.
            moving_timers = task.extract_event_timers(misplaced)
            for name, entries in extracted.items():
                by_owner: dict[int, dict] = {}
                for key, data in entries.items():
                    owner_index = router.owner_index(key)
                    by_owner.setdefault(owner_index, {})[key] = data
                    moved_entries += 1
                    if not use_chain or (name, key) in dirty:
                        # Under chain handoff only the live overlay ships
                        # synchronously; replayed bytes count as chain_bytes.
                        moved_bytes += len(data)
                for owner_index, chunk in by_owner.items():
                    tasks[owner_index].state_backend.merge({name: chunk})
            for timestamp, key, payload in moving_timers:
                tasks[router.owner_index(key)].register_event_timer(timestamp, key, payload)
        return moved_entries, moved_bytes, chain_bytes, ("delta-chain" if used_chain else "full")

    def restore(self, engine: Engine, record: Any, scope: set[str]) -> None:
        """Reconcile a restore of the tasks ``scope`` with rescales that
        happened since the checkpoint ``record`` (None: a restart from offset
        zero) was captured; called by the engine's restart routine.

        A checkpoint stores state under the *capture-time* task layout. After
        a scale-out, subtasks added later have no snapshot and come back
        empty while their keys land in the old owners; after a scale-in,
        retired subtasks' snapshots are orphaned (and global recovery killed
        the retired task objects, which would block all future checkpoints).
        This pass, for every rescaled node in the scope:

        1. revives retired subtasks as *finished* (orphan snapshots, when the
           record has them, are restored into a fresh backend first), and
        2. runs the migration pass so every key and timer moves to the owner
           the node's router assigns it under the current configuration.
        """
        for node in sorted(self.members):
            tasks = self.subtasks(node)
            if tasks[0].name not in scope:
                continue  # a closed scope holds all of a rescaled node or none
            planned = {t.name for t in tasks}
            for name, task in self.members[node].items():
                if name in planned:
                    continue
                snapshot = record.snapshots.get(name) if record is not None else None
                if task.dead or snapshot is not None:
                    engine.plan.revive(task, snapshot, fresh_backend=True)
                    # The subtask stays retired: the migration pass below
                    # drains its restored state into the current owners.
                    task.finished = True
            self.migrate(node, engine.coordinator.store)
            self.gate(node)


class Rescaler:
    """Applies parallelism changes and hot-group splits to HASH-partitioned
    stages of a live engine."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.reports: list[RescaleReport] = []

    # ------------------------------------------------------------------
    def rescale(self, node_name: str, new_parallelism: int, mode: str = "live") -> RescaleReport:
        """Change a HASH-partitioned node's parallelism live; returns the report."""
        if new_parallelism < 1:
            raise LoadManagementError("parallelism must be >= 1")
        return self._reconfigure(node_name, mode, new_parallelism=new_parallelism)

    def split_key_group(
        self, node_name: str, key_group: int, fanout: int, mode: str = "live"
    ) -> RescaleReport:
        """Fan a hot key group out over ``fanout`` subtasks (skew mitigation):
        distinct keys inside the group spread by a secondary hash while each
        key keeps exactly one owner, so state migration stays well-defined.
        Parallelism is unchanged; only the group's keys move."""
        return self._reconfigure(node_name, mode, split=(key_group, fanout))

    # ------------------------------------------------------------------
    def _reconfigure(
        self,
        node_name: str,
        mode: str,
        new_parallelism: int | None = None,
        split: tuple[int, int] | None = None,
    ) -> RescaleReport:
        """The one body of both verbs: refuse before any change, then change
        the router, rewire, gate, migrate, charge the pause and report."""
        engine = self.engine
        plan = engine.plan
        node = engine.graph.node_by_name(node_name)
        tasks = plan.subtasks(node_name)
        self._refuse(node, tasks, mode)
        # A barrier in flight while channels are added or removed, or keys
        # move, can never align on every (new) task: abort the round instead
        # of wedging it; the coordinator triggers the next one on schedule.
        engine.abort_inflight_checkpoint()
        started_at = engine.kernel.now()
        old_p = len(tasks)
        new_p = old_p if new_parallelism is None else new_parallelism
        # The classic savepoint cycle writes out and reads back *all* of the
        # operator's state, not just the keys that change owners.
        savepoint_bytes = (
            sum(t.state_backend.snapshot_bytes() for t in tasks) if mode == "stop-restart" else 0
        )
        state = RescaleState.of(engine)
        router = state.router(node_name)
        if split is None:
            router.set_parallelism(new_p)
        else:
            router.split_group(*split)
        if new_p > old_p:
            plan.add_subtasks(node_name, new_p)
        # Gate every finish (see RescaleState.ready) before any link is retired.
        state.gate(node_name)
        held: list = []  # what retired subtasks still held
        if new_p < old_p:
            state.retire(node_name, plan.retire_subtasks(node_name, new_p, held.append))
        plan.route(node_name, router)
        moved_entries, moved_bytes, chain_bytes, handoff = state.migrate(
            node_name, engine.coordinator.store
        )
        # The retired backlog goes to its owners once their state has moved.
        owners = plan.subtasks(node_name)
        for element in held:
            for record in element.records() if isinstance(element, RecordBatch) else (element,):
                key = getattr(record, "key", None)
                if key is not None:
                    owners[router.owner_index(key)].enqueue_local(record)
        if mode == "stop-restart":
            moved_bytes = savepoint_bytes
            handoff = "savepoint"
        report = RescaleReport(
            node_name=node_name,
            old_parallelism=old_p,
            new_parallelism=new_p,
            moved_entries=moved_entries,
            moved_bytes=moved_bytes,
            mode=mode,
            started_at=started_at,
            resumed_at=self._charge_reconfiguration(owners, mode, moved_bytes, started_at),
            chain_bytes=chain_bytes,
            handoff=handoff,
        )
        self.reports.append(report)
        return report

    def _refuse(self, node, tasks: list[Task], mode: str) -> None:
        """Raise before any change for what neither verb can reconfigure."""
        name = node.name
        if mode not in _MODES:
            raise LoadManagementError(f"unknown rescale mode {mode!r}")
        if node.is_source:
            raise LoadManagementError(f"cannot reconfigure {name!r}: sources are not supported")
        for edge in self.engine.graph.inputs_of(node.node_id):
            if edge.partitioning is Partitioning.FORWARD:
                raise LoadManagementError(
                    f"cannot reconfigure {name!r}: a FORWARD input edge pins "
                    "parallelism (repartition upstream with HASH/REBALANCE)"
                )
        if any(isinstance(task.operator, ChainedOperator) for task in tasks):
            # A chained task runs the whole chain: a new subtask would run
            # only this operator, and a key cannot move for one link alone.
            raise LoadManagementError(
                f"cannot reconfigure {name!r}: its tasks run a fused operator "
                "chain (build the job with chaining_enabled=False)"
            )
        # FORWARD *output* edges are tolerated: new subtasks connect with
        # REBALANCE instead (existing 1:1 links keep working).

    def _charge_reconfiguration(
        self, owners: list[Task], mode: str, moved_bytes: int, started_at: float
    ) -> float:
        engine = self.engine
        transfer = _BASE_PAUSE + moved_bytes * _TRANSFER_COST_PER_BYTE
        if mode == "stop-restart":
            # Whole pipeline pauses: sources stop for snapshot + restore.
            pause = 2 * transfer  # write out, read back
            for task in engine.tasks.values():
                if isinstance(task, SourceTask) and not task.finished and not task.dead:
                    task.suspend()
                    engine.kernel.call_after(pause, task.resume_processing)
            return started_at + pause
        # Live: only the rescaled tasks stall while their state moves.
        for task in owners:
            task.stall(transfer)
        return started_at + transfer
