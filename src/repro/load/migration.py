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

Routing through a rescale is centralised in one
:class:`~repro.load.routing.KeyRouter` per node — installed on the upstream
output gates, consulted by the migration predicate, by the reroute closures
that forward in-flight records, and by post-recovery redistribution — so all
four views of "who owns this key" cannot diverge. The router also carries
hot-group splits (see :meth:`Rescaler.split_key_group`).

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

import heapq
from dataclasses import dataclass
from typing import Any

from repro.core.events import MAX_TIMESTAMP, EndOfStream, RecordBatch, Watermark
from repro.core.graph import Partitioning
from repro.errors import LoadManagementError
from repro.load.routing import KeyRouter
from repro.runtime.engine import Engine
from repro.runtime.task import SourceTask, Task

#: modelled size of a deletion tombstone in the shipped overlay (matches the
#: per-entry framing constant in DeltaSnapshot.size_bytes)
_TOMBSTONE_BYTES = 16


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


class Rescaler:
    """Applies parallelism changes to HASH-partitioned stages of a live engine."""

    def __init__(
        self,
        engine: Engine,
        transfer_cost_per_byte: float = 2e-9,
        base_pause: float = 5e-3,
    ) -> None:
        self.engine = engine
        self.transfer_cost_per_byte = transfer_cost_per_byte
        self.base_pause = base_pause
        self.reports: list[RescaleReport] = []

    # ------------------------------------------------------------------
    def rescale(self, node_name: str, new_parallelism: int, mode: str = "live") -> RescaleReport:
        """Change a HASH-partitioned node's parallelism live; returns the report."""
        engine = self.engine
        node = engine.graph.node_by_name(node_name)
        if node.is_source:
            raise LoadManagementError("rescaling sources is not supported")
        tasks = engine.node_tasks[node.node_id]
        old_parallelism = node.parallelism
        if new_parallelism < 1:
            raise LoadManagementError("parallelism must be >= 1")
        for edge in engine.graph.inputs_of(node.node_id):
            if edge.partitioning is Partitioning.FORWARD:
                raise LoadManagementError(
                    f"cannot rescale {node_name!r}: a FORWARD input edge pins "
                    "parallelism (repartition upstream with HASH/REBALANCE)"
                )
        # FORWARD *output* edges are tolerated: new subtasks connect with
        # REBALANCE instead (existing 1:1 links keep working).
        self._abort_inflight_checkpoint()
        started_at = engine.kernel.now()
        full_state_bytes = sum(t.state_backend.snapshot_bytes() for t in tasks)
        router = self.router_for(node_name)
        router.set_parallelism(new_parallelism)
        if new_parallelism > old_parallelism:
            self._scale_out(node, tasks, old_parallelism, new_parallelism)
        elif new_parallelism < old_parallelism:
            self._scale_in(node, tasks, old_parallelism, new_parallelism, router)
        self._install_router_on_gates(node, router)
        moved_entries, moved_bytes, chain_bytes, handoff = self._migrate_state(node, router)
        self._install_reroute(node, router)
        node.parallelism = new_parallelism
        for task in engine.node_tasks[node.node_id][:new_parallelism]:
            task.parallelism = new_parallelism
        engine.rescaled_nodes.add(node.node_id)
        if mode == "stop-restart":
            # The classic savepoint cycle writes out and reads back *all* of
            # the operator's state, not just the keys that change owners.
            moved_bytes = full_state_bytes
            handoff = "savepoint"
        resumed_at = self._charge_reconfiguration(node, mode, moved_bytes, started_at)
        report = RescaleReport(
            node_name=node_name,
            old_parallelism=old_parallelism,
            new_parallelism=new_parallelism,
            moved_entries=moved_entries,
            moved_bytes=moved_bytes,
            mode=mode,
            started_at=started_at,
            resumed_at=resumed_at,
            chain_bytes=chain_bytes,
            handoff=handoff,
        )
        self.reports.append(report)
        return report

    def split_key_group(
        self, node_name: str, key_group: int, fanout: int, mode: str = "live"
    ) -> RescaleReport:
        """Fan a hot key group out over ``fanout`` subtasks (skew mitigation):
        distinct keys inside the group spread by a secondary hash while each
        key keeps exactly one owner, so state migration stays well-defined.
        Parallelism is unchanged; only the group's keys move."""
        engine = self.engine
        node = engine.graph.node_by_name(node_name)
        if node.is_source:
            raise LoadManagementError("cannot split key groups of a source")
        self._abort_inflight_checkpoint()
        started_at = engine.kernel.now()
        router = self.router_for(node_name)
        router.split_group(key_group, fanout)
        self._install_router_on_gates(node, router)
        moved_entries, moved_bytes, chain_bytes, handoff = self._migrate_state(node, router)
        self._install_reroute(node, router)
        engine.rescaled_nodes.add(node.node_id)
        resumed_at = self._charge_reconfiguration(node, mode, moved_bytes, started_at)
        report = RescaleReport(
            node_name=node_name,
            old_parallelism=node.parallelism,
            new_parallelism=node.parallelism,
            moved_entries=moved_entries,
            moved_bytes=moved_bytes,
            mode=mode,
            started_at=started_at,
            resumed_at=resumed_at,
            chain_bytes=chain_bytes,
            handoff=handoff,
        )
        self.reports.append(report)
        return report

    def unsplit_key_group(self, node_name: str, key_group: int, mode: str = "live") -> RescaleReport:
        """Collapse a previously split key group back to its range owner."""
        engine = self.engine
        node = engine.graph.node_by_name(node_name)
        self._abort_inflight_checkpoint()
        started_at = engine.kernel.now()
        router = self.router_for(node_name)
        router.unsplit_group(key_group)
        moved_entries, moved_bytes, chain_bytes, handoff = self._migrate_state(node, router)
        self._install_reroute(node, router)
        resumed_at = self._charge_reconfiguration(node, mode, moved_bytes, started_at)
        report = RescaleReport(
            node_name=node_name,
            old_parallelism=node.parallelism,
            new_parallelism=node.parallelism,
            moved_entries=moved_entries,
            moved_bytes=moved_bytes,
            mode=mode,
            started_at=started_at,
            resumed_at=resumed_at,
            chain_bytes=chain_bytes,
            handoff=handoff,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    def router_for(self, node_name: str) -> KeyRouter:
        """The node's shared :class:`KeyRouter`, created on first use at the
        node's current parallelism."""
        engine = self.engine
        node = engine.graph.node_by_name(node_name)
        router = engine.key_routers.get(node.node_id)
        if router is None:
            router = KeyRouter(node.parallelism, engine.config.max_parallelism)
            engine.key_routers[node.node_id] = router
        return router

    def _abort_inflight_checkpoint(self) -> None:
        """A barrier in flight while channels are added or removed can never
        align on every (new) task — abort the round instead of wedging it;
        the coordinator simply triggers the next one on schedule."""
        engine = self.engine
        record = engine._pending_checkpoint
        if record is not None:
            engine._abort_checkpoint(record)

    def _install_router_on_gates(self, node, router: KeyRouter) -> None:
        """Point every upstream gate feeding ``node`` at the shared router so
        hash routing immediately reflects the new configuration."""
        engine = self.engine
        for edge_index, edge in enumerate(engine.graph.edges):
            if edge.target_id == node.node_id and edge.partitioning is Partitioning.HASH:
                for gate in engine.edge_gates.get(edge_index, {}).values():
                    gate.router = router

    # ------------------------------------------------------------------
    def _scale_out(self, node, tasks: list[Task], old_p: int, new_p: int) -> None:
        engine = self.engine
        for index in range(old_p, new_p):
            task = engine._make_task(node, index)
            engine.node_tasks[node.node_id].append(task)
            engine.tasks[task.name] = task
            task.start()
        new_tasks = engine.node_tasks[node.node_id][old_p:new_p]
        # Incoming edges: extend every sender gate with channels to the new
        # subtasks (appended in index order, so HASH routing stays aligned).
        for edge_index, edge in enumerate(engine.graph.edges):
            if edge.target_id == node.node_id:
                spec = engine.config.channel_for(edge.channel)
                for gate in engine.edge_gates.get(edge_index, {}).values():
                    sender = gate.channels[0].sender if gate.channels else None
                    for task in new_tasks:
                        channel = engine.make_channel(spec, sender, task, edge.is_feedback)
                        gate.channels.append(channel)
                        if sender is not None and sender.finished and not sender.dead:
                            # This upstream already sent its end-of-input on
                            # the old channels and will never send again —
                            # seed the new link so the fresh subtask can
                            # still drain and finish instead of wedging.
                            channel.send(Watermark(MAX_TIMESTAMP))
                            channel.send(EndOfStream(source_id=sender.name))
            if edge.source_id == node.node_id:
                spec = engine.config.channel_for(edge.channel)
                receivers = engine.node_tasks[edge.target_id]
                from repro.runtime.channel import OutputGate

                partitioning = edge.partitioning
                if partitioning is Partitioning.FORWARD:
                    partitioning = Partitioning.REBALANCE
                for task in new_tasks:
                    channels = [
                        engine.make_channel(spec, task, receiver, edge.is_feedback)
                        for receiver in receivers
                    ]
                    gate = OutputGate(partitioning, channels, engine.config.max_parallelism)
                    if partitioning is Partitioning.HASH:
                        # The downstream node may itself have been rescaled:
                        # route with its router, like the pre-existing gates.
                        gate.router = engine.key_routers.get(edge.target_id)
                    task.attach_output(gate)
                    engine.edge_gates.setdefault(edge_index, {})[task.name] = gate

    def _scale_in(
        self, node, tasks: list[Task], old_p: int, new_p: int, router: KeyRouter
    ) -> None:
        engine = self.engine
        retired = tasks[new_p:old_p]
        retired_links = engine.retired_channels.setdefault(node.node_id, [])
        for edge_index, edge in enumerate(engine.graph.edges):
            if edge.target_id == node.node_id:
                for gate in engine.edge_gates.get(edge_index, {}).values():
                    # Trailing channels point at the retired subtasks. Keep a
                    # handle: in-flight records on a popped link still land
                    # (and get rerouted), and the node's EOS drain barrier
                    # must wait for them.
                    while len(gate.channels) > new_p:
                        retired_links.append(gate.channels.pop())
            if edge.source_id == node.node_id:
                gates = engine.edge_gates.get(edge_index, {})
                for task in retired:
                    gate = gates.pop(task.name, None)
                    if gate is not None:
                        for channel in gate.channels:
                            channel.receiver.retire_input_channel(channel.receiver_channel_index)
        survivors = tasks[:new_p]
        for task in retired:
            # Redistribute queued records (mailbox and any barrier-alignment
            # buffer) before stopping the task; batches route per record.
            for item in list(task._mailbox) + list(task._align_buffer):
                element = item.element
                if isinstance(element, RecordBatch):
                    for record in element.records():
                        if record.key is not None:
                            survivors[router.owner_index(record.key)].enqueue_local(record)
                    continue
                key = getattr(element, "key", None)
                if key is not None:
                    survivors[router.owner_index(key)].enqueue_local(element)
            task.release_mailbox_credits()
            task._mailbox.clear()
            task._align_buffer = []
            task.finished = True
            task.metrics.finished_at = engine.kernel.now()
        engine.node_tasks[node.node_id] = survivors

    # ------------------------------------------------------------------
    def _migrate_state(self, node, router: KeyRouter) -> tuple[int, int, int, str]:
        """Move every misplaced key (and its timers) to its router-assigned
        owner. Returns ``(moved_entries, moved_bytes, chain_bytes, handoff)``
        — see :class:`RescaleReport` for the accounting semantics."""
        engine = self.engine
        tasks = engine.node_tasks[node.node_id]
        all_tasks = tasks + [
            t
            for t in engine.tasks.values()
            if t not in tasks and t.name.startswith(f"{node.name}[") and t.finished
        ]
        store = engine.checkpoint_store
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
            moving_timers: dict[int, list] = {}
            remaining = []
            for timer in task._event_timers:
                _ts, _seq, key, _payload = timer
                if key is not None and misplaced(key):
                    moving_timers.setdefault(router.owner_index(key), []).append(timer)
                else:
                    remaining.append(timer)
            task._event_timers = remaining
            heapq.heapify(task._event_timers)
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
            for owner_index, timers in moving_timers.items():
                for ts, _seq, key, payload in timers:
                    tasks[owner_index].register_event_timer(ts, key, payload)
        return moved_entries, moved_bytes, chain_bytes, ("delta-chain" if used_chain else "full")

    def _install_reroute(self, node, router: KeyRouter) -> None:
        """Old owners forward in-flight records to the new owners (the
        Megaphone-style correctness piece of live migration). The closure
        resolves the owner *at forward time* through the engine's plan and
        the shared router, so it stays correct across later rescales."""
        engine = self.engine
        node_id = node.node_id

        def owner_of(key, engine=engine, node_id=node_id, router=router):
            return engine.node_tasks[node_id][router.owner_index(key)]

        def group_ready(task, engine=engine, node_id=node_id):
            # No active sibling can still reroute a straggler here, and no
            # record is still travelling a link retired by a scale-in.
            for sibling in engine.node_tasks.get(node_id, []):
                if sibling is not task and not sibling._rescale_quiescent():
                    return False
            return all(
                ch.pending == 0 for ch in engine.retired_channels.get(node_id, ())
            )

        for task in engine.tasks.values():
            if task.name.startswith(f"{node.name}["):
                task.reroute = owner_of
                # Hold each task's EOS until the whole group quiesces, so no
                # sibling can reroute a straggler past a final EOS.
                task.rescale_group_ready = group_ready

    # ------------------------------------------------------------------
    def _charge_reconfiguration(self, node, mode: str, moved_bytes: int, started_at: float) -> float:
        engine = self.engine
        transfer = self.base_pause + moved_bytes * self.transfer_cost_per_byte
        if mode == "stop-restart":
            # Whole pipeline pauses: sources stop for snapshot + restore.
            pause = 2 * transfer  # write out, read back
            for task in engine.tasks.values():
                if isinstance(task, SourceTask) and not task.finished and not task.dead:
                    task.pause()
                    engine.kernel.call_after(pause, task.resume)
            return started_at + pause
        if mode == "live":
            # Only the rescaled tasks stall while their state moves.
            for task in engine.node_tasks[node.node_id]:
                task.stall(transfer)
            return started_at + transfer
        raise LoadManagementError(f"unknown rescale mode {mode!r}")


# ----------------------------------------------------------------------
def redistribute_after_restore(engine: Engine, record: Any) -> None:
    """Reconcile a global restore with rescales that happened since the
    checkpoint was captured (called by ``Engine._do_restore``).

    A checkpoint stores state under the *capture-time* task layout. After a
    scale-out, subtasks added later have no snapshot and come back empty
    while their keys land in the old owners; after a scale-in, retired
    subtasks' snapshots are orphaned (and global recovery killed the retired
    task objects, which would block all future checkpoints). This pass, for
    every node whose layout has diverged from the plan:

    1. revives retired subtasks as *finished* (orphan snapshots, when the
       record has them, are restored into a fresh backend first), and
    2. runs the standard migration pass so every key and timer moves to the
       owner the node's router assigns it under the current configuration.
    """
    if not engine.rescaled_nodes:
        return
    rescaler = Rescaler(engine)
    for node_id in sorted(engine.rescaled_nodes):
        node = engine.graph.nodes[node_id]
        tasks = engine.node_tasks.get(node_id)
        if not tasks:
            continue
        planned = {t.name for t in tasks}
        prefix = f"{node.name}["
        for name, task in engine.tasks.items():
            if not name.startswith(prefix) or name in planned:
                continue
            snapshot = record.snapshots.get(name) if record is not None else None
            if task.dead or snapshot is not None:
                backend = engine.backend_factory_for(task)()
                task.reincarnate(engine.new_operator_for(task), backend)
                task.restore_snapshot(snapshot)
                # The subtask stays retired: the migration pass below drains
                # its restored state into the current owners.
                task.finished = True
        router = rescaler.router_for(node.name)
        rescaler._migrate_state(node, router)
        rescaler._install_reroute(node, router)
