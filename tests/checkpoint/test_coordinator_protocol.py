"""The checkpoint coordinator on its own bench: :class:`CheckpointCoordinator`
driven by a hypothesis state machine, with no kernel, engine or task, and
checked against a brute-force model of the round table.

The machine plays the other parts the way they play it: tasks write keyed
state and capture-and-ack at barriers (also for rounds long gone, as a
stale barrier would), the engine triggers, aborts by id, drops the pending
round on a kill, restarts the execution, and reports each persist's end —
in any order, as persist times vary. A task may also come back on a fresh
backend, whose next capture rebases its chain.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.checkpoint.coordinator import RETAINED_CHECKPOINTS, CheckpointCoordinator
from repro.runtime.config import CheckpointConfig
from repro.runtime.task import TaskSnapshot
from repro.state import InMemoryStateBackend
from repro.state.api import StateDescriptor

TASKS = ("a", "b", "c")
KEYS = range(4)
DESCRIPTOR = StateDescriptor("v")


class CoordinatorProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        config = CheckpointConfig(incremental=True, max_chain_length=3)
        self.coordinator = CheckpointCoordinator(config, self._persist)
        self.factory = self.coordinator.backend_factory(InMemoryStateBackend)
        self.backends = {name: self._fresh() for name in TASKS}
        self.now = 0.0
        # the model
        self.state: dict[str, dict[int, int]] = {name: {} for name in TASKS}
        self.next_id = 1
        self.pending: int | None = None
        self.acked: set[str] = set()
        #: rounds persisting in this execution / doomed ones, id -> record
        self.persisting: dict = {}
        self.doomed: dict = {}
        self.completed: list[int] = []
        self.gone: set[int] = set()
        #: (task, round) -> keyed state at its latest capture for the round
        self.captured: dict[tuple[str, int], dict[int, int]] = {}

    def _fresh(self):
        backend = self.factory()
        backend.register(DESCRIPTOR)
        return backend

    def _persist(self, record, cost: float) -> None:
        # the coordinator's hook: a round gathered every ack
        assert cost > 0
        assert record.checkpoint_id == self.pending, "a round other than the pending one sealed"
        assert self.acked == set(TASKS), f"round sealed with acks {sorted(self.acked)}"
        self.persisting[record.checkpoint_id] = record
        self.pending = None

    def _abandon_pending(self) -> None:
        if self.pending is not None:
            self.gone.add(self.pending)
            self.pending = None

    # -- rules ------------------------------------------------------------
    @rule(task=st.sampled_from(TASKS), key=st.sampled_from(KEYS), value=st.integers(0, 9))
    def write(self, task, key, value):
        self.backends[task].put(DESCRIPTOR, key, value)
        self.state[task][key] = value

    @rule(task=st.sampled_from(TASKS), key=st.sampled_from(KEYS))
    def delete(self, task, key):
        self.backends[task].delete(DESCRIPTOR, key)
        self.state[task].pop(key, None)

    @rule()
    def trigger(self):
        self.now += 1.0
        record = self.coordinator.trigger(self.now, len(TASKS))
        if self.pending is not None:
            assert record is None, "a trigger with a round in flight was not declined"
            return
        assert record.checkpoint_id == self.next_id
        self.pending, self.acked = self.next_id, set()
        self.next_id += 1

    def _capture_and_ack(self, task: str, checkpoint_id: int) -> None:
        keyed, delta = self.coordinator.capture(task, self.backends[task], checkpoint_id)
        assert keyed == {} and delta is not None
        self.captured[(task, checkpoint_id)] = dict(self.state[task])
        snapshot = TaskSnapshot(task, checkpoint_id, keyed, None, [], 0.0, delta=delta)
        self.coordinator.ack(snapshot)

    @precondition(lambda self: self.pending is not None)
    @rule(data=st.data())
    def ack(self, data):
        # the pending round's barrier reaches some of the tasks still owing
        # it, each acking once
        owing = data.draw(st.permutations([t for t in TASKS if t not in self.acked]), label="order")
        count = data.draw(st.integers(1, len(owing)), label="acks")
        checkpoint_id = self.pending
        for task in owing[:count]:
            self.acked.add(task)
            self._capture_and_ack(task, checkpoint_id)

    @precondition(lambda self: self.gone)
    @rule(task=st.sampled_from(TASKS), data=st.data())
    def stale_ack(self, task, data):
        # the barrier of an abandoned round was still in flight
        self._capture_and_ack(task, data.draw(st.sampled_from(sorted(self.gone)), label="round"))

    @rule(data=st.data())
    def abort(self, data):
        target = data.draw(st.integers(1, self.next_id), label="abort id")
        aborted = self.coordinator.abort(target)
        if target == self.pending:
            assert aborted == self.pending
            self._abandon_pending()
        else:
            assert aborted is None

    @rule()
    def drop_on_kill(self):
        # the engine's kill_task: whatever the pending round is, it is gone
        assert self.coordinator.abort() == self.pending
        self._abandon_pending()

    @precondition(lambda self: self.persisting)
    @rule()
    def epoch_change(self):
        self.coordinator.restart()
        self._abandon_pending()
        self.doomed.update(self.persisting)
        self.persisting = {}

    @precondition(lambda self: self.persisting or self.doomed)
    @rule(data=st.data())
    def persist_complete(self, data):
        checkpoint_id = data.draw(
            st.sampled_from(sorted({**self.persisting, **self.doomed})), label="persisted"
        )
        expected = checkpoint_id in self.persisting
        record = self.persisting.pop(checkpoint_id, None) or self.doomed.pop(checkpoint_id)
        self.now += 1.0
        completed = self.coordinator.persisted(record, self.now)
        assert completed == expected
        if completed:
            self.completed.append(checkpoint_id)
            for older in [i for i in self.persisting if i < checkpoint_id]:
                self.doomed[older] = self.persisting.pop(older)  # superseded
        else:
            self.gone.add(checkpoint_id)

    @rule(task=st.sampled_from(TASKS))
    def rebase(self, task):
        # the task comes back on a fresh backend: its next capture is a
        # full link, which restarts its chain segment
        self.backends[task] = self._fresh()
        self.state[task] = {}

    # -- invariants -------------------------------------------------------
    @invariant()
    def completed_ids_rise_strictly(self):
        completed = self.coordinator.completed
        assert completed == self.completed
        assert all(a < b for a, b in zip(completed, completed[1:]))
        latest = self.coordinator.latest()
        assert (latest is None) == (not completed)
        if latest is not None:
            assert latest.checkpoint_id == completed[-1] and latest.complete

    @invariant()
    def completed_rounds_have_every_ack(self):
        for checkpoint_id in self.completed:
            record = self.coordinator.checkpoints[checkpoint_id]
            assert set(record.snapshots) == set(TASKS)

    @invariant()
    def pending_round_matches(self):
        pending = self.coordinator.pending
        assert (pending.checkpoint_id if pending is not None else None) == self.pending

    @invariant()
    def abandoned_rounds_are_gone(self):
        # a restore reads the round table: a round not in it is not restorable
        for checkpoint_id in self.gone:
            assert checkpoint_id not in self.coordinator.completed
            assert checkpoint_id not in self.coordinator.checkpoints

    @invariant()
    def restorable_chains_start_full_and_restore_the_capture(self):
        store = self.coordinator.store
        live = [*self.completed[-RETAINED_CHECKPOINTS:], *self.persisting, *self.doomed]
        if self.pending is not None:
            live.append(self.pending)
        for checkpoint_id in live:
            record = self.coordinator.checkpoints[checkpoint_id]
            for task, snapshot in record.snapshots.items():
                chain = store.chain_to(task, snapshot.delta)
                assert chain[0].is_full
                target = InMemoryStateBackend()
                target.register(DESCRIPTOR)
                self.coordinator.restore_chain(task, target, snapshot.delta)
                restored = {key: target.get(DESCRIPTOR, key) for key in KEYS}
                expected = self.captured[(task, checkpoint_id)]
                assert restored == {key: expected.get(key) for key in KEYS}


TestCoordinatorProtocol = CoordinatorProtocol.TestCase
TestCoordinatorProtocol.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None
)


def _sealed_rounds(count: int) -> CoordinatorProtocol:
    machine = CoordinatorProtocol()
    for _ in range(count):
        machine.trigger()
        machine.acked.update(TASKS)
        for task in TASKS:
            machine._capture_and_ack(task, machine.pending)
    return machine


def test_a_newer_completion_supersedes_an_older_persist():
    # Persist times vary with volume: the newer round may finish first.
    # The older one is then superseded — completing it after would make
    # ``latest()`` step back in time.
    machine = _sealed_rounds(2)
    older, newer = machine.persisting[1], machine.persisting[2]
    coordinator = machine.coordinator
    assert coordinator.persisted(newer, 10.0)
    assert not coordinator.persisted(older, 11.0)
    assert coordinator.completed == [2] and coordinator.latest() is newer
    assert 1 not in coordinator.checkpoints


def test_a_late_ack_does_not_reseal_a_persisting_round():
    machine = _sealed_rounds(1)
    machine.trigger()
    sealed = len(machine.persisting)
    machine._capture_and_ack("a", 1)  # round 1 again, while round 2 is pending
    assert len(machine.persisting) == sealed
    pending = machine.coordinator.pending
    assert pending.checkpoint_id == 2 and not pending.snapshots
    assert set(machine.coordinator.checkpoints[1].snapshots) == set(TASKS)
