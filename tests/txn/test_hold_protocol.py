"""The txn store's holds on its own bench: :class:`TxnStateStore` driven by a
hypothesis state machine with fake owners and a fake kernel, and checked
against a brute-force model of the holds and the fence rounds.

The machine plays the other parts the way they play the store: an owner
begins an ordered transaction (its body may raise, before or after a lock
wait), the commit callback releases the hold as ``TransactOperator`` does,
an idle owner parks on the current checkpoint's barrier, the coordinator
cancels a round on every owner, owners are killed, revived and finish, a
chaos stall takes a hold of its own, and the kernel runs whatever is due —
a lock grant, a deferred commit, or a completed round's resume, arbitrarily
late. The model knows when a round must complete (every live owner parked),
which resumes are void (a cancel or a kill came first) and how many holds
each owner must be under.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.events import CheckpointBarrier
from repro.txn.store import TxnStateStore

OWNERS = ("txn[0]", "txn[1]", "txn[2]")
KEYS = ("x", "y", "z")
KEY_SETS = st.sets(st.sampled_from(KEYS), min_size=1, max_size=2).map(frozenset)


class FakeKernel:
    """Events in (time, seq) order, run one at a time by the machine."""

    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0
        self.time = 0.0

    def now(self) -> float:
        return self.time

    def call_at(self, time, fn, *args):
        heapq.heappush(self.queue, (time, self.seq, fn, args))
        self.seq += 1

    def call_soon(self, fn, *args):
        self.call_at(self.time, fn, *args)

    def resumes(self) -> list[tuple[str, int]]:
        """Completed rounds' resumes still queued, as (owner, checkpoint)."""
        return sorted(
            (args[0].name, args[1].checkpoint_id)
            for _t, _s, _fn, args in self.queue
            if len(args) == 2 and isinstance(args[1], CheckpointBarrier)
        )


class FakeOwner:
    """The task surface the store drives: a hold count, and the barrier a
    completed round injects (whose snapshot takes the staged capture)."""

    def __init__(self, name: str, store: TxnStateStore, kernel: FakeKernel) -> None:
        self.name = name
        self.store = store
        self.engine = SimpleNamespace(kernel=kernel)
        self.dead = False
        self.finished = False
        self.holds = 0
        self.injected: list[tuple[int, int | None]] = []

    def suspend(self) -> None:
        self.holds += 1

    def resume_processing(self) -> None:
        assert self.holds > 0, f"{self.name}: a release without a hold"
        self.holds -= 1

    def inject_barrier(self, barrier: CheckpointBarrier) -> None:
        capture = self.store.take_operator_snapshot(self.name)
        self.injected.append((barrier.checkpoint_id, capture.checkpoint_id))


class HoldProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.kernel = FakeKernel()
        self.store = TxnStateStore("s", partitions=2)
        self.owners = {name: FakeOwner(name, self.store, self.kernel) for name in OWNERS}
        for owner in self.owners.values():
            self.store.bind_task(owner)
        # the model
        self.in_flight = {name: False for name in OWNERS}
        self.parked: dict[str, int | None] = {name: None for name in OWNERS}
        self.stalls = {name: 0 for name in OWNERS}
        #: bumped by each kill: a transaction of an older life must stay silent
        self.life = {name: 0 for name in OWNERS}
        self.checkpoint = 1
        #: open rounds in creation order: checkpoint -> owners parked on it
        self.rounds: dict[int, set[str]] = {}
        self.staged: dict[str, int] = {}
        #: resumes queued by completed rounds and not yet run, void or not
        self.queued: list[tuple[str, int]] = []
        self.expected: dict[str, list[tuple[int, int | None]]] = {name: [] for name in OWNERS}
        self.next_op = 0

    def _live(self, name: str) -> bool:
        owner = self.owners[name]
        return not owner.dead and not owner.finished

    def _idle(self, name: str) -> bool:
        # what a task must be to pull a record or a barrier
        return self._live(name) and not self.in_flight[name] and self.parked[name] is None

    def _complete_rounds(self) -> None:
        for checkpoint in list(self.rounds):
            members = self.rounds[checkpoint]
            live = {name for name in OWNERS if self._live(name)}
            if live <= members:
                # every live owner is parked (or none is left): the round
                # completes, its members' resumes are queued in name order
                del self.rounds[checkpoint]
                for name in members:
                    self.staged[name] = checkpoint
                    self.queued.append((name, checkpoint))
                self.checkpoint = max(self.checkpoint, checkpoint + 1)

    # -- the operator's side ------------------------------------------------
    @precondition(lambda self: any(self._idle(name) for name in OWNERS))
    @rule(data=st.data(), reads=KEY_SETS, writes=KEY_SETS, raises=st.booleans())
    def begin(self, data, reads, writes, raises):
        name = data.draw(st.sampled_from([n for n in OWNERS if self._idle(n)]), label="owner")
        life = self.life[name]
        self.next_op += 1

        def body(txn, value):
            assert self.life[name] == life, "a killed owner's transaction ran its body"
            for key in sorted(writes):
                txn.write(key, value)
            if raises:
                # the store releases the hold before the exception leaves
                self.in_flight[name] = False
                raise ValueError(value)
            return value

        def on_commit(out):
            assert self.life[name] == life, "a killed owner's transaction committed"
            assert out == value
            self.in_flight[name] = False
            self.store.release(name)

        value = self.next_op
        self.in_flight[name] = True
        self.store.hold(name)
        try:
            self.store.run(name, value, (reads, writes), body, value, on_commit)
        except ValueError:
            assert raises

    @precondition(lambda self: self.kernel.queue)
    @rule()
    def run_next(self):
        time, _seq, fn, args = heapq.heappop(self.kernel.queue)
        self.kernel.time = max(self.kernel.time, time)
        if len(args) == 2 and isinstance(args[1], CheckpointBarrier):
            owner, barrier = args
            name, checkpoint = owner.name, barrier.checkpoint_id
            self.queued.remove((name, checkpoint))
            if self.parked[name] == checkpoint and self._live(name):
                self.parked[name] = None
                self.expected[name].append((checkpoint, self.staged.pop(name)))
        try:
            fn(*args)
        except ValueError:
            pass  # a body raised after a lock wait

    # -- the task's side ----------------------------------------------------
    @precondition(lambda self: any(self._idle(name) for name in OWNERS))
    @rule(data=st.data())
    def park(self, data):
        name = data.draw(st.sampled_from([n for n in OWNERS if self._idle(n)]), label="owner")
        checkpoint = self.checkpoint
        self.parked[name] = checkpoint
        self.rounds.setdefault(checkpoint, set()).add(name)
        self.store.request_fence(
            self.owners[name], CheckpointBarrier(checkpoint_id=checkpoint, timestamp=0.0)
        )
        self._complete_rounds()

    @rule(data=st.data())
    def cancel(self, data):
        # the coordinator gave up on a round: every task cancels alignment
        checkpoint = data.draw(st.integers(1, self.checkpoint), label="checkpoint")
        for name in OWNERS:
            self.store.cancel_fence(self.owners[name], checkpoint)
            if self.parked[name] == checkpoint:
                self.parked[name] = None
            if self.staged.get(name) == checkpoint:
                del self.staged[name]
        self.rounds.pop(checkpoint, None)
        if checkpoint == self.checkpoint:
            self.checkpoint += 1  # an aborted id is never reused

    @precondition(lambda self: not all(owner.dead for owner in self.owners.values()))
    @rule(data=st.data())
    def kill(self, data):
        name = data.draw(st.sampled_from([n for n in OWNERS if not self.owners[n].dead]))
        owner = self.owners[name]
        owner.dead = True
        self.life[name] += 1
        self.in_flight[name] = False
        self.parked[name] = None
        self.staged.pop(name, None)
        for members in self.rounds.values():
            members.discard(name)
        self.store.on_task_killed(owner)
        self._complete_rounds()

    @precondition(lambda self: any(owner.dead for owner in self.owners.values()))
    @rule(data=st.data())
    def revive(self, data):
        name = data.draw(st.sampled_from([n for n in OWNERS if self.owners[n].dead]))
        owner = self.owners[name]
        owner.dead = owner.finished = False
        self.store.bind_task(owner)

    @precondition(lambda self: any(self._idle(name) for name in OWNERS))
    @rule(data=st.data())
    def finish(self, data):
        name = data.draw(st.sampled_from([n for n in OWNERS if self._idle(n)]), label="owner")
        self.owners[name].finished = True
        self.store.on_owner_finished(self.owners[name])
        self._complete_rounds()

    @rule(name=st.sampled_from(OWNERS))
    def stall(self, name):
        # a hold the store did not take (a chaos stall): a kill keeps it
        self.owners[name].suspend()
        self.stalls[name] += 1

    @precondition(lambda self: any(self.stalls.values()))
    @rule(data=st.data())
    def unstall(self, data):
        name = data.draw(st.sampled_from([n for n in OWNERS if self.stalls[n]]))
        self.owners[name].resume_processing()
        self.stalls[name] -= 1

    # -- invariants ---------------------------------------------------------
    @invariant()
    def each_owner_is_under_exactly_its_holds(self):
        for name, owner in self.owners.items():
            expected = self.in_flight[name] + (self.parked[name] is not None) + self.stalls[name]
            assert owner.holds == expected, (name, owner.holds, expected)

    @invariant()
    def one_transaction_per_held_owner(self):
        assert self.store.active_count == sum(self.in_flight.values())

    @invariant()
    def completed_rounds_resume_their_members(self):
        # a round completes exactly when every live owner is parked on it
        assert self.kernel.resumes() == sorted(self.queued)
        for name in OWNERS:
            # a resume voided by a cancel or a kill injects nothing
            assert self.owners[name].injected == self.expected[name]

    @invariant()
    def no_capture_is_staged_without_a_resume(self):
        # a cancelled round, a killed owner and a consumed resume leave the
        # owner's next snapshot a fresh one
        for name in OWNERS:
            if name not in self.staged:
                assert self.store.take_operator_snapshot(name).checkpoint_id is None


TestHoldProtocol = HoldProtocol.TestCase
TestHoldProtocol.settings = settings(max_examples=200, stateful_step_count=50, deadline=None)


def _drain(kernel: FakeKernel) -> None:
    while kernel.queue:
        _time, _seq, fn, args = heapq.heappop(kernel.queue)
        fn(*args)


def test_a_resume_after_a_cancel_is_void():
    machine = HoldProtocol()
    owners = machine.owners
    barrier = CheckpointBarrier(checkpoint_id=1, timestamp=0.0)
    for owner in owners.values():
        machine.store.request_fence(owner, barrier)
    assert [o.holds for o in owners.values()] == [1, 1, 1]
    assert machine.kernel.resumes() == [(name, 1) for name in OWNERS]
    machine.store.cancel_fence(owners["txn[1]"], 1)
    _drain(machine.kernel)
    assert owners["txn[0]"].injected == [(1, 1)] and owners["txn[1]"].injected == []
    assert [o.holds for o in owners.values()] == [0, 0, 0]


def test_a_kill_drops_a_lock_waiters_hold_and_keeps_a_stall():
    machine = HoldProtocol()
    store, owners = machine.store, machine.owners
    ran = []

    def body(txn, value):
        ran.append(value)
        txn.write("x", value)

    for name in ("txn[1]", "txn[0]"):  # txn[0] waits for txn[1]'s lock on x
        store.hold(name)
        store.run(name, name, (frozenset(), frozenset({"x"})), body, name, lambda out: None)
    waiter = owners["txn[0]"]
    waiter.suspend()  # a stall beside the store's hold
    waiter.dead = True
    store.on_task_killed(waiter)
    assert waiter.holds == 1 and store.active_count == 1
    _drain(machine.kernel)
    assert ran == ["txn[1]"]  # the killed waiter's body never runs
    assert store.committed_items() == {"x": "txn[1]"}
