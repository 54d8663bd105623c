"""TxnStateStore unit tests: ordered locking, undo, deferred commits,
whole-store fence captures, and the determinism digest."""

import pytest

from repro.errors import TransactionAborted, TransactionError
from repro.sim.kernel import Kernel
from repro.txn.store import COMMIT_BASE_COST, LockMode, TxnConfig, TxnStateStore, TxnStatus


def make_store(partitions=4, **config):
    return TxnStateStore("s", partitions=partitions, config=TxnConfig(**config))


def run_to_completion(store, txn):
    store.finish_attempt(txn, None)


class FakeTask:
    """Just enough Task surface for the fence protocol: the holds the store
    takes and releases, and the barrier a completed round injects."""

    def __init__(self, name):
        self.name = name
        self.dead = False
        self.finished = False
        self.holds = 0
        self.resumed = []

    def suspend(self):
        self.holds += 1

    def resume_processing(self):
        assert self.holds > 0, "a release without a hold"
        self.holds -= 1

    def inject_barrier(self, barrier):
        self.resumed.append(barrier.checkpoint_id)


class FakeBarrier:
    def __init__(self, checkpoint_id):
        self.checkpoint_id = checkpoint_id


class TestLifecycle:
    def test_commit_bumps_versions_and_appends_history(self):
        store = make_store()
        txn = store.begin("p0", "op-1", declared=((), ("a", "b")))
        for key, mode in store.lock_plan(txn):
            assert store.acquire(txn, key, mode, None)
        txn.write("a", 10)
        txn.write("b", 20)
        run_to_completion(store, txn)
        assert txn.status is TxnStatus.COMMITTED
        assert store.committed_get("a") == 10
        assert store.committed_get("b") == 20
        [entry] = store.history
        assert entry.op_id == "op-1"
        assert dict((k, (v, val)) for k, v, val in entry.writes) == {
            "a": (1, 10),
            "b": (1, 20),
        }

    def test_abort_restores_exact_preimage(self):
        store = make_store()
        seed = store.begin("p0", "seed", declared=((), ("a",)))
        store.acquire(seed, "a", LockMode.EXCLUSIVE, None)
        seed.write("a", 1)
        run_to_completion(store, seed)
        txn = store.begin("p0", "doomed", declared=(("a",), ("a", "b")))
        for key, mode in store.lock_plan(txn):
            store.acquire(txn, key, mode, None)
        txn.write("a", 99)
        txn.write("b", 5)
        store.abort(txn)
        assert store.committed_get("a") == 1
        assert store.committed_get("b", "absent") == "absent"
        assert store.aborted == 1

    def test_undeclared_access_rejected_under_ordered(self):
        store = make_store()
        txn = store.begin("p0", "op", declared=(("a",), ()))
        store.acquire(txn, "a", LockMode.SHARED, None)
        with pytest.raises(TransactionError):
            txn.read("zzz")
        with pytest.raises(TransactionError):
            txn.write("a", 1)  # S lock is not enough to write

    def test_begin_requires_declared_keys_under_ordered(self):
        store = make_store()
        with pytest.raises(TransactionError):
            store.begin("p0", "op", declared=None)


class TestLockPlan:
    def test_plan_is_repr_sorted_and_mode_correct(self):
        store = make_store()
        txn = store.begin("p0", "op", declared=(("b", "a"), ("c", "a")))
        plan = store.lock_plan(txn)
        assert [key for key, _ in plan] == sorted(["a", "b", "c"], key=repr)
        modes = dict(plan)
        # read∩write takes X directly — no S→X upgrade path exists.
        assert modes["a"] is LockMode.EXCLUSIVE
        assert modes["b"] is LockMode.SHARED
        assert modes["c"] is LockMode.EXCLUSIVE


class TestWaitQueues:
    def test_strict_fifo_wait_and_wake_on_commit(self):
        store = make_store()
        first = store.begin("p0", "t1", declared=((), ("k",)))
        assert store.acquire(first, "k", LockMode.EXCLUSIVE, None)
        fired = []
        second = store.begin("p1", "t2", declared=((), ("k",)))
        granted = store.acquire(second, "k", LockMode.EXCLUSIVE, lambda: fired.append("t2"))
        assert not granted and not fired
        first.write("k", 1)
        run_to_completion(store, first)  # no kernel: wake runs synchronously
        assert fired == ["t2"]
        assert second.locks["k"] is LockMode.EXCLUSIVE

    def test_shared_waiters_granted_as_batch(self):
        store = make_store()
        writer = store.begin("p0", "w", declared=((), ("k",)))
        store.acquire(writer, "k", LockMode.EXCLUSIVE, None)
        fired = []
        readers = [store.begin("p0", f"r{i}", declared=(("k",), ())) for i in range(2)]
        for i, reader in enumerate(readers):
            assert not store.acquire(reader, "k", LockMode.SHARED, lambda i=i: fired.append(f"r{i}"))
        blocked_writer = store.begin("p0", "w2", declared=((), ("k",)))
        assert not store.acquire(blocked_writer, "k", LockMode.EXCLUSIVE, lambda: fired.append("w2"))
        writer.write("k", 1)
        run_to_completion(store, writer)
        # Both S waiters woke together; the X waiter behind them did not.
        assert fired == ["r0", "r1"]
        for reader in readers:
            store.abort(reader)
        assert fired == ["r0", "r1", "w2"]

    def test_shared_request_queues_behind_a_waiting_writer(self):
        store = make_store()
        reader = store.begin("p0", "r1", declared=(("k",), ()))
        assert store.acquire(reader, "k", LockMode.SHARED, None)
        writer = store.begin("p0", "w", declared=((), ("k",)))
        assert not store.acquire(writer, "k", LockMode.EXCLUSIVE, lambda: None)
        late = store.begin("p0", "r2", declared=(("k",), ()))
        # S would fit beside the S holder, but strict FIFO queues it behind w
        assert not store.acquire(late, "k", LockMode.SHARED, lambda: None)

    def test_release_wakes_keys_in_plan_order(self):
        store = make_store()
        fired = []
        holder = store.begin("p0", "h", declared=((), ("a", "b")))
        for key, mode in store.lock_plan(holder):
            assert store.acquire(holder, key, mode, None)
        first = store.begin("p0", "on-a", declared=((), ("a",)))
        second = store.begin("p0", "on-b", declared=((), ("b",)))
        store.acquire(second, "b", LockMode.EXCLUSIVE, lambda: fired.append("on-b"))
        store.acquire(first, "a", LockMode.EXCLUSIVE, lambda: fired.append("on-a"))
        run_to_completion(store, holder)
        assert fired == ["on-a", "on-b"]  # "a" is released first: repr order

    def test_aborted_waiter_is_skipped_on_wake(self):
        store = make_store()
        holder = store.begin("p0", "h", declared=((), ("k",)))
        store.acquire(holder, "k", LockMode.EXCLUSIVE, None)
        fired = []
        doomed = store.begin("p0", "d", declared=((), ("k",)))
        survivor = store.begin("p0", "s", declared=((), ("k",)))
        store.acquire(doomed, "k", LockMode.EXCLUSIVE, lambda: fired.append("d"))
        store.acquire(survivor, "k", LockMode.EXCLUSIVE, lambda: fired.append("s"))
        store.abort(doomed)
        run_to_completion(store, holder)
        assert fired == ["s"]

    def test_nowait_conflict_aborts_requester(self):
        store = make_store(locking="nowait")
        holder = store.begin("p0", "h")
        holder.write("k", 1)
        loser = store.begin("p0", "l")
        with pytest.raises(TransactionAborted):
            loser.write("k", 2)
        assert loser.status is TxnStatus.ABORTED
        assert store.committed_get("k", "absent") == "absent"  # holder uncommitted


class TestDeferredCommit:
    def test_commit_lands_commit_cost_later_on_the_kernel(self):
        kernel = Kernel()
        store = make_store()
        store._kernel = kernel
        txn = store.begin("p0", "op", declared=((), ("a", "b")))
        for key, mode in store.lock_plan(txn):
            store.acquire(txn, key, mode, None)
        txn.write("a", 1)  # partitions of "a" and "b" differ or not;
        txn.write("b", 2)  # cost only depends on the touched count
        done = []
        store.finish_attempt(txn, lambda: done.append(kernel.now()))
        assert not done and txn.status is TxnStatus.ACTIVE
        kernel.run()
        assert done == [pytest.approx(store.commit_cost(txn))]
        assert store.committed == 1

    def test_commit_callback_noops_if_txn_aborted_in_window(self):
        kernel = Kernel()
        store = make_store()
        store._kernel = kernel
        txn = store.begin("p0", "op", declared=((), ("a",)))
        store.acquire(txn, "a", LockMode.EXCLUSIVE, None)
        txn.write("a", 1)
        done = []
        store.finish_attempt(txn, lambda: done.append("commit"))
        store.abort(txn)  # a kill lands inside the commit window
        kernel.run()
        assert not done
        assert store.committed == 0
        assert store.committed_get("a", "absent") == "absent"

    def test_multi_partition_commit_costs_more(self):
        store = make_store(partitions=8)
        single = store.begin("p0", "s", declared=((), ("a",)))
        single.touched_partitions = {0}
        multi = store.begin("p0", "m", declared=((), ("a", "b")))
        multi.touched_partitions = {0, 1, 2}
        assert store.commit_cost(multi) > store.commit_cost(single)


class TestCommittedViews:
    def test_uncommitted_writes_invisible(self):
        store = make_store()
        txn = store.begin("p0", "op", declared=((), ("a",)))
        store.acquire(txn, "a", LockMode.EXCLUSIVE, None)
        txn.write("a", 42)
        assert store.committed_get("a", None) is None
        assert store.committed_items() == {}
        run_to_completion(store, txn)
        assert store.committed_items() == {"a": 42}


class TestFence:
    def two_owner_store(self):
        store = make_store()
        a, b = FakeTask("txn[0]"), FakeTask("txn[1]")
        store._owners = {a.name: a, b.name: b}
        return store, a, b

    def commit_one(self, store, key="k", value=1):
        txn = store.begin("p0", f"seed-{key}", declared=((), (key,)))
        store.acquire(txn, key, LockMode.EXCLUSIVE, None)
        txn.write(key, value)
        run_to_completion(store, txn)

    def test_round_completes_when_all_live_owners_park(self):
        store, a, b = self.two_owner_store()
        self.commit_one(store)
        store.request_fence(a, FakeBarrier(7))
        assert not a.resumed  # still waiting on b
        store.request_fence(b, FakeBarrier(7))
        assert a.resumed == [7] and b.resumed == [7]
        cap_a = store.take_operator_snapshot(a.name)
        cap_b = store.take_operator_snapshot(b.name)
        assert cap_a is cap_b  # one whole-store capture, shared by reference
        assert cap_a.checkpoint_id == 7
        assert cap_a.log_len == 1

    def test_killed_owner_unwedges_parked_survivor(self):
        store, a, b = self.two_owner_store()
        store.request_fence(a, FakeBarrier(3))
        assert not a.resumed
        b.dead = True
        store.on_task_killed(b)
        assert a.resumed == [3]

    def test_finished_owner_unwedges_parked_survivor(self):
        store, a, b = self.two_owner_store()
        store.request_fence(a, FakeBarrier(4))
        b.finished = True
        store.on_owner_finished(b)
        assert a.resumed == [4]

    def test_cancel_fence_drops_parked_owner_and_stale_capture(self):
        store, a, b = self.two_owner_store()
        store.request_fence(a, FakeBarrier(5))
        store.cancel_fence(a, 5)  # checkpoint 5 aborted while a was parked
        assert 5 not in store._fence_rounds  # round evaporated with its last member
        # A later round completes normally and stages captures…
        store.request_fence(a, FakeBarrier(6))
        store.request_fence(b, FakeBarrier(6))
        assert a.resumed == [6] and b.resumed == [6]
        store.cancel_fence(b, 6)  # …but b's checkpoint is then aborted
        solo = store.take_operator_snapshot(b.name)
        assert solo.checkpoint_id is None  # stale staged capture was dropped
        staged_a = store.take_operator_snapshot(a.name)
        assert staged_a.checkpoint_id == 6  # a's staging untouched

    def test_restore_capture_truncates_history_and_reinstalls(self):
        store, a, b = self.two_owner_store()
        self.commit_one(store, "k", 1)
        store.request_fence(a, FakeBarrier(1))
        store.request_fence(b, FakeBarrier(1))
        capture = store.take_operator_snapshot(a.name)
        self.commit_one(store, "k", 2)  # post-checkpoint commit
        assert len(store.history) == 2
        store.restore_capture(capture)
        assert len(store.history) == 1
        assert store.committed_get("k") == 1
        assert store._versions == {"k": 1}

    def test_kill_aborts_only_that_origins_transactions(self):
        store, a, b = self.two_owner_store()
        mine = store.begin(a.name, "mine", declared=((), ("x",)))
        store.acquire(mine, "x", LockMode.EXCLUSIVE, None)
        mine.write("x", 1)
        theirs = store.begin(b.name, "theirs", declared=((), ("y",)))
        store.acquire(theirs, "y", LockMode.EXCLUSIVE, None)
        a.dead = True
        store.on_task_killed(a)
        assert mine.status is TxnStatus.ABORTED
        assert theirs.status is TxnStatus.ACTIVE
        assert store.committed_get("x", "absent") == "absent"


class TestDigestAndReset:
    def test_digest_tracks_history(self):
        store = make_store()
        empty = store.digest()
        txn = store.begin("p0", "op", declared=((), ("a",)))
        store.acquire(txn, "a", LockMode.EXCLUSIVE, None)
        txn.write("a", 1)
        run_to_completion(store, txn)
        assert store.digest() != empty
        assert store.digest() == store.digest()

    def test_reset_wipes_everything(self):
        store = make_store()
        txn = store.begin("p0", "op", declared=((), ("a",)))
        store.acquire(txn, "a", LockMode.EXCLUSIVE, None)
        txn.write("a", 1)
        run_to_completion(store, txn)
        pending = store.begin("p0", "pending", declared=((), ("b",)))
        store.acquire(pending, "b", LockMode.EXCLUSIVE, None)
        store.reset()
        assert store.history == []
        assert store.committed_items() == {}
        assert pending.status is TxnStatus.ABORTED
        assert store.active_count == 0


class TestRun:
    """``TxnStateStore.run``: one call per ordered transaction."""

    def kernel_store(self):
        kernel = Kernel()
        store = make_store()
        store._kernel = kernel
        return kernel, store

    def test_uncontended_run_commits_after_commit_cost(self):
        kernel, store = self.kernel_store()
        done = []

        def body(txn, value):
            txn.write("a", txn.read("a", 0) + value)
            return txn.op_id

        keys = frozenset({"a"})
        store.run("p0", "op-1", (keys, keys), body, 5, lambda out: done.append((kernel.now(), out)))
        assert not done and store._locks == {"a": {1: LockMode.EXCLUSIVE}}
        kernel.run()
        assert done == [(pytest.approx(COMMIT_BASE_COST), "op-1")]
        assert store.committed_items() == {"a": 5}
        assert store._locks == {} and store._waiters == {}

    def test_shared_request_queues_behind_a_waiting_writer(self):
        # r1 holds S on k; w waits for X; r2's S would fit beside r1 but
        # must queue behind w (strict FIFO), so commits land r1, w, r2.
        kernel, store = self.kernel_store()
        order = []
        reads, writes = frozenset({"k"}), frozenset()

        def reader(txn, value):
            txn.read("k")
            return value

        def writer(txn, value):
            txn.write("k", value)
            return value

        store.run("p0", "r1", (reads, writes), reader, "r1", order.append)
        store.run("p1", "w", (writes, reads), writer, "w", order.append)
        store.run("p0", "r2", (reads, writes), reader, "r2", order.append)
        assert [t.op_id for t, _m, _c in store._waiters["k"]] == ["w", "r2"]
        kernel.run()
        assert order == ["r1", "w", "r2"]
        assert store._locks == {} and store._waiters == {}

    def test_raising_body_aborts_and_propagates(self):
        kernel, store = self.kernel_store()

        def body(txn, value):
            txn.write("a", 1)
            raise ValueError("boom")

        keys = frozenset({"a"})
        with pytest.raises(ValueError):
            store.run("p0", "op", (keys, keys), body, None, lambda out: None)
        assert store.aborted == 1 and store.committed_items() == {}
        assert store._locks == {}


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [("max_retries", 0)])
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(TransactionError, match=field):
            TxnConfig(**{field: value})

    def test_rejects_unknown_discipline(self):
        with pytest.raises(TransactionError):
            TxnConfig(locking="optimistic")

    def test_is_frozen(self):
        config = TxnConfig()
        with pytest.raises(AttributeError):
            config.locking = "nowait"
