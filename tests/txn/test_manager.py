"""The lock manager in NO-WAIT mode: strict 2PL semantics of
:class:`~repro.txn.store.TxnStateStore` driven a step at a time, the
transact operator's retry loop end to end, and a serializability check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.oracles import MetricInvariantOracle
from repro.core.datastream import StreamExecutionEnvironment
from repro.errors import TransactionAborted, TransactionError
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import EngineConfig
from repro.txn.store import LockMode, TxnConfig, TxnStateStore, TxnStatus


def make_store():
    return TxnStateStore("s", partitions=4, config=TxnConfig(locking="nowait"))


def commit(store, txn):
    store.finish_attempt(txn)  # no kernel: the commit lands synchronously


class TestBasics:
    def test_commit_makes_writes_visible(self):
        store = make_store()
        txn = store.begin("p0", "op")
        txn.write("a", 1)
        commit(store, txn)
        assert store.committed_get("a") == 1
        assert store.committed == 1

    def test_abort_rolls_back(self):
        store = make_store()
        seed = store.begin("p0", "seed")
        seed.write("a", 1)
        commit(store, seed)
        txn = store.begin("p0", "doomed")
        txn.write("a", 99)
        txn.write("b", 1)
        store.abort(txn)
        assert store.committed_get("a") == 1
        assert store.committed_get("b") is None
        assert store.committed_items() == {"a": 1}

    def test_operations_on_finished_txn_rejected(self):
        store = make_store()
        txn = store.begin("p0", "op")
        commit(store, txn)
        with pytest.raises(TransactionError):
            txn.read("a")
        with pytest.raises(TransactionError):
            txn.write("a", 1)
        with pytest.raises(TransactionError):
            store.abort(txn)
        with pytest.raises(TransactionError):
            store.finish_attempt(txn)

    def test_read_own_writes(self):
        store = make_store()
        txn = store.begin("p0", "op")
        txn.write("a", 5)
        assert txn.read("a") == 5
        assert txn.reads == {}  # an own write is not an external read
        commit(store, txn)


class TestLocking:
    def test_write_write_conflict_aborts_requester(self):
        store = make_store()
        t1 = store.begin("p0", "t1")
        t2 = store.begin("p1", "t2")
        t1.write("a", 1)
        with pytest.raises(TransactionAborted):
            t2.write("a", 2)
        assert t2.status is TxnStatus.ABORTED
        commit(store, t1)
        assert store.committed_get("a") == 1

    def test_read_write_conflict(self):
        store = make_store()
        t1 = store.begin("p0", "t1")
        t2 = store.begin("p1", "t2")
        t1.read("a")
        with pytest.raises(TransactionAborted):
            t2.write("a", 2)
        assert t2.status is TxnStatus.ABORTED
        # and the other way round: a held X lock refuses a reader
        t3 = store.begin("p0", "t3")
        t4 = store.begin("p1", "t4")
        t3.write("b", 1)
        with pytest.raises(TransactionAborted):
            t4.read("b")
        assert t4.status is TxnStatus.ABORTED

    def test_shared_reads_coexist(self):
        store = make_store()
        t1 = store.begin("p0", "t1")
        t2 = store.begin("p1", "t2")
        t1.read("a")
        t2.read("a")  # no conflict
        assert store._locks["a"] == {t1.txn_id: LockMode.SHARED, t2.txn_id: LockMode.SHARED}
        commit(store, t1)
        commit(store, t2)
        assert store.committed == 2 and store.aborted == 0

    def test_lock_upgrade_within_txn(self):
        store = make_store()
        txn = store.begin("p0", "op")
        txn.read("a")
        txn.write("a", 1)  # S → X upgrade, same txn
        assert txn.locks["a"] is LockMode.EXCLUSIVE
        commit(store, txn)
        assert store.committed_get("a") == 1

    def test_locks_released_on_commit(self):
        store = make_store()
        t1 = store.begin("p0", "t1")
        t1.write("a", 1)
        commit(store, t1)
        assert store._locks == {}
        t2 = store.begin("p1", "t2")
        t2.write("a", 2)  # no conflict after release
        commit(store, t2)
        assert store.committed_get("a") == 2


def hot_key_job(count, body, max_retries, parallelism=2):
    """``count`` records through a NO-WAIT transact node whose subtasks all
    contend for the same keys."""
    env = StreamExecutionEnvironment(EngineConfig(), name="nowait-retry")
    sink = CollectSink("out")
    stream = (
        env.from_workload(CollectionWorkload(list(range(count)), rate=10_000.0), name="src")
        .rebalance()
        .transact(
            body,
            name="txn",
            parallelism=parallelism,
            txn_config=TxnConfig(locking="nowait", max_retries=max_retries),
        )
    )
    stream.sink(sink, name="out", parallelism=1)
    return env, stream.txn_store, sink


def deposit(txn, value):
    txn.write("hot", txn.read("hot", 0) + 1)
    return value


class TestRetryLoop:
    def test_run_retries_until_success(self):
        env, store, sink = hot_key_job(400, deposit, max_retries=100)
        env.execute()
        assert store.retries > 0  # the hot key did collide
        assert store.committed == 400
        assert store.committed_items() == {"hot": 400}
        assert sorted(r.value for r in sink.results) == list(range(400))

    def test_run_gives_up_after_max_retries(self):
        # A give-up drops the record; it is counted in the owning task's
        # ``dropped`` so record conservation still balances.
        env, store, sink = hot_key_job(400, deposit, max_retries=1)
        engine = env.build()
        env.execute()
        dropped = sum(task.metrics.dropped for task in engine.tasks_of("txn"))
        assert dropped > 0
        assert len(sink.results) + dropped == 400
        assert store.committed == len(sink.results)
        assert store.committed_items() == {"hot": store.committed}
        assert MetricInvariantOracle(conserves_records=True).finish(engine) == []

    def test_non_abort_exceptions_propagate_and_rollback(self):
        def body(txn, value):
            txn.write("a", txn.read("a", 0) + 1)
            if value == 3:
                raise ValueError("user bug")
            return value

        env, store, sink = hot_key_job(6, body, max_retries=25, parallelism=1)
        with pytest.raises(ValueError, match="user bug"):
            env.execute()
        # records 0..2 committed; record 3's write was rolled back
        assert store.committed_items() == {"a": 3}
        assert store.aborted == 1 and store.active_count == 0
        assert store._locks == {}


@settings(max_examples=40, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=20),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_transfer_invariant_preserved(transfers):
    """Property: transfers conserve the total balance (serializability's
    observable consequence here), and the committed history replays to
    the committed state."""
    store = make_store()
    accounts = 4
    init = store.begin("p0", "init")
    for account in range(accounts):
        init.write(account, 100)
    commit(store, init)

    for seq, (src, dst, amount) in enumerate(transfers):
        txn = store.begin("p0", seq)
        balance = txn.read(src)
        if balance >= amount:
            txn.write(src, balance - amount)
            txn.write(dst, txn.read(dst) + amount)
        commit(store, txn)

    assert sum(store.committed_items().values()) == 100 * accounts
    replayed = {}
    for entry in store.history:
        for key, _version, value in entry.writes:
            replayed[key] = value
    assert replayed == store.committed_items()
