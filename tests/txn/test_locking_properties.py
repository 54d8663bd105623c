"""Property suite for the transactional lock manager (hypothesis).

Three properties:

* **no deadlock** — any set of concurrent transactions acquiring locks in
  global order completes: every transaction commits, none waits forever;
* **exact rollback** — aborting a transaction restores the byte-exact
  pre-image of the store, whatever it wrote over whatever was there;
* **discipline equivalence** — on single-partition workloads with
  commutative bodies, NO-WAIT (abort+retry) and ordered locking (wait,
  never abort) produce the same committed state and the same output
  multiset end to end through the engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import EngineConfig
from repro.sim.kernel import Kernel
from repro.txn.store import TxnConfig, TxnStateStore, TxnStatus

KEYS = ["k0", "k1", "k2", "k3", "k4", "k5"]

keyset = st.frozensets(st.sampled_from(KEYS), min_size=1, max_size=4)


def drive_concurrent(keysets):
    """Run one increment-txn per key set, all in flight together, on a
    bare kernel (no engine): returns (store, committed op ids)."""
    kernel = Kernel()
    store = TxnStateStore("props", partitions=4)
    store._kernel = kernel
    committed = []

    def start(op, keys):
        txn = store.begin("p", op, declared=(keys, keys))
        plan = store.lock_plan(txn)

        def acquire_from(index):
            while index < len(plan):
                key, mode = plan[index]
                if not store.acquire(
                    txn, key, mode, lambda i=index: acquire_from(i + 1)
                ):
                    return  # parked; continuation resumes at i+1
                index += 1
            for key in sorted(keys, key=repr):
                txn.write(key, txn.read(key, 0) + 1)
            store.finish_attempt(txn, lambda: committed.append(op))

        acquire_from(0)

    for op, keys in enumerate(keysets):
        kernel.call_at(op * 1e-5, lambda op=op, keys=keys: start(op, keys))
    kernel.run()
    return store, committed


class TestNoDeadlock:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(keyset, min_size=1, max_size=12))
    def test_every_transaction_commits(self, keysets):
        store, committed = drive_concurrent(keysets)
        # Progress: nothing deadlocked, nothing was left waiting.
        assert sorted(committed) == list(range(len(keysets)))
        assert store.active_count == 0
        assert store._locks == {}

    @settings(max_examples=30, deadline=None)
    @given(st.lists(keyset, min_size=1, max_size=10))
    def test_increments_all_land(self, keysets):
        store, _ = drive_concurrent(keysets)
        expected = {}
        for keys in keysets:
            for key in keys:
                expected[key] = expected.get(key, 0) + 1
        assert store.committed_items() == expected


class TestExactRollback:
    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.dictionaries(st.sampled_from(KEYS), st.integers(-5, 5), max_size=6),
        writes=st.dictionaries(
            st.sampled_from(KEYS), st.integers(100, 200), min_size=1, max_size=6
        ),
    )
    def test_abort_restores_preimage(self, initial, writes):
        store = TxnStateStore("rollback", partitions=3)
        for key, value in initial.items():
            seed = store.begin("p", f"seed-{key}", declared=((), (key,)))
            for k, mode in store.lock_plan(seed):
                store.acquire(seed, k, mode, None)
            seed.write(key, value)
            store.finish_attempt(seed, None)
        before_items = store.committed_items()
        before_digest = store.digest()
        doomed = store.begin("p", "doomed", declared=((), frozenset(writes)))
        for key, mode in store.lock_plan(doomed):
            store.acquire(doomed, key, mode, None)
        for key, value in writes.items():
            doomed.write(key, value)
            doomed.write(key, value + 1)  # overwrite: undo keeps 1st pre-image
        store.abort(doomed)
        assert doomed.status is TxnStatus.ABORTED
        assert store.committed_items() == before_items
        assert store.digest() == before_digest


def run_engine(ops, locking):
    """One single-partition increment pipeline through the real engine."""
    sink = CollectSink("out")
    env = StreamExecutionEnvironment(EngineConfig(), name=f"prop-{locking}")
    store = TxnStateStore(
        f"prop-store-{locking}",
        partitions=1,
        config=TxnConfig(locking=locking, max_retries=100),
    )

    def body(handle, value):
        op_id, key, amount = value
        handle.write(key, handle.read(key, 0) + amount)
        return op_id

    (
        env.from_workload(CollectionWorkload(ops, rate=3000.0), name="src")
        .transact(
            body,
            keys_fn=lambda v: [v[1]],
            store=store,
            op_id_fn=lambda v: v[0],
            name="txn",
            parallelism=2,
        )
        .sink(sink, name="out", parallelism=1)
    )
    env.execute()
    return store, sorted(r.value for r in sink.results)


class TestDisciplineEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(KEYS), st.integers(1, 9)),
            min_size=1,
            max_size=20,
        )
    )
    def test_nowait_matches_ordered_on_single_partition(self, raw_ops):
        ops = [(f"op{i}", key, amount) for i, (key, amount) in enumerate(raw_ops)]
        ordered_store, ordered_out = run_engine(ops, "ordered")
        nowait_store, nowait_out = run_engine(ops, "nowait")
        assert ordered_store.committed_items() == nowait_store.committed_items()
        assert ordered_out == nowait_out == sorted(op[0] for op in ops)
        assert ordered_store.committed == len(ops)
        assert nowait_store.committed == len(ops)
        # Ordered never aborts; NO-WAIT may retry but must converge.
        assert ordered_store.aborted == 0
