"""The transact node's drain hold end to end: a transaction that ends
without a commit releases it too, so no owner stays wedged behind its own
mailbox."""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import EngineConfig

RAISING_OP = "t7"


def transfer(txn, value):
    if value["op"] == RAISING_OP:
        raise ValueError(f"user bug in {RAISING_OP}")
    txn.write("a", txn.read("a", 100) - 1)
    txn.write("b", txn.read("b", 100) + 1)
    return value["op"]


def one_pair_job(count):
    """``count`` transfers on one account pair over two ordered-locking
    subtasks, so most transactions wait for the pair's locks."""
    env = StreamExecutionEnvironment(EngineConfig(), name="raise-after-wait")
    sink = CollectSink("out")
    records = [{"op": f"t{i}"} for i in range(count)]
    stream = (
        env.from_workload(CollectionWorkload(records, rate=10_000.0), name="src")
        .rebalance()
        .transact(
            transfer,
            keys_fn=lambda value: ("a", "b"),
            op_id_fn=lambda value: value["op"],
            name="txn",
            parallelism=2,
        )
    )
    stream.sink(sink, name="out", parallelism=1)
    return env, env.build(), stream.txn_store, sink


def test_a_body_raising_after_a_lock_wait_releases_its_hold():
    # The body of t7 runs in the continuation of a lock wait, a kernel event
    # of its own: the transaction aborts and the ValueError leaves that
    # event. The hold must be gone by then, or the owner never pulls again.
    env, engine, store, sink = one_pair_job(40)
    with pytest.raises(ValueError, match=RAISING_OP):
        env.execute()
    engine.kernel.run()  # carry on after the user's exception
    assert store.committed == 39 and store.aborted == 1 and store.active_count == 0
    assert sorted(r.value for r in sink.results) == sorted(f"t{i}" for i in range(40) if i != 7)
    assert store.committed_items() == {"a": 61, "b": 139}
    assert all(task.mailbox_size == 0 for task in engine.tasks_of("txn"))
    assert engine.job_finished

