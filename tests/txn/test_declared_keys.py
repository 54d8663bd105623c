"""``keys_fn`` answers: a 2-tuple is ``(reads, writes)`` only when both
members are key collections; a bare 2-tuple of keys is the key set."""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import EngineConfig
from repro.txn.operator import _declared_keys
from repro.txn.store import TxnStateStore


@pytest.mark.parametrize(
    "declared, reads, writes",
    [
        (("acct-1", "acct-2"), {"acct-1", "acct-2"}, {"acct-1", "acct-2"}),
        ((3, 7), {3, 7}, {3, 7}),
        (["a", "b"], {"a", "b"}, {"a", "b"}),
        ((("a", "b"), ()), {"a", "b"}, set()),
        (({"a"}, ["b"]), {"a"}, {"b"}),
        ((frozenset({"a"}), ("a", "b")), {"a"}, {"a", "b"}),
        (("a", "b", "c"), {"a", "b", "c"}, {"a", "b", "c"}),
    ],
)
def test_declared_keys(declared, reads, writes):
    assert _declared_keys(declared) == (frozenset(reads), frozenset(writes))


@pytest.mark.parametrize("accounts", [("acct-1", "acct-2", "acct-3"), (11, 12, 13)])
def test_a_bare_pair_of_accounts_runs_as_a_transfer(accounts):
    """``keys_fn=lambda v: (v[0], v[1])`` declares two accounts, read and
    written — not a read set and a write set of characters or ints."""
    a, b, c = accounts
    ops = [(a, b, 5), (b, c, 2), (c, a, 1), (a, c, 3)]

    def body(txn, value):
        src, dst, amount = value
        txn.write(src, txn.read(src, 100) - amount)
        txn.write(dst, txn.read(dst, 100) + amount)
        return value

    store = TxnStateStore("pairs", partitions=2)
    sink = CollectSink("out")
    env = StreamExecutionEnvironment(EngineConfig(), name="pairs")
    (
        env.from_workload(CollectionWorkload(ops, rate=1000.0), name="src")
        .transact(body, keys_fn=lambda v: (v[0], v[1]), store=store, name="txn", parallelism=2)
        .sink(sink, name="out", parallelism=1)
    )
    env.execute()
    assert store.committed == len(ops)
    assert store.committed_items() == {a: 100 - 5 + 1 - 3, b: 100 + 5 - 2, c: 100 + 2 - 1 + 3}
