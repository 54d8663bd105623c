"""E10 — §4.2 Transactions: S-Store-style ACID on shared mutable state.

Two parallel dataflow subtasks perform read-modify-write deposits against
one shared store. The transactional side runs on the engine's transact
path (``DataStream.transact`` over a ``TxnStateStore``, NO-WAIT locking
with retry): commits are deferred on the virtual clock, so transactions
overlap and collide, and isolation is paid for in retries and throughput.
The unsynchronized baseline is faster but loses updates.

Expected shape: transactional total is exact at every contention level;
retries climb and transactional throughput falls as contention rises; the
dirty baseline's lost-update count grows with contention.
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.io import CollectSink, CollectionWorkload
from repro.runtime.config import EngineConfig
from repro.txn import TxnConfig, UnisolatedOperator

EVENTS = 1200


def deposits(accounts):
    return CollectionWorkload(
        [{"account": f"acct{i % accounts}", "amount": 1} for i in range(EVENTS)],
        rate=10_000.0,
    )


def run_transactional(accounts, parallelism=2):
    env = StreamExecutionEnvironment(EngineConfig(seed=7), name="txn")

    def body(txn, value):
        account = value["account"]
        txn.write(account, txn.read(account, 0) + value["amount"])
        return account

    sink = CollectSink("out")
    stream = (
        env.from_workload(deposits(accounts))
        .rebalance()
        .transact(
            body,
            name="txn",
            parallelism=parallelism,
            txn_config=TxnConfig(locking="nowait", max_retries=100),
        )
    )
    stream.sink(sink, parallelism=1)
    env.execute(until=60.0)
    store = stream.txn_store
    total = sum(store.committed_items().values())
    makespan = max((r.emitted_at for r in sink.results), default=0.0)
    return {
        "mode": "transactional",
        "accounts": accounts,
        "total": total,
        "lost": EVENTS - total,
        "retries": store.retries,
        "throughput": EVENTS / makespan if makespan else 0.0,
    }


def run_dirty(accounts):
    balances = {}

    def write_phase(data, value, snapshot):
        data[value["account"]] = snapshot + value["amount"]
        return value["account"]

    env = StreamExecutionEnvironment(EngineConfig(seed=7), name="dirty")
    sink = CollectSink("out")
    (
        env.from_workload(deposits(accounts))
        .apply_operator(
            lambda: UnisolatedOperator(
                balances,
                read_phase=lambda data, value: data.get(value["account"], 0),
                write_phase=write_phase,
            ),
            name="dirty",
        )
        .sink(sink, parallelism=1)
    )
    env.execute(until=60.0)
    total = sum(balances.values())
    makespan = max((r.emitted_at for r in sink.results), default=0.0)
    return {
        "mode": "dirty (no isolation)",
        "accounts": accounts,
        "total": total,
        "lost": EVENTS - total,
        "retries": 0,
        "throughput": EVENTS / makespan if makespan else 0.0,
    }


def run_all():
    rows = []
    for accounts in (64, 8, 1):  # decreasing account count = rising contention
        rows.append(run_transactional(accounts))
        rows.append(run_dirty(accounts))
    return rows


def test_transactions(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E10 — ACID vs dirty shared state (1200 deposits, contention sweep)",
        ["mode", "hot accounts", "final total", "lost updates", "retries", "deposits/s"],
        [
            [r["mode"], r["accounts"], r["total"], r["lost"], r["retries"], fmt(r["throughput"], 0)]
            for r in rows
        ],
    )
    txn_rows = [r for r in rows if r["mode"] == "transactional"]
    dirty_rows = [r for r in rows if r["mode"] != "transactional"]
    # ACID: every deposit commits exactly once, at any contention level.
    assert all(r["total"] == EVENTS for r in txn_rows)
    # Isolation costs under contention: one hot account forces retries
    # that 64 accounts never need, and throughput falls with them.
    assert txn_rows[-1]["retries"] > txn_rows[0]["retries"]
    assert txn_rows[-1]["throughput"] < txn_rows[0]["throughput"]
    # The dirty baseline loses updates once operations collide.
    assert dirty_rows[-1]["lost"] > 0
    assert dirty_rows[-1]["lost"] >= dirty_rows[0]["lost"]
