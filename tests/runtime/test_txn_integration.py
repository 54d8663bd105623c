"""Engine integration of the transactional state store: checkpoints,
kill/recovery, scratch restart, queryable access, metric exposure, and the
region-coupling recovery guard."""

import hashlib

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.errors import QueryableStateError, RecoveryError
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.queryable.server import QueryableStateService
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.txn.store import TxnConfig, TxnStateStore

BALANCE = 100
ACCOUNTS = [f"acct-{i}" for i in range(8)]


def transfer_ops(count):
    ops = []
    for i in range(count):
        src = ACCOUNTS[(i * 5) % len(ACCOUNTS)]
        dst = ACCOUNTS[(i * 5 + 3) % len(ACCOUNTS)]
        ops.append((f"t{i}", src, dst, 1 + (i % 9)))
    return ops


def transfer_body(handle, value):
    op_id, src, dst, amount = value
    handle.write(src, handle.read(src, BALANCE) - amount)
    handle.write(dst, handle.read(dst, BALANCE) + amount)
    return op_id


def build_transfer_job(config=None, count=120, parallelism=2, store=None, rate=2000.0):
    env = StreamExecutionEnvironment(config or EngineConfig(), name="txn-integration")
    sink = CollectSink("out")
    store = store or TxnStateStore("accounts", partitions=4)
    (
        env.from_workload(CollectionWorkload(transfer_ops(count), rate=rate), name="src")
        .transact(
            transfer_body,
            keys_fn=lambda v: [v[1], v[2]],
            store=store,
            op_id_fn=lambda v: v[0],
            name="txn",
            parallelism=parallelism,
        )
        .sink(sink, name="out", parallelism=1)
    )
    return env, store, sink


def assert_conserved(store):
    items = store.committed_items()
    assert items, "no accounts committed"
    assert sum(items.values()) == BALANCE * len(items)


class TestCleanRun:
    def test_every_record_commits_exactly_once(self):
        env, store, sink = build_transfer_job(count=80)
        env.execute()
        assert store.committed == 80
        assert store.aborted == 0
        assert len(store.history) == 80
        assert len({e.op_id for e in store.history}) == 80
        assert sorted(r.value for r in sink.results) == sorted(f"t{i}" for i in range(80))
        assert_conserved(store)

    def test_transact_node_is_not_chained(self):
        env, store, _sink = build_transfer_job(count=10, parallelism=1)
        engine = env.build()
        # The transact task must run standalone: a fused ChainedOperator
        # would hide the txn_gate attribute from the barrier machinery.
        for task in engine.tasks_of("txn"):
            assert getattr(task.operator, "txn_gate", None) is store
        env.execute()
        assert store.committed == 10


class TestDispatchOrder:
    def test_ordered_output_and_lock_waits_match_the_hop_per_item_run_loop(self):
        """A transactional task may not begin its next txn ahead of a
        sibling's same-instant commit / lock release. The fixture was taken
        from the run loop that dispatched every mailbox item through a
        ``call_soon`` hop; inlining that hop unconditionally turns 199 lock
        waits into 51 here and reorders the sink."""
        env, store, sink = build_transfer_job(count=200, rate=20000.0)
        engine = env.build()
        env.execute()
        ordered = [(r.value, r.emitted_at) for r in sink.results]
        assert hashlib.sha256(repr(ordered).encode()).hexdigest() == (
            "b274ea268d6cafb796a724f19b9e0661320a333bb399ef65ea96604ce0be2b32"
        )
        metrics = engine.metrics_snapshot()["metrics"]
        assert metrics[f"{engine.obs.registry.job}/txn/accounts/0/lock_wait_seconds"] == {
            "count": 199,
            "max": 0.00030000000000000165,
            "mean": 0.0002746231155778901,
            "min": 0.0001999999999999988,
            "p50": 0.00030000000000000165,
            "p95": 0.00030000000000000165,
            "p99": 0.00030000000000000165,
        }
        assert store.committed == 200


class TestCheckpointAndRecovery:
    def checkpointed_config(self):
        return EngineConfig(checkpoints=CheckpointConfig(interval=0.02))

    def test_checkpoints_complete_through_the_fence(self):
        env, store, _sink = build_transfer_job(self.checkpointed_config(), count=120)
        engine = env.build()
        env.execute()
        assert engine.completed_checkpoints, "no checkpoint completed"
        assert store.committed == 120
        assert_conserved(store)

    def test_kill_and_recover_preserves_exactly_once_effects(self):
        env, store, sink = build_transfer_job(self.checkpointed_config(), count=150)
        engine = env.build()
        engine.kernel.call_at(0.03, lambda: engine.kill_task("txn[0]"))
        engine.kernel.call_at(0.036, lambda: engine.recover_from_checkpoint())
        env.execute(until=30.0)
        assert engine.job_finished
        # State-level exactly-once: the surviving history holds each op once.
        assert len(store.history) == 150
        assert len({e.op_id for e in store.history}) == 150
        assert_conserved(store)
        # Sink output is at-least-once raw (CollectSink): no op lost.
        assert {r.value for r in sink.results} == {f"t{i}" for i in range(150)}

    def test_restart_from_scratch_resets_the_store(self):
        env, store, _sink = build_transfer_job(self.checkpointed_config(), count=100)
        engine = env.build()
        engine.kernel.call_at(0.025, lambda: engine.kill_task("txn[1]"))
        engine.kernel.call_at(0.03, lambda: engine.restart_from_scratch())
        env.execute(until=30.0)
        assert engine.job_finished
        # A scratch restart rewinds sources to offset zero; the shared store
        # must rewind with them or replays would double-apply transfers.
        assert len(store.history) == 100
        assert len({e.op_id for e in store.history}) == 100
        assert_conserved(store)

    def test_regional_recovery_refuses_partial_scope(self):
        env, store, _sink = build_transfer_job(self.checkpointed_config(), count=60)
        engine = env.build()
        errors = []

        def try_regional():
            engine.kill_task("txn[0]")
            try:
                engine.recover_region(["txn[0]"])
            except RecoveryError as exc:
                errors.append(str(exc))
                engine.recover_from_checkpoint()

        engine.kernel.call_at(0.03, try_regional)
        env.execute(until=30.0)
        assert errors and "couples failover regions" in errors[0]
        assert engine.job_finished
        assert_conserved(store)


class TestQueryableAndMetrics:
    def test_query_txn_serves_committed_view(self):
        env, store, _sink = build_transfer_job(count=60)
        engine = env.build()
        service = QueryableStateService(engine)
        probes = []

        def probe():
            probes.append(dict(service.query_txn("accounts")))

        engine.kernel.call_at(0.02, probe)
        env.execute()
        # Mid-run probe saw a conserved committed view, never a torn one.
        assert probes and sum(probes[0].values()) == BALANCE * len(probes[0])
        final = service.query_txn("accounts")
        assert final == store.committed_items()
        one = service.query_txn("accounts", key=ACCOUNTS[0], default="absent")
        assert one == final.get(ACCOUNTS[0], "absent")

    def test_query_txn_unknown_store_raises(self):
        env, _store, _sink = build_transfer_job(count=5)
        engine = env.build()
        service = QueryableStateService(engine)
        with pytest.raises(QueryableStateError):
            service.query_txn("no-such-store")

    def test_txn_metrics_exposed_in_snapshot_and_query(self):
        env, store, _sink = build_transfer_job(count=40)
        engine = env.build()
        env.execute()
        metrics = engine.metrics_snapshot()["metrics"]
        prefix = f"{engine.obs.registry.job}/txn/accounts/0"
        assert metrics[f"{prefix}/commits"] == 40
        assert metrics[f"{prefix}/aborts"] == 0
        assert metrics[f"{prefix}/committed_surviving"] == 40
        # The same paths answer through the external query façade.
        service = QueryableStateService(engine)
        fragment = service.query_metrics("txn/accounts")
        assert f"{prefix}/commits" in fragment["metrics"]

    def test_transaction_manager_metrics_bind(self):
        from repro.obs.registry import MetricRegistry
        from repro.txn.manager import TransactionManager

        registry = MetricRegistry("job")
        manager = TransactionManager()
        manager.bind_metrics(registry, "job/txn/lib/0")
        manager.run(lambda txn: manager.write(txn, "k", 1))
        txn = manager.begin()
        manager.write(txn, "k", 2)
        manager.abort(txn)
        snapshot = registry.snapshot(0.0)["metrics"]
        assert snapshot["job/txn/lib/0/commits"] == 1
        assert snapshot["job/txn/lib/0/aborts"] == 1
        assert snapshot["job/txn/lib/0/active"] == 0


class TestNowaitEngine:
    def test_nowait_converges_under_contention(self):
        store = TxnStateStore(
            "hot", partitions=2, config=TxnConfig(locking="nowait", max_retries=100)
        )
        env = StreamExecutionEnvironment(EngineConfig(), name="nowait-job")
        sink = CollectSink("out")
        ops = [(f"n{i}", "hot-key", ACCOUNTS[i % 4], 1) for i in range(60)]
        (
            env.from_workload(CollectionWorkload(ops, rate=3000.0), name="src")
            .transact(
                transfer_body,
                store=store,
                op_id_fn=lambda v: v[0],
                name="txn",
                parallelism=2,
            )
            .sink(sink, name="out", parallelism=1)
        )
        env.execute()
        assert store.committed == 60
        assert len({e.op_id for e in store.history}) == 60
        assert_conserved(store)
