"""Incremental checkpointing wired into the engine: change tracking attached
to backends, delta records, chain recovery, rebase bounds, and equivalence
with full snapshots."""

import pytest

from repro.checkpoint import IncrementalSnapshotter
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.state import InMemoryStateBackend, ValueStateDescriptor


def keyed_count_env(config, count=400, sink=None):
    env = StreamExecutionEnvironment(config, name="t")
    sink = sink or CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=2000.0, key_count=8, seed=3))
        .key_by(field_selector("sensor"), parallelism=2)
        .aggregate(
            create=lambda: 0, add=lambda acc, _v: acc + 1, name="count", parallelism=2
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


def incremental_config(**kwargs):
    return EngineConfig(
        checkpoints=CheckpointConfig(interval=0.05, incremental=True, **kwargs)
    )


class TestWiring:
    def test_backends_track_changes_when_incremental(self):
        env, _sink = keyed_count_env(incremental_config())
        engine = env.build()
        assert engine.coordinator.store is not None
        for task in engine.plan.subtasks("count"):
            # the backend itself sits on the access path, not a wrapper
            assert isinstance(task.state_backend, InMemoryStateBackend)
            assert isinstance(task.state_backend.snapshotter, IncrementalSnapshotter)
            assert task.state_backend.snapshotter.backend is task.state_backend

    def test_backends_untouched_by_default(self):
        env, _sink = keyed_count_env(
            EngineConfig(checkpoints=CheckpointConfig(interval=0.05))
        )
        engine = env.build()
        assert engine.coordinator.store is None
        for task in engine.plan.subtasks("count"):
            assert task.state_backend.snapshotter is None

    def test_records_carry_deltas(self):
        env, _sink = keyed_count_env(incremental_config())
        engine = env.build()
        env.execute()
        record = engine.latest_checkpoint()
        deltas = [
            snapshot.delta
            for name, snapshot in record.snapshots.items()
            if name.startswith("count")
        ]
        assert all(delta is not None for delta in deltas)
        # sized from the delta, not the full keyed dict
        for name, snapshot in record.snapshots.items():
            if snapshot.delta is not None:
                assert not snapshot.keyed_state
                assert snapshot.size_bytes() == snapshot.delta.size_bytes() + 64


class TestChainBounds:
    def test_rebase_bounds_segment_length(self):
        env, _sink = keyed_count_env(incremental_config(max_chain_length=3), count=800)
        engine = env.build()
        env.execute()
        store = engine.coordinator.store
        assert store.rebases >= 1
        assert store.max_segment_length() <= 3

    def test_compaction_prunes_dead_links(self):
        # 32 rounds: most fall behind the RETAINED_CHECKPOINTS window
        env, _sink = keyed_count_env(incremental_config(max_chain_length=2), count=1600)
        engine = env.build()
        env.execute()
        store = engine.coordinator.store
        assert store.links_pruned > 0
        for task in engine.plan.subtasks("count"):
            # never more than one dead segment plus the live one
            assert store.chain_length(task.name) <= 2 * 2 + 1


class TestEquivalence:
    def run_once(self, incremental):
        config = EngineConfig(
            checkpoints=CheckpointConfig(
                interval=0.05,
                incremental=incremental,
                write_base_cost=0.0,
                write_cost_per_byte=0.0,
            )
        )
        env, sink = keyed_count_env(config, sink=TransactionalSink("out"))
        engine = env.build()

        def fail():
            engine.kill_task("count[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.12, fail)
        env.execute(until=30.0)
        return engine, sink

    @staticmethod
    def comparable_metrics(engine):
        metrics = engine.obs.registry.snapshot()["metrics"]
        return {
            path: value
            for path, value in metrics.items()
            if "/checkpoint/0/" not in path
        }

    def test_incremental_recovery_is_byte_identical_to_full(self):
        """With storage costs zeroed the two modes must produce the same
        timeline: identical committed sink output and identical metric
        snapshots (modulo the checkpoint-internals scope that only exists in
        incremental mode)."""
        full_engine, full_sink = self.run_once(incremental=False)
        inc_engine, inc_sink = self.run_once(incremental=True)
        assert [(r.key, r.value) for r in full_sink.committed] == [
            (r.key, r.value) for r in inc_sink.committed
        ]
        assert self.comparable_metrics(full_engine) == self.comparable_metrics(
            inc_engine
        )

    def test_chain_restore_matches_full_snapshot_state(self):
        """Folding the base+delta chain into a fresh backend reproduces, entry
        for entry, the classic full snapshot a twin full-mode run captured at
        the same checkpoint id."""
        from repro.checkpoint import restore_chain

        def run(incremental):
            config = EngineConfig(
                checkpoints=CheckpointConfig(
                    interval=0.05,
                    incremental=incremental,
                    write_base_cost=0.0,
                    write_cost_per_byte=0.0,
                )
            )
            env, _sink = keyed_count_env(config)
            engine = env.build()
            env.execute()
            return engine

        full_engine = run(incremental=False)
        inc_engine = run(incremental=True)
        full_record = full_engine.latest_checkpoint()
        inc_record = inc_engine.latest_checkpoint()
        assert full_record.checkpoint_id == inc_record.checkpoint_id
        store = inc_engine.coordinator.store
        for task in inc_engine.plan.subtasks("count"):
            snapshot = inc_record.snapshots[task.name]
            target = InMemoryStateBackend()
            for descriptor in task.state_backend.descriptors():
                target.register(descriptor)
            restore_chain(target, store.chain_to(task.name, snapshot.delta))
            restored = {k: v for k, v in target.snapshot().items() if v}
            expected = {
                k: v
                for k, v in full_record.snapshots[task.name].keyed_state.items()
                if v
            }
            assert restored == expected


VALUE = ValueStateDescriptor("seen")


class TestSurvivingBackendRestore:
    """Regression: a rollback must *replace* live state, not merge into it.

    An NVRAM-style backend survives its task's kill; the recovery path
    re-attaches the same object and restores onto contents that already
    advanced past the checkpoint. A key written after the checkpoint must
    not leak into the restored state."""

    @pytest.mark.parametrize("incremental", [False, True])
    def test_delete_then_kill_restores_exact_checkpoint_state(self, incremental):
        from repro.state import PersistentMemoryBackend

        config = EngineConfig(
            checkpoints=CheckpointConfig(interval=1.1, incremental=incremental)
        )
        env = StreamExecutionEnvironment(config, name="t")

        def apply(record, ctx):
            action, _key = record.value
            handle = ctx.state(VALUE)
            if action == "put":
                handle.update(ctx.current_key)
            else:
                handle.clear()

        (
            env.from_collection(
                [("put", "a"), ("put", "b"), ("del", "b"), ("put", "c"), ("put", "z")],
                rate=2.0,
            )
            .key_by(lambda value: value[1], parallelism=1)
            .process(
                apply, name="proc", state_backend_factory=PersistentMemoryBackend
            )
            .sink(CollectSink("out"))
        )
        engine = env.build()
        probed = {}

        def fail():
            # after "del b" and "put c" but before the second checkpoint; the
            # NVRAM backend object survives the kill with {a, c} live
            engine.kill_task("proc[0]")
            engine.recover_from_checkpoint()

        def probe():
            backend = engine.plan.subtasks("proc")[0].state_backend
            for key in ("a", "b", "c"):
                probed[key] = backend.get(VALUE, key)

        engine.kernel.call_at(2.1, fail)
        engine.kernel.call_at(2.3, probe)  # after restore, before replay
        env.execute(until=30.0)
        # the checkpoint captured exactly {a, b}; the old merge-style restore
        # never cleared the surviving backend, so c leaked through recovery
        assert probed == {"a": "a", "b": "b", "c": None}
