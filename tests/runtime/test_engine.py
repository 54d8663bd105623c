"""Engine-level behaviour: partitioning, checkpoints, recovery, guarantees."""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import DEFAULT_MAX_PARALLELISM, field_selector, subtask_for_key
from repro.errors import CheckpointError
from repro.fault.guarantees import audit_delivery
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, CheckpointMode, EngineConfig


def keyed_count_env(config=None, count=500, sink=None):
    env = StreamExecutionEnvironment(config or EngineConfig(), name="t")
    sink = sink or CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=2000.0, key_count=8, seed=3))
        .key_by(field_selector("sensor"), parallelism=2)
        .aggregate(
            create=lambda: 0,
            add=lambda acc, _v: acc + 1,
            name="count",
            parallelism=2,
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


class TestPartitioning:
    def test_hash_partitioning_routes_by_key_group(self):
        env, sink = keyed_count_env()
        engine = env.build()
        env.execute()
        count_tasks = engine.plan.subtasks("count")
        # Each subtask only saw keys it owns.
        for task in count_tasks:
            for key in task.state_backend.keys(task.operator._descriptor):
                assert subtask_for_key(key, 2, DEFAULT_MAX_PARALLELISM) == task.subtask_index

    def test_final_counts_sum_to_input(self):
        env, sink = keyed_count_env()
        env.execute()
        finals = {}
        for result in sink.results:
            finals[result.key] = result.value
        assert sum(finals.values()) == 500


class TestCheckpoints:
    def make(self, mode=CheckpointMode.ALIGNED):
        config = EngineConfig(
            checkpoints=CheckpointConfig(interval=0.05, mode=mode),
        )
        return keyed_count_env(config)

    def test_checkpoints_complete_during_run(self):
        env, _sink = self.make()
        engine = env.build()
        env.execute()
        assert engine.coordinator.completed
        record = engine.latest_checkpoint()
        assert record.complete
        # Every live task snapshotted: source + key_by(2) + count(2) + sink.
        assert len(record.snapshots) == 6

    def test_snapshot_contains_keyed_state(self):
        env, _sink = self.make()
        engine = env.build()
        env.execute()
        record = engine.latest_checkpoint()
        count_snapshots = [s for name, s in record.snapshots.items() if name.startswith("count")]
        assert any(s.keyed_state.get("count-acc") for s in count_snapshots)

    def test_unaligned_mode_also_completes(self):
        env, _sink = self.make(CheckpointMode.UNALIGNED)
        engine = env.build()
        env.execute()
        assert engine.coordinator.completed

    def test_recover_without_checkpoint_raises(self):
        env, _sink = keyed_count_env()
        engine = env.build()
        with pytest.raises(CheckpointError):
            engine.recover_from_checkpoint()


class TestFailureRecovery:
    def run_with_failure(self, guarantee_sink, mode=CheckpointMode.ALIGNED, recover=True):
        config = EngineConfig(
            checkpoints=CheckpointConfig(interval=0.05, mode=mode),
        )
        env, sink = keyed_count_env(config, count=400, sink=guarantee_sink)
        engine = env.build()

        def fail():
            engine.kill_task("count[0]")
            if recover:
                engine.recover_from_checkpoint()

        engine.kernel.call_at(0.12, fail)
        env.execute(until=30.0)
        return engine, sink

    def test_exactly_once_with_transactional_sink(self):
        sink = TransactionalSink("out")
        engine, sink = self.run_with_failure(sink)
        # The count operator emits running counts; the final (max) count per
        # key must match a failure-free run exactly.
        per_key: dict = {}
        for result in sink.committed:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 400

    def test_at_least_once_replays_duplicates(self):
        sink = CollectSink("out")
        engine, sink = self.run_with_failure(sink, mode=CheckpointMode.UNALIGNED)
        per_key: dict = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        # No data loss: every input is counted at least once.
        assert sum(per_key.values()) >= 400
        # Replay means the sink observed more emissions than a clean run.
        audit = audit_delivery(range(400), range(len(sink.results)))
        assert len(sink.results) >= 400

    def test_task_metrics_record_failure_and_restore(self):
        sink = CollectSink("out")
        engine, _sink = self.run_with_failure(sink)
        metrics = engine.metrics.tasks["count[0]"]
        assert metrics.failures == 1
        assert metrics.restored_at


class TestSideOutputs:
    def test_late_records_reach_side_output(self):
        from repro.windows.assigners import TumblingEventTimeWindows

        env = StreamExecutionEnvironment(EngineConfig())
        sink = CollectSink("out")
        (
            env.from_workload(
                SensorWorkload(count=800, rate=4000.0, disorder=0.4, key_count=4, seed=9),
                watermarks=BoundedOutOfOrderness(0.01),  # tight bound → lates
            )
            .key_by(field_selector("sensor"))
            .window(TumblingEventTimeWindows(0.05))
            .count()
            .sink(sink)
        )
        result = env.execute()
        late = result.side_output("window-count", "late")
        assert late, "expected late records with a too-tight watermark bound"
        assert len(late) + sum(r.value.value for r in sink.results) == 800
