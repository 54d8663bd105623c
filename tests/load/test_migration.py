"""Live rescaling: routing consistency, state migration, timer movement."""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector, key_group_for, subtask_for_key
from repro.errors import LoadManagementError
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload, SensorWorkload
from repro.load.migration import Rescaler
from repro.runtime.config import CheckpointConfig, EngineConfig


def build(parallelism=2, count=2000, rate=4000.0):
    env = StreamExecutionEnvironment(EngineConfig())
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=rate, key_count=16, seed=5))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=parallelism)
        .sink(sink, parallelism=1)
    )
    return env, sink


class TestScaleOut:
    def run_with_rescale(self, new_parallelism, mode="live"):
        env, sink = build()
        engine = env.build()
        rescaler = Rescaler(engine)
        report = {}

        def rescale():
            report["r"] = rescaler.rescale("count", new_parallelism, mode=mode)

        engine.kernel.call_at(0.2, rescale)
        env.execute(until=30.0)
        return engine, sink, report["r"]

    def test_counts_survive_scale_out(self):
        engine, sink, report = self.run_with_rescale(4)
        per_key = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 2000
        assert report.old_parallelism == 2
        assert report.new_parallelism == 4
        assert report.moved_entries > 0

    def test_keys_route_to_new_owners(self):
        engine, _sink, _report = self.run_with_rescale(4)
        tasks = engine.tasks_of("count")
        assert len(tasks) == 4
        for task in tasks:
            backend = task.state_backend
            for descriptor in backend.descriptors():
                for key in backend.keys(descriptor):
                    owner = subtask_for_key(key, 4, engine.config.max_parallelism)
                    assert owner == task.subtask_index

    def test_stop_restart_pauses_sources(self):
        engine, sink, report = self.run_with_rescale(4, mode="stop-restart")
        assert report.downtime > 0
        per_key = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 2000


class TestScaleIn:
    def test_counts_survive_scale_in(self):
        env, sink = build(parallelism=4)
        engine = env.build()
        rescaler = Rescaler(engine)
        engine.kernel.call_at(0.2, lambda: rescaler.rescale("count", 2, mode="live"))
        env.execute(until=30.0)
        per_key = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 2000
        assert len(engine.tasks_of("count")) == 2


class TestValidation:
    def test_source_rescale_rejected(self):
        env, _sink = build()
        engine = env.build()
        with pytest.raises(LoadManagementError):
            Rescaler(engine).rescale("source", 2)

    def test_zero_parallelism_rejected(self):
        env, _sink = build()
        engine = env.build()
        with pytest.raises(LoadManagementError):
            Rescaler(engine).rescale("count", 0)

    def test_chain_head_split_rejected(self):
        """A hot-group split on a fused chain is refused like a rescale: the
        records still queued for a moved key would otherwise meet the old
        owner's emptied state. The job runs on intact."""
        env = StreamExecutionEnvironment(
            EngineConfig(chaining_enabled=True, default_processing_cost=1e-4)
        )
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=4000, rate=40000.0, key_count=64, seed=5))
            .key_by(field_selector("sensor"), parallelism=2)
            .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=2)
            .map(lambda v: v, name="m", parallelism=2)
            .sink(sink, parallelism=1)
        )
        engine = env.build()
        engine.run(until=0.03)
        group = key_group_for("s32", engine.config.max_parallelism)
        with pytest.raises(LoadManagementError, match="fused operator chain"):
            Rescaler(engine).split_key_group("count", group, 2)
        assert engine.run(until=30.0).finished
        final: dict = {}
        for result in sink.results:
            final[result.key] = max(final.get(result.key, 0), result.value)
        assert sum(final.values()) == 4000

    @pytest.mark.parametrize("verb", ["rescale", "split_key_group"])
    def test_unknown_mode_rejected_before_any_change(self, verb):
        env = StreamExecutionEnvironment(EngineConfig(checkpoints=CheckpointConfig(interval=100.0)))
        (
            env.from_workload(SensorWorkload(count=2000, rate=4000.0, key_count=16, seed=5))
            .key_by(field_selector("sensor"), parallelism=2)
            .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=2)
            .sink(CollectSink("out"), parallelism=1)
        )
        engine = env.build()
        engine.run(until=0.1)
        rescaler = Rescaler(engine)
        epoch = rescaler.router_for("count").epoch
        engine.trigger_checkpoint()
        pending = engine.coordinator.pending
        assert pending is not None
        args = (4,) if verb == "rescale" else (3, 2)
        with pytest.raises(LoadManagementError, match="unknown rescale mode"):
            getattr(rescaler, verb)("count", *args, mode="bogus")
        assert engine.graph.node_by_name("count").parallelism == 2
        assert len(engine.tasks_of("count")) == 2
        assert rescaler.router_for("count").epoch == epoch
        assert engine.coordinator.pending is pending
        assert rescaler.reports == []

    def test_chain_head_rescale_rejected(self):
        """A chain head's tasks run the whole fused chain, which a new
        subtask would not: the rescale is refused and the job runs on intact."""
        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=True))
        sink = CollectSink("out")
        (
            env.from_workload(CollectionWorkload([(i % 5, 1) for i in range(200)], rate=2000.0))
            .key_by(lambda v: v[0], parallelism=2)
            .reduce(lambda a, b: (a[0], a[1] + b[1]), name="count", parallelism=2)
            .map(lambda v: v, name="same", parallelism=2)
            .sink(sink, parallelism=2)
        )
        engine = env.build()
        engine.run(until=0.03)
        with pytest.raises(LoadManagementError, match="fused operator chain"):
            Rescaler(engine).rescale("count", 3)
        assert engine.run(until=30.0).finished
        final: dict = {}
        for key, count in sink.values():
            final[key] = max(final.get(key, 0), count)
        assert final == {key: 40 for key in range(5)}
