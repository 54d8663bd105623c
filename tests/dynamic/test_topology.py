"""Dynamic topologies: runtime taps and adaptive expansion."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.core.operators.basic import SinkOperator
from repro.dynamic.topology import AdaptiveExpander, TopologyManager, collect_task_pressure
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.load.migration import Rescaler
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.supervision.regions import compute_failover_regions


def build(count=1500, rate=3000.0, cost=None, key_skew=0.0, parallelism=2, config=None):
    env = StreamExecutionEnvironment(config or EngineConfig())
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=count, rate=rate, key_count=64, key_skew=key_skew, seed=21)
        )
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=parallelism,
            processing_cost=cost,
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


class TestTap:
    def test_tap_attached_mid_run_sees_subsequent_output(self):
        env, sink = build()
        engine = env.build()
        manager = TopologyManager(engine)
        tap_sink = CollectSink("tap")

        def attach():
            manager.attach_tap("count", lambda: SinkOperator(tap_sink, "tap"), tap_name="audit")

        engine.kernel.call_at(0.25, attach)
        env.execute()
        assert 0 < len(tap_sink.results) < len(sink.results)
        # The tap is a new task in the engine with its own metrics.
        assert "audit[0]" in engine.tasks
        assert engine.metrics.tasks["audit[0]"].records_in == len(tap_sink.results)

    def test_tap_does_not_disturb_primary_results(self):
        env, sink = build(count=800)
        engine = env.build()
        manager = TopologyManager(engine)
        engine.kernel.call_at(
            0.1, lambda: manager.attach_tap("count", lambda: SinkOperator(CollectSink("x"), "x"))
        )
        env.execute()
        per_key = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 800

    def test_tap_survives_a_global_recovery(self):
        # The tap is in the plan: a global restart kills it with the rest,
        # revives it from its operator factory, and the job still finishes.
        env, sink = build(config=EngineConfig(checkpoints=CheckpointConfig(interval=0.05)))
        engine = env.build()
        manager = TopologyManager(engine)
        tap_sink = CollectSink("tap")
        engine.kernel.call_at(
            0.1,
            lambda: manager.attach_tap("count", lambda: SinkOperator(tap_sink, "tap"), tap_name="audit"),
        )

        def fail():
            engine.kill_task("count[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.3, fail)
        result = env.execute(until=30.0)
        assert result.finished
        tap = engine.tasks["audit[0]"]
        assert tap.finished and not tap.dead
        assert any("audit[0]" in region.task_names for region in compute_failover_regions(engine))
        per_key = {}
        for record in sink.results:
            per_key[record.key] = max(per_key.get(record.key, 0), record.value)
        assert sum(per_key.values()) == 1500

    def test_scaled_out_subtasks_and_taps_are_observed(self):
        env, _sink = build(config=EngineConfig(latency_marker_period=0.01))
        engine = env.build()
        engine.kernel.call_at(0.1, lambda: Rescaler(engine).rescale("count", 3))
        engine.kernel.call_at(
            0.1,
            lambda: TopologyManager(engine).attach_tap(
                "count", lambda: SinkOperator(CollectSink("tap"), "tap"), tap_name="audit"
            ),
        )
        env.execute()
        metrics = engine.metrics_snapshot()["metrics"]
        for name, prefix in (("count[2]", "job/count/2"), ("audit[0]", "job/audit/0")):
            records_in = engine.tasks[name].metrics.records_in
            assert records_in > 0
            assert metrics[f"{prefix}/records_in"] == records_in
            assert metrics[f"{prefix}/latency_from_source"]["count"] > 0


class TestAdaptiveExpansion:
    def test_hot_operator_grows_under_pressure(self):
        env, sink = build(count=6000, rate=4000.0, cost=1e-3, parallelism=1)
        engine = env.build()
        expander = AdaptiveExpander(
            engine, "count", queue_threshold=64, max_parallelism=8, interval=0.2
        )
        expander.start()
        env.execute(until=60.0)
        assert expander.expansions, "expected at least one expansion"
        assert len(engine.plan.subtasks("count")) > 1
        per_key = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 6000

    def test_no_expansion_without_pressure(self):
        env, _sink = build(count=500, rate=500.0, parallelism=2)
        engine = env.build()
        expander = AdaptiveExpander(engine, "count", queue_threshold=64, interval=0.2)
        expander.start()
        env.execute(until=30.0)
        assert expander.expansions == []

    def test_pressure_diagnostic(self):
        env, _sink = build(count=300)
        engine = env.build()
        env.execute()
        pressure = collect_task_pressure(engine, "count")
        assert set(pressure) == {"count[0]", "count[1]"}
        assert all(v == 0 for v in pressure.values())
