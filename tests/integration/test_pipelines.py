"""Cross-package integration: realistic pipelines exercising several
subsystems together."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.fault.injection import FailureInjector
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import (
    CollectionWorkload,
    GraphEdgeWorkload,
    SensorWorkload,
    TransactionWorkload,
)
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.windows.assigners import TumblingEventTimeWindows


class TestExactlyOnceEndToEnd:
    def test_windowed_aggregate_with_failure_matches_clean_run(self):
        def run(with_failure):
            config = EngineConfig(checkpoints=CheckpointConfig(interval=0.1), seed=5)
            env = StreamExecutionEnvironment(config)
            sink = TransactionalSink("out")
            (
                env.from_workload(
                    SensorWorkload(count=1200, rate=4000.0, disorder=0.02, key_count=6, seed=30),
                    watermarks=BoundedOutOfOrderness(0.05),
                )
                .key_by(field_selector("sensor"), parallelism=2)
                .window(TumblingEventTimeWindows(0.1))
                .count(parallelism=2)
                .sink(sink, parallelism=1)
            )
            engine = env.build()
            if with_failure:
                def fail():
                    engine.kill_task("window-count[1]")
                    engine.recover_from_checkpoint()

                engine.kernel.call_at(0.21, fail)
            env.execute(until=60.0)
            return sorted(
                ((r.value.key, r.value.start), r.value.value) for r in sink.committed
            )

        clean = run(with_failure=False)
        failed = run(with_failure=True)
        assert clean == failed

    def test_late_data_and_failure_combined(self):
        config = EngineConfig(checkpoints=CheckpointConfig(interval=0.1), seed=6)
        env = StreamExecutionEnvironment(config)
        sink = CollectSink("out")
        (
            env.from_workload(
                SensorWorkload(count=800, rate=4000.0, disorder=0.1, key_count=4, seed=31),
                watermarks=BoundedOutOfOrderness(0.15),
            )
            .key_by(field_selector("sensor"))
            .window(TumblingEventTimeWindows(0.2), allowed_lateness=0.1)
            .count()
            .sink(sink)
        )
        engine = env.build()
        injector = FailureInjector(engine, detection_delay=0.005)
        injector.on_detection(lambda _e: engine.recover_from_checkpoint())
        injector.schedule_kill("window-count[0]", at=0.15)
        result = env.execute(until=60.0)
        assert result.finished
        # At-least-once with refinements: final counts per window cover input.
        per_window = {}
        for r in sink.results:
            per_window[(r.value.key, r.value.start)] = max(
                per_window.get((r.value.key, r.value.start), 0), r.value.value
            )
        late = result.side_output("window-count", "late")
        assert sum(per_window.values()) + len(late) >= 800


class TestMultiStageTopology:
    def test_diamond_with_union(self):
        env = StreamExecutionEnvironment()
        src = env.from_collection(range(100), name="nums")
        evens = src.filter(lambda v: v % 2 == 0, name="evens").map(lambda v: ("even", v), name="tag-e")
        odds = src.filter(lambda v: v % 2 == 1, name="odds").map(lambda v: ("odd", v), name="tag-o")
        sink = evens.union(odds).collect("all")
        env.execute()
        assert len(sink.values()) == 100
        assert sum(1 for tag, _v in sink.values() if tag == "even") == 50

    def test_broadcast_reaches_all_subtasks(self):
        env = StreamExecutionEnvironment()
        seen = []

        def observe(record, ctx):
            seen.append((id(ctx), record.value))

        src = env.from_collection([1, 2], name="ctl")
        src.broadcast().process(observe, name="obs", parallelism=3).sink(
            CollectSink("ignore"), parallelism=3
        )
        env.execute()
        assert len(seen) == 6  # 2 records x 3 subtasks
        assert len({c for c, _v in seen}) == 3  # one context per subtask

    def test_graph_pipeline_with_incremental_sssp(self):
        from repro.graphs.operator import GraphStreamOperator
        from repro.graphs.paths import IncrementalSSSP

        env = StreamExecutionEnvironment()
        sink = (
            env.from_workload(GraphEdgeWorkload(count=300, vertex_count=20, seed=12))
            .apply_operator(
                lambda: GraphStreamOperator(
                    IncrementalSSSP(0), query=lambda algo, ev: algo.distance(10)
                ),
                name="sssp",
            )
            .collect("dist")
        )
        env.execute()
        assert len(sink.values()) == 300
        finite = [v for v in sink.values() if v != float("inf")]
        assert finite  # vertex 10 eventually reachable
        # Final incremental answer equals Dijkstra over the final graph.
        from repro.graphs.paths import RecomputeSSSP
        from repro.graphs.stream import EdgeEvent

        baseline = RecomputeSSSP(0)
        for event in GraphEdgeWorkload(count=300, vertex_count=20, seed=12).events():
            baseline.graph.apply(EdgeEvent.from_payload(event.value))
        baseline._dijkstra()
        assert abs(finite[-1] - baseline.distance(10)) < 1e-9
