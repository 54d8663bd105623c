"""End-to-end tests of the fluent API on the simulated runtime."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sources import CollectionWorkload
from repro.progress.watermarks import AscendingTimestamps
from repro.runtime.config import EngineConfig


class TestLinearPipelines:
    def test_map_filter_to_sink(self):
        env = StreamExecutionEnvironment()
        sink = (
            env.from_collection(range(10))
            .map(lambda v: v * v)
            .filter(lambda v: v > 10)
            .collect("out")
        )
        env.execute()
        assert sink.values() == [16, 25, 36, 49, 64, 81]

    def test_flat_map(self):
        env = StreamExecutionEnvironment()
        sink = env.from_collection(["a b", "c"]).flat_map(lambda s: s.split()).collect()
        env.execute()
        assert sink.values() == ["a", "b", "c"]

    def test_results_preserve_order_on_single_partition(self):
        env = StreamExecutionEnvironment()
        sink = env.from_collection(range(100)).map(lambda v: v).collect()
        env.execute()
        assert sink.values() == list(range(100))

    def test_latencies_are_positive(self):
        env = StreamExecutionEnvironment()
        sink = env.from_collection(range(50)).map(lambda v: v).collect()
        env.execute()
        stats = sink.latency_summary()
        assert stats.count == 50
        assert stats.p50 > 0


class TestKeyedPipelines:
    def test_keyed_reduce(self):
        env = StreamExecutionEnvironment()
        data = [{"k": "a", "v": 1}, {"k": "b", "v": 10}, {"k": "a", "v": 2}]
        sink = (
            env.from_collection(data)
            .key_by(field_selector("k"))
            .reduce(lambda x, y: {"k": x["k"], "v": x["v"] + y["v"]})
            .collect()
        )
        env.execute()
        assert [r["v"] for r in sink.values()] == [1, 10, 3]

    def test_keyed_aggregate_mean(self):
        env = StreamExecutionEnvironment()
        data = [{"k": "a", "v": 2.0}, {"k": "a", "v": 4.0}]
        sink = (
            env.from_collection(data)
            .key_by(field_selector("k"))
            .aggregate(
                create=lambda: (0.0, 0),
                add=lambda acc, r: (acc[0] + r["v"], acc[1] + 1),
                result=lambda acc: acc[0] / acc[1],
            )
            .collect()
        )
        env.execute()
        assert sink.values() == [2.0, 3.0]

    def test_parallel_keyed_partitioning_is_consistent(self):
        env = StreamExecutionEnvironment()
        data = [{"k": f"k{i % 7}", "v": 1} for i in range(70)]
        sink = (
            env.from_collection(data)
            .key_by(field_selector("k"), parallelism=4)
            .reduce(lambda x, y: {"k": x["k"], "v": x["v"] + y["v"]}, parallelism=4)
            .collect()
        )
        env.execute()
        # Final count per key must reach 10: same key always lands on the
        # same subtask, so the running reduce sees all of them.
        finals = {}
        for value in sink.values():
            finals[value["k"]] = value["v"]
        assert finals == {f"k{i}": 10 for i in range(7)}


class TestUnionAndConnect:
    def test_union_merges_streams(self):
        env = StreamExecutionEnvironment()
        a = env.from_collection([1, 2, 3], name="a")
        b = env.from_collection([10, 20], name="b")
        sink = a.union(b).collect()
        env.execute()
        assert sorted(sink.values()) == [1, 2, 3, 10, 20]


class TestEnvironment:
    def test_unique_names(self):
        env = StreamExecutionEnvironment()
        assert env.unique_name("map") == "map"
        assert env.unique_name("map") == "map-1"
        assert env.unique_name("map") == "map-2"

    def test_workload_source_with_watermarks(self):
        env = StreamExecutionEnvironment(EngineConfig(seed=42))
        workload = CollectionWorkload(range(20), rate=100.0, timestamps=lambda i, _v: i * 0.01)
        sink = env.from_workload(workload, watermarks=AscendingTimestamps()).collect()
        env.execute()
        assert len(sink.values()) == 20

    def test_job_result_exposes_metrics(self):
        env = StreamExecutionEnvironment()
        env.from_collection(range(5)).map(lambda v: v).collect()
        result = env.execute()
        names = list(result.metrics.tasks)
        assert any("map" in n for n in names)
        assert result.finished
