"""Randomized engine invariants and the physical-plan description."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    parallelism=st.integers(min_value=1, max_value=5),
    key_count=st.sampled_from([1, 3, 16, 64]),
    capacity=st.sampled_from([None, 64]),
    count=st.sampled_from([50, 300]),
)
def test_keyed_count_is_exact_for_any_topology(seed, parallelism, key_count, capacity, count):
    """Property: regardless of seed, parallelism, key skew or flow control,
    a keyed count accounts for every input exactly once (no failures)."""
    env = StreamExecutionEnvironment(EngineConfig(seed=seed, default_channel_capacity=capacity))
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=5000.0, key_count=key_count, seed=seed))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=parallelism
        )
        .sink(sink, parallelism=1)
    )
    result = env.execute(until=120.0)
    assert result.finished
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    assert sum(per_key.values()) == count
    assert len(sink.results) == count  # one running-count emission per input


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_is_bit_reproducible(seed):
    """Property: two engines with the same seed produce identical result
    streams, including emission timestamps."""

    def run():
        env = StreamExecutionEnvironment(EngineConfig(seed=seed))
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=100, rate=3000.0, key_count=8, seed=seed))
            .key_by(field_selector("sensor"))
            .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count")
            .sink(sink)
        )
        env.execute()
        return [(r.key, r.value, r.emitted_at) for r in sink.results]

    assert run() == run()


class TestDescribe:
    def test_plan_description_lists_nodes_and_edges(self):
        env = StreamExecutionEnvironment(EngineConfig(default_channel_capacity=64))
        (
            env.from_workload(SensorWorkload(count=10, seed=1), name="sensors")
            .key_by(field_selector("sensor"), parallelism=2)
            .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=2)
            .sink(CollectSink("out"))
        )
        engine = env.build()
        text = engine.plan.describe()
        assert "sensors [source] x1" in text
        assert "count" in text and "x2" in text
        assert "[hash]" in text
        assert "capacity=64" in text
