"""Failover-region computation over physical plans (FLIP-1 semantics)."""

from __future__ import annotations

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload, SensorWorkload
from repro.runtime.config import EngineConfig
from repro.supervision.regions import compute_failover_regions, region_of


def forward_engine(parallelism=2, chaining=False):
    env = StreamExecutionEnvironment(
        EngineConfig(seed=3, chaining_enabled=chaining), name="regions-fwd"
    )
    (
        env.from_workload(
            CollectionWorkload(list(range(40)), rate=2000.0),
            name="src",
            parallelism=parallelism,
        )
        .map(lambda v: v + 1, name="bump", parallelism=parallelism)
        .sink(CollectSink("out"), name="out", parallelism=parallelism)
    )
    return env.build()


def shuffled_engine():
    env = StreamExecutionEnvironment(
        EngineConfig(seed=3, chaining_enabled=False), name="regions-hash"
    )
    (
        env.from_workload(
            SensorWorkload(count=40, rate=2000.0, key_count=4, seed=9),
            name="src",
            parallelism=2,
        )
        .key_by(field_selector("sensor"), parallelism=2)
        .reduce(lambda a, b: a, name="agg", parallelism=2)
        .sink(CollectSink("out"), name="out", parallelism=2)
    )
    return env.build()


class TestForwardSlices:
    def test_parallel_forward_pipeline_splits_into_slices(self):
        engine = forward_engine(parallelism=2)
        regions = compute_failover_regions(engine)
        assert len(regions) == 2
        slice0 = region_of(regions, "src[0]")
        assert "bump[0]" in slice0 and "out[0]" in slice0
        assert "src[1]" not in slice0

    def test_slices_survive_chaining(self):
        # Chaining fuses operators but the sliced structure is unchanged.
        engine = forward_engine(parallelism=2, chaining=True)
        regions = compute_failover_regions(engine)
        assert len(regions) == 2

    def test_parallelism_one_is_a_single_region(self):
        engine = forward_engine(parallelism=1)
        regions = compute_failover_regions(engine)
        assert len(regions) == 1
        assert len(regions[0]) == len(engine.plan.tasks())


class TestExchangesMerge:
    def test_hash_exchange_welds_one_region(self):
        engine = shuffled_engine()
        regions = compute_failover_regions(engine)
        assert len(regions) == 1
        assert len(regions[0]) == len(engine.plan.tasks())


class TestClosure:
    def test_regions_are_closed_under_channels(self):
        # The property recover_region relies on: every physical channel's
        # endpoints live in the same region.
        for engine in (forward_engine(parallelism=2), shuffled_engine()):
            regions = compute_failover_regions(engine)
            for channel in engine.plan.channels():
                if channel.sender is None:
                    continue
                sender_region = region_of(regions, channel.sender.name)
                receiver_region = region_of(regions, channel.receiver.name)
                assert sender_region is receiver_region

    def test_regions_partition_the_plan(self):
        engine = forward_engine(parallelism=2)
        regions = compute_failover_regions(engine)
        names = [name for region in regions for name in region.task_names]
        assert sorted(names) == sorted(t.name for t in engine.plan.tasks())
        assert len(names) == len(set(names))

    def test_region_of_unknown_task_is_none(self):
        engine = forward_engine()
        assert region_of(compute_failover_regions(engine), "nope[9]") is None
