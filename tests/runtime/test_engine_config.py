"""``EngineConfig``: its fields, the values that switch a mode on, and the
values it refuses."""

import dataclasses
import os
import sys

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.graph import ChannelSpec
from repro.errors import GraphError
from repro.io import CollectSink, CollectionWorkload
from repro.runtime.config import EngineConfig

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
from perf.workloads import engine_config  # noqa: E402 - the benchmark's profiles, read only

RECORDS = 256


def _run(config):
    """src → map → sink over ``RECORDS`` records; returns (engine, sink)."""
    env = StreamExecutionEnvironment(config)
    sink = CollectSink("out")
    env.from_workload(CollectionWorkload(list(range(RECORDS)), rate=10000.0), name="src").map(
        lambda v: v + 1, name="inc"
    ).sink(sink)
    engine = env.build()
    env.execute(until=10.0)
    return engine, sink


def test_fields():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "seed",
        "default_processing_cost",
        "timer_cost",
        "default_channel_capacity",
        "max_parallelism",
        "state_backend_factory",
        "checkpoints",
        "guarantee",
        "chaining_enabled",
        "columnar_batch_size",
        "latency_marker_period",
        "trace_sample_rate",
        "profiling_enabled",
    ]


def test_a_capacity_bounds_every_unspecified_channel():
    engine, sink = _run(EngineConfig(default_channel_capacity=2))
    assert "capacity=2" in engine.describe()
    assert sink.values() == list(range(1, RECORDS + 1))


def test_zero_capacity_is_refused():
    with pytest.raises(ValueError, match="default_channel_capacity"):
        EngineConfig(default_channel_capacity=0)


@pytest.mark.parametrize("size", [0, -3])
def test_batch_size_below_one_is_refused(size):
    with pytest.raises(ValueError, match="columnar_batch_size"):
        EngineConfig(columnar_batch_size=size)


def test_edge_capacity_below_one_is_refused_at_build():
    env = StreamExecutionEnvironment(EngineConfig())
    env.from_workload(CollectionWorkload([1, 2, 3]), name="src").sink(CollectSink("out"))
    env.graph.edges[0].channel = ChannelSpec(capacity=0)
    with pytest.raises(GraphError, match="capacity"):
        env.build()


@pytest.mark.parametrize(
    "profile, batching", [("columnar", True), ("scalar", False), ("flags_off", False)]
)
def test_perf_profiles_batch_only_where_a_batch_size_is_set(profile, batching):
    config, _applied = engine_config(profile)
    engine, sink = _run(config)
    assert sink.values() == list(range(1, RECORDS + 1))
    # a per-record source arms one emission event per record; a batching
    # one arms one per batch of 64
    events = engine.kernel.dispatched_events
    assert (events < RECORDS / 4) if batching else (events > RECORDS)
