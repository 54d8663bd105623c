"""Shared pipeline builders for the fabric test suite."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig


def keyed_count_env(
    name,
    seed=0,
    count=200,
    rate=2000.0,
    checkpoints=None,
    parallelism=2,
):
    """The standard tenant pipeline: sensor stream → keyed running count."""
    env = StreamExecutionEnvironment(
        EngineConfig(seed=seed, checkpoints=checkpoints), name=name
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=rate, key_count=8, seed=seed))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0,
            add=lambda acc, _v: acc + 1,
            name="count",
            parallelism=parallelism,
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


def solo_digest(name, seed=0, count=200, rate=2000.0):
    """Digest of the pipeline run alone on a dedicated kernel."""
    from repro.fabric import sink_digest

    env, sink = keyed_count_env(name, seed=seed, count=count, rate=rate)
    env.execute()
    return sink_digest(sink)
