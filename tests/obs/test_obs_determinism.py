"""Observability artifacts are deterministic: same seed → byte-identical
metric snapshots and trace span trees, with operator chaining off and on.

Extends the ``test_fastpath_determinism`` pattern: the comparison is on
canonical JSON bytes, so any nondeterminism in instrument iteration order,
reservoir sampling, span-id assignment, or marker timing fails loudly.
"""

import json

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig

def run(chaining, seed=23):
    config = EngineConfig(
        seed=seed,
        chaining_enabled=chaining,
        checkpoints=CheckpointConfig(interval=0.05),
        latency_marker_period=0.005,
        trace_sample_rate=0.2,
        profiling_enabled=True,
    )
    env = StreamExecutionEnvironment(config, name="obsdet")
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=400, rate=4000.0, key_count=6, seed=seed))
        .flat_map(lambda v: [v["reading"], v["reading"] * 2], name="expand")
        .map(lambda r: round(r, 4), name="quantise")
        .key_by(lambda r: int(r * 10) % 4)
        .aggregate(create=lambda: 0.0, add=lambda acc, r: round(acc + r, 4), name="running")
        .sink(sink, parallelism=1)
    )
    engine = env.build()
    env.execute()
    return engine, sink


def obs_bytes(engine):
    """Canonical bytes of the two determinism artifacts: the full metric
    snapshot and the trace span forest."""
    metrics = engine.metrics_json()
    traces = json.dumps(engine.obs.tracer.tree_dicts(), sort_keys=True)
    return metrics.encode(), traces.encode()


class TestObservabilityDeterminism:
    @pytest.mark.parametrize("chaining", [False, True], ids=lambda c: f"chain={c}")
    def test_same_seed_snapshots_and_traces_are_byte_identical(self, chaining):
        engine_a, sink_a = run(chaining)
        engine_b, sink_b = run(chaining)
        assert sink_a.values() == sink_b.values()
        metrics_a, traces_a = obs_bytes(engine_a)
        metrics_b, traces_b = obs_bytes(engine_b)
        assert metrics_a == metrics_b
        assert traces_a == traces_b
        # The artifacts are non-trivial, not vacuously equal.
        assert engine_a.obs.tracer.spans
        assert engine_a.obs.latency.e2e_histograms()
        assert engine_a.obs.profiler.samples

    def test_flame_profile_is_seed_stable(self):
        engine_a, _ = run(chaining=True)
        engine_b, _ = run(chaining=True)
        assert engine_a.obs.profiler.flame() == engine_b.obs.profiler.flame()
        assert engine_a.obs.profiler.total() > 0.0

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_other_seeds_are_also_self_consistent(self, seed):
        engine_a, _ = run(chaining=True, seed=seed)
        engine_b, _ = run(chaining=True, seed=seed)
        assert obs_bytes(engine_a) == obs_bytes(engine_b)
