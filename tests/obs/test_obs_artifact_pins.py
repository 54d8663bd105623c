"""Pinned observability artefacts of one small obs-on job.

The job exercises every obs feature at once: latency markers every 2 ms,
5 % trace sampling, profiling (the run loop's four lanes plus a
``ctx.profile`` sub-path), a keyed operator with state and timers, and a
kill followed by ``recover_from_checkpoint()``. The sha256 of the canonical
JSON of the metric snapshot, the flame profile and the span forest are
pinned, so any change to how the obs layer accumulates — a reordered float
addition, a lazily created instrument that moved, a span recorded twice —
fails here even when the run's own determinism tests still pass.
"""

import hashlib
import json

from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.state import LSMStateBackend
from repro.state.api import ValueStateDescriptor

COUNT = ValueStateDescriptor("count", default=0)

#: sha256 of each artefact's canonical JSON; a new value means the obs
#: layer reports something different, which no speed-up may do
PINS = {
    "metrics": "2cc0194eac6a59c3f1955d8c95724a7ed9fb792864bf3c1ad542f37c7a31a667",
    "flame": "3d7317c4dbc5e9116925d5dc5b79af2585c58c57cce15dc4a57b667682c4aa86",
    "traces": "1b31f69559d5232c97cda0ed1ef15d1e9402a69d9de54452baa3b0160c63c8a3",
}


def count_and_time(record, ctx):
    handle = ctx.state(COUNT)
    seen = handle.value() + 1
    handle.update(seen)
    if seen % 5 == 0:
        ctx.register_processing_timer(ctx.processing_time() + 0.003, payload=seen)
    ctx.emit(record.with_value((record.key, seen)))


def on_timer(timestamp, key, payload, ctx):
    ctx.add_cost(1e-5)


def enrich(record, ctx):
    with ctx.profile("lookup"):
        ctx.add_cost(2e-5)
        with ctx.profile("decode"):
            ctx.add_cost(5e-6)
    ctx.emit(record)


def run_job():
    config = EngineConfig(
        seed=3,
        state_backend_factory=LSMStateBackend,
        checkpoints=CheckpointConfig(interval=0.02),
        latency_marker_period=0.002,
        trace_sample_rate=0.05,
        profiling_enabled=True,
    )
    env = StreamExecutionEnvironment(config, name="obspin")
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=600, rate=4000.0, key_count=8, seed=3), name="src")
        .map(lambda v: (v["sensor"], round(v["reading"], 3)), name="project")
        .key_by(lambda v: v[0], name="by_sensor")
        .process(count_and_time, on_timer=on_timer, name="counter", parallelism=2)
        .process(enrich, name="enrich")
        .sink(sink, parallelism=1)
    )
    engine = env.build()

    def fail_and_recover():
        engine.kill_task("counter[1]")
        engine.recover_from_checkpoint()

    engine.kernel.call_at(0.07, fail_and_recover)
    engine.run(until=30.0)
    return engine, sink


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_obs_artifacts_match_their_pins():
    engine, sink = run_job()
    assert engine.job_finished
    # Every feature left something behind, so the pins are not vacuous.
    profiler = engine.obs.profiler
    assert any(path.endswith(";process;lookup;decode") for path in profiler.samples)
    assert any(path.endswith(";timers") for path in profiler.samples)
    assert any(path.endswith(";state") for path in profiler.samples)
    assert engine.obs.tracer.epochs_seen() >= {0, 1}
    assert engine.obs.latency.e2e_histograms()
    assert sink.values()
    actual = {
        "metrics": digest(engine.metrics_snapshot()),
        "flame": digest(profiler.flame()),
        "traces": digest(engine.obs.tracer.tree_dicts()),
    }
    assert actual == PINS
