"""Columnar execution is an optimisation, not a semantics change.

The property: for any workload seed, running the same windowed pipeline
with ``columnar_batch_size`` set must produce byte-identical sink output —
``(value, event_time, key, sign)`` per result, in order — and identical
record accounting (every ``records_in`` / ``records_out`` / ``dropped``
gauge in :meth:`~repro.runtime.engine.Engine.metrics_snapshot`) as the
scalar path, across the chaining and incremental-checkpoint axes.

Emission timestamps are excluded on purpose: batching legitimately moves
*when* inside a virtual instant work happens, never *what* is computed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.windows.assigners import SlidingEventTimeWindows, TumblingEventTimeWindows

EVENTS = 200


def run_pipeline(seed, columnar, chaining, incremental, sliding):
    config = EngineConfig(
        seed=seed,
        chaining_enabled=chaining,
        columnar_batch_size=16 if columnar else None,
        checkpoints=CheckpointConfig(interval=0.02, incremental=incremental),
    )
    env = StreamExecutionEnvironment(config, name="equiv")
    sink = CollectSink("out")
    assigner = (
        SlidingEventTimeWindows(0.04, 0.02) if sliding else TumblingEventTimeWindows(0.02)
    )
    (
        env.from_workload(
            SensorWorkload(count=EVENTS, rate=2000.0, key_count=5, seed=seed, disorder=0.005),
            watermarks=BoundedOutOfOrderness(0.01),
        )
        .map(
            lambda v: {"key": v["key"], "r": round(v["reading"], 3)},
            name="project",
            batch_fn=lambda vs: [{"key": v["key"], "r": round(v["reading"], 3)} for v in vs],
        )
        .filter(
            lambda v: v["r"] > 10.0,
            name="hot",
            batch_predicate=lambda vs: np.asarray([v["r"] for v in vs]) > 10.0,
        )
        .key_by(field_selector("key"), name="by-key")
        .window(assigner)
        .count(name="per-key-count")
        .sink(sink, parallelism=1)
    )
    engine = env.build()
    env.execute()
    return engine, sink


def sink_tuples(sink):
    return [(r.value, r.event_time, r.key, r.sign) for r in sink.results]


def record_counters(engine):
    """Every record-accounting gauge from the metric registry snapshot."""
    snapshot = engine.metrics_snapshot()
    flat = snapshot.get("metrics", snapshot) if isinstance(snapshot, dict) else snapshot
    return {
        path: value
        for path, value in flat.items()
        if isinstance(path, str)
        and path.rsplit("/", 1)[-1] in ("records_in", "records_out", "dropped")
    }


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), sliding=st.booleans())
def test_columnar_is_byte_identical_and_conserves_records(seed, sliding):
    baseline_engine, baseline_sink = run_pipeline(
        seed, columnar=False, chaining=False, incremental=False, sliding=sliding
    )
    expected = sink_tuples(baseline_sink)
    assert expected, "property is vacuous without window results"

    scalar_counters = {}
    for chaining in (False, True):
        engine, sink = run_pipeline(
            seed, columnar=False, chaining=chaining, incremental=False, sliding=sliding
        )
        scalar_counters[chaining] = record_counters(engine)
        assert sink_tuples(sink) == expected

    for chaining in (False, True):
        for incremental in (False, True):
            engine, sink = run_pipeline(
                seed,
                columnar=True,
                chaining=chaining,
                incremental=incremental,
                sliding=sliding,
            )
            assert sink_tuples(sink) == expected, (
                f"columnar diverged (chaining={chaining}, incremental={incremental})"
            )
            # Record accounting is conserved: batches count as their length
            # everywhere, so every records gauge matches the scalar run.
            assert record_counters(engine) == scalar_counters[chaining], (
                f"record accounting diverged (chaining={chaining}, "
                f"incremental={incremental})"
            )


def test_columnar_runs_are_deterministic():
    """Same seed, same flags -> byte-identical output run to run."""
    a = sink_tuples(run_pipeline(42, True, True, True, False)[1])
    b = sink_tuples(run_pipeline(42, True, True, True, False)[1])
    assert a and a == b
