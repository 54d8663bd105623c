"""Metric-level properties read from registry snapshots, across seeds.

The seed rotates with the ``chaos_seed`` fixture (``REPRO_CHAOS_SEED``),
so CI can sweep fresh seeds nightly while any failure stays reproducible.
"""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.fault.guarantees import config_for_guarantee
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import GuaranteeLevel

COUNT = 300
RATE = 3000.0
PERIOD = 0.004

CHAINING = [pytest.param(chaining, id=f"chain={chaining}") for chaining in (False, True)]

GUARANTEES = [GuaranteeLevel.AT_LEAST_ONCE, GuaranteeLevel.EXACTLY_ONCE]


def run(level, chaining, seed, marker_period=PERIOD):
    config = config_for_guarantee(
        level, checkpoint_interval=0.02, seed=seed, chaining_enabled=chaining
    )
    config.latency_marker_period = marker_period
    env = StreamExecutionEnvironment(config, name="props")
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=COUNT, rate=RATE, key_count=4, seed=seed),
            name="src",
        )
        .map(lambda v: v["reading"], name="extract")
        .filter(lambda r: r == r, name="keep")  # pass-through: conserving
        .sink(sink, name="out", parallelism=1)
    )
    engine = env.build()
    env.execute()
    return engine, sink


def task_metric(path, name):
    """Match an exact ``job/operator/subtask/name`` task path (not the
    longer chain-member sub-paths); returns the operator or None."""
    parts = path.split("/")
    if len(parts) == 4 and parts[-1] == name:
        return parts[1]
    return None


def source_out_sink_in_dropped(snapshot):
    metrics = snapshot["metrics"]
    emitted = consumed = dropped = 0
    for path, value in metrics.items():
        if task_metric(path, "records_out") == "src":
            emitted += value
        # Under chaining the sink fuses into "extract->keep->out"; match
        # the terminal operator either way.
        operator = task_metric(path, "records_in")
        if operator is not None and operator.split("->")[-1] == "out":
            consumed += value
        if task_metric(path, "dropped") is not None:
            dropped += value
    return emitted, consumed, dropped


class TestRecordConservation:
    @pytest.mark.parametrize("level", GUARANTEES, ids=lambda l: l.name.lower())
    @pytest.mark.parametrize("chaining", CHAINING)
    def test_source_out_equals_sink_in_plus_dropped(self, level, chaining, chaos_seed):
        engine, sink = run(level, chaining, seed=chaos_seed + 17)
        assert engine.job_finished
        emitted, consumed, dropped = source_out_sink_in_dropped(
            engine.metrics_snapshot()
        )
        assert emitted == COUNT
        assert emitted == consumed + dropped
        assert len(sink.results) == COUNT

    @pytest.mark.parametrize("level", GUARANTEES, ids=lambda l: l.name.lower())
    def test_conservation_holds_with_markers_in_band(self, level, chaos_seed):
        """Markers share every channel with records; the conservation sum
        must still balance exactly (markers counted nowhere)."""
        engine, _sink = run(
            level, chaining=True, seed=chaos_seed + 29, marker_period=0.002
        )
        emitted, consumed, dropped = source_out_sink_in_dropped(
            engine.metrics_snapshot()
        )
        assert emitted == consumed + dropped == COUNT


class TestMarkerCadence:
    @pytest.mark.parametrize("chaining", CHAINING)
    def test_marker_count_tracks_period(self, chaining, chaos_seed):
        engine, _sink = run(GuaranteeLevel.AT_LEAST_ONCE, chaining, seed=chaos_seed + 41)
        metrics = engine.metrics_snapshot()["metrics"]
        emitted = sum(
            value
            for path, value in metrics.items()
            if path.endswith("/latency_markers_emitted")
        )
        received = sum(
            value["count"]
            for path, value in metrics.items()
            if task_metric(path, "latency_from_source") is not None
            and task_metric(path, "latency_from_source").split("->")[-1] == "out"
        )
        expected = (COUNT / RATE) / PERIOD
        assert expected * 0.5 <= emitted <= expected * 2.0
        # Every emitted marker reaches the single sink subtask exactly once.
        assert received == emitted
