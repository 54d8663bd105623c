"""Unit coverage for the AutoscaleController's control-loop mechanics.

The convergence suite proves the closed loop settles end to end; this file
pins the individual gates — knob validation, gauge registration, the warmup
observe-only window, per-operator cooldown, scale-down patience, and the
deterministic hot-group winner — so a regression names the broken part
instead of "the loop hunted".
"""

from __future__ import annotations

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import DEFAULT_MAX_PARALLELISM, field_selector
from repro.errors import LoadManagementError
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.load.autoscaler import AutoscaleController
from repro.runtime.config import EngineConfig


def build_engine(parallelism=2, count=400):
    env = StreamExecutionEnvironment(
        EngineConfig(default_channel_capacity=64), name="unit"
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=4000.0, key_count=16, seed=9))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=parallelism, processing_cost=1e-4,
        )
        .sink(sink, parallelism=1)
    )
    return env.build()


class TestKnobValidation:
    def test_threshold_out_of_range_rejected(self):
        engine = build_engine()
        with pytest.raises(LoadManagementError):
            AutoscaleController(engine, ["count"], hot_group_threshold=1.5)

    def test_fanout_below_two_rejected(self):
        engine = build_engine()
        with pytest.raises(LoadManagementError):
            AutoscaleController(engine, ["count"], hot_group_fanout=1)

    def test_zero_patience_rejected(self):
        engine = build_engine()
        with pytest.raises(LoadManagementError):
            AutoscaleController(engine, ["count"], scale_down_patience=0)


class TestGauges:
    def test_controller_telemetry_lands_in_the_registry(self):
        engine = build_engine()
        controller = AutoscaleController(engine, ["count"])
        controller.start()
        snapshot = engine.obs.registry.snapshot()["metrics"]
        prefix = f"{engine.graph.name}/autoscaler/0"
        for metric in (
            "rescales", "hot_splits", "moved_bytes_total",
            "chain_bytes_total", "downtime_total", "routing_epoch",
        ):
            assert f"{prefix}/{metric}" in snapshot, metric
        assert snapshot[f"{prefix}/rescales"] == 0
        controller.stop()

    def test_gauges_track_counters(self):
        engine = build_engine()
        controller = AutoscaleController(engine, ["count"])
        controller.start()
        controller.rescales = 3
        controller.hot_splits = 1
        prefix = f"{engine.graph.name}/autoscaler/0"
        snapshot = engine.obs.registry.snapshot()["metrics"]
        assert snapshot[f"{prefix}/rescales"] == 3
        assert snapshot[f"{prefix}/hot_splits"] == 1
        controller.stop()


class TestActuationGates:
    def test_cooldown_blocks_back_to_back_actions(self):
        engine = build_engine()
        controller = AutoscaleController(engine, ["count"], cooldown=0.5)
        assert controller._actionable("count", now=1.0)
        controller._last_action_at["count"] = 1.0
        assert not controller._actionable("count", now=1.2)
        assert controller._actionable("count", now=1.6)

    def test_dead_task_blocks_actuation(self):
        engine = build_engine()
        controller = AutoscaleController(engine, ["count"])
        engine.plan.subtasks("count")[0].dead = True
        assert not controller._actionable("count", now=10.0)

    def test_warmup_suppresses_actuation_but_not_observation(self):
        # Under a 3x overload with warmup past the whole run, the model
        # still produces decisions but the controller must never actuate.
        engine = build_engine(parallelism=1, count=4000)
        controller = AutoscaleController(
            engine, ["count"], interval=0.1, warmup=1e9, hot_group_threshold=0.0,
        )
        engine.kernel.call_soon(controller.start)
        engine.run(until=30.0)
        assert controller.rescales == 0
        assert not controller.reports
        assert len(engine.plan.subtasks("count")) == 1

    def test_scale_down_needs_patience_ticks(self):
        engine = build_engine()
        controller = AutoscaleController(engine, ["count"], scale_down_patience=3)

        class FakeDecision:
            operator = "count"
            target = 1
            changed = True

        class FakeModel:
            def __init__(self):
                self.decisions = []
            def tick(self):
                self.decisions.append(FakeDecision())

        applied = []
        controller.model = FakeModel()
        controller.rescaler.rescale = lambda name, target, mode="live": applied.append(
            (name, target)
        ) or _fake_report()
        controller.hot_group_threshold = 0.0  # skip the skew pass
        controller.tick()
        controller.tick()
        assert applied == [], "scaled down before the patience streak completed"
        controller.tick()
        assert applied == [("count", 1)]
        # The streak resets after actuating.
        assert controller._down_streak == {}


def _fake_report():
    from repro.load.migration import RescaleReport

    return RescaleReport(
        node_name="count", old_parallelism=2, new_parallelism=1,
        moved_entries=0, moved_bytes=0, mode="live",
        started_at=0.0, resumed_at=0.0,
    )


class TestHotGroupWinner:
    def test_winner_is_deterministic_under_ties(self):
        # max() over (count, -group): highest count wins, lowest group id
        # breaks ties — the decision must not depend on dict iteration order.
        window = {7: 50, 3: 50, 11: 20}
        group, count = max(window.items(), key=lambda item: (item[1], -item[0]))
        assert (group, count) == (3, 50)

    def test_small_windows_are_ignored(self):
        engine = build_engine()
        controller = AutoscaleController(
            engine, ["count"], min_window_records=100, hot_group_threshold=0.1,
        )
        for task in engine.plan.subtasks("count"):
            task.enable_keygroup_tracking(DEFAULT_MAX_PARALLELISM)
        # Fake a tiny window: 10 records all in one group.
        engine.plan.subtasks("count")[0]._keygroup_counts[5] = 10
        controller._mitigate_skew("count", now=1.0)
        assert controller.hot_splits == 0
        assert not controller.actions
