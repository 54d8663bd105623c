"""Closed-loop autoscaling convergence: the AutoscaleController must settle.

A step change in the source rate should converge to a stable parallelism in
at most two reconfigurations of the stepped phase (DS2's headline claim),
with no hunting afterwards — including when the key distribution is skewed
and the controller must split the hot key group instead of uselessly adding
subtasks.
"""

from __future__ import annotations

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import RateFunction, SensorWorkload
from repro.load.autoscaler import AutoscaleController
from repro.runtime.config import EngineConfig


def build(rate, count, cost=1e-3, key_count=512, key_skew=0.0, parallelism=1):
    """A keyed count whose single instance saturates at ~1/cost rec/s."""
    env = StreamExecutionEnvironment(EngineConfig(default_channel_capacity=64))
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=count, rate=rate, key_count=key_count, seed=21, key_skew=key_skew)
        )
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=parallelism, processing_cost=cost,
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


def run_controller(env, sink, expected_total, horizon=120.0, **knobs):
    engine = env.build()
    controller = AutoscaleController(engine, ["count"], **knobs)
    engine.kernel.call_soon(controller.start)
    result = env.execute(until=horizon)
    assert result.finished, "job did not finish under autoscaling"
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    assert sum(per_key.values()) == expected_total, "autoscaling lost or duplicated records"
    return engine, controller


class TestStepConvergence:
    def test_step_change_converges_within_two_reconfigurations(self):
        # 3x overload step at t=2s: capacity ~1000 rec/s per instance,
        # offered 3000 rec/s. The loop should reach its settled parallelism
        # in at most 2 rescales of the stepped phase and then hold it.
        count = 30000
        env, sink = build(
            rate=RateFunction.step(base=800.0, peak=3000.0, start=2.0, end=12.0),
            count=count,
        )
        engine, controller = run_controller(
            env, sink, count, interval=0.5, cooldown=1.0, max_parallelism=8,
            hot_group_threshold=0.0, warmup=1.0,
        )
        ups = [r for r in controller.reports if r.new_parallelism > r.old_parallelism]
        assert 1 <= len(ups) <= 2, (
            f"step phase took {len(ups)} scale-ups: "
            f"{[(r.old_parallelism, r.new_parallelism) for r in controller.reports]}"
        )
        # Settled: the operator's final parallelism can absorb the peak with
        # DS2 headroom, and the loop stopped moving well before the end.
        final = len(engine.tasks_of("count"))
        assert 3 <= final <= 6, f"settled at parallelism {final}"
        last_action = max(r.started_at for r in controller.reports)
        finished_at = max(t.metrics.finished_at or 0.0 for t in engine.tasks.values())
        assert finished_at - last_action > 1.0, "controller was still hunting at the end"

    def test_all_rescales_hand_state_off_live(self):
        count = 20000
        env, sink = build(rate=RateFunction.step(700.0, 2500.0, 2.0, 10.0), count=count)
        _engine, controller = run_controller(
            env, sink, count, interval=0.5, cooldown=1.0, hot_group_threshold=0.0, warmup=1.0,
        )
        assert controller.rescales >= 1
        for report in controller.reports:
            assert report.mode == "live"
            assert report.downtime < 0.1, f"live rescale stalled {report.downtime:.3f}s"


class TestSkewedConvergence:
    def test_hot_key_case_splits_instead_of_hunting(self):
        # Zipf-skewed keys: one key group dominates, so added subtasks sit
        # idle under plain range routing. The controller must detect the hot
        # group and split it across subtasks; total reconfigurations stay
        # bounded (no endless scale-out chasing a skewed backlog).
        count = 30000
        env, sink = build(
            rate=RateFunction.step(base=800.0, peak=3000.0, start=2.0, end=12.0),
            count=count,
            key_count=64,
            key_skew=1.4,
        )
        engine, controller = run_controller(
            env, sink, count, interval=0.5, cooldown=1.0, max_parallelism=8,
            hot_group_threshold=0.35, min_window_records=50, warmup=2.0,
        )
        assert controller.hot_splits >= 1, "skewed load never triggered a hot-group split"
        router = controller.rescaler.router_for("count")
        assert router.splits, "split was not installed on the router"
        # Bounded actuation: scale-ups plus splits stay a short sequence.
        assert controller.rescales + controller.hot_splits <= 5, (
            f"controller hunted: {controller.rescales} rescales, "
            f"{controller.hot_splits} splits"
        )

    def test_split_spreads_hot_group_load_across_subtasks(self):
        count = 30000
        env, sink = build(
            rate=RateFunction.step(base=800.0, peak=3000.0, start=2.0, end=12.0),
            count=count,
            key_count=64,
            key_skew=1.4,
        )
        engine, controller = run_controller(
            env, sink, count, interval=0.5, cooldown=1.0, max_parallelism=8,
            hot_group_threshold=0.35, min_window_records=50, warmup=2.0,
        )
        if not controller.actions:
            return  # covered by the test above; nothing to measure here
        split = controller.actions[0]
        router = controller.rescaler.router_for("count")
        fanout = router.split_fanout(split.key_group)
        assert fanout is not None and fanout >= 2
        # The hot group's records ended up on more than one subtask.
        holders = {
            index
            for index, task in enumerate(engine.tasks_of("count"))
            if task.keygroup_counts.get(split.key_group)
        }
        assert len(holders) >= 2, f"hot group still pinned to {holders}"
