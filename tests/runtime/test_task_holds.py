"""Bookkeeping a task keeps across its run: holds on its mailbox (or a
source's emission) nest, and armed processing-time timers leave the
registry as they fire."""

from __future__ import annotations

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import EngineConfig
from repro.windows import EarlyFiringTrigger, TumblingEventTimeWindows


def _readings(engine, read, times):
    seen = {}
    for at in times:
        engine.kernel.call_at(at, lambda at=at: seen.__setitem__(at, read()))
    return seen


class TestNestedHolds:
    TIMES = (0.205, 0.22, 0.245, 0.26)

    def test_a_stall_inside_a_suspend_does_not_end_it(self):
        # A 50 ms suspend at 0.2 (a chaos STALL, upstream backup) with a
        # 5 ms live-rescale stall at 0.21 inside it: the task stays held
        # until the suspend's own resume at 0.25.
        env = StreamExecutionEnvironment(EngineConfig(), name="holds")
        env.from_workload(
            SensorWorkload(count=2000, rate=4000.0, key_count=10, seed=1), name="src"
        ).key_by(field_selector("sensor")).map(lambda v: v, name="m").collect("out")
        engine = env.build()
        task, kernel = engine.tasks_of("m")[0], engine.kernel
        kernel.call_at(0.2, lambda: (task.suspend(), kernel.call_after(0.05, task.resume_processing)))
        kernel.call_at(0.21, lambda: task.stall(0.005))
        seen = _readings(engine, lambda: task.metrics.records_in, self.TIMES)
        env.execute()
        assert seen[0.205] == seen[0.22] == seen[0.245], seen
        assert seen[0.26] > seen[0.245]
        assert task.metrics.records_in == 2000

    def test_source_holds_nest(self):
        env = StreamExecutionEnvironment(EngineConfig(), name="pauses")
        env.from_workload(
            SensorWorkload(count=2000, rate=4000.0, key_count=10, seed=1), name="src"
        ).collect("out")
        engine = env.build()
        source, kernel = engine.tasks_of("src")[0], engine.kernel
        kernel.call_at(0.2, lambda: (source.suspend(), kernel.call_after(0.05, source.resume_processing)))
        kernel.call_at(0.21, lambda: (source.suspend(), kernel.call_after(0.005, source.resume_processing)))
        seen = _readings(engine, lambda: source.emitted, self.TIMES)
        env.execute()
        assert seen[0.205] == seen[0.22] == seen[0.245], seen
        assert seen[0.26] > seen[0.245]
        assert source.emitted == 2000

    def test_an_unmatched_resume_is_harmless(self):
        env = StreamExecutionEnvironment(EngineConfig(), name="unmatched")
        env.from_workload(
            SensorWorkload(count=500, rate=4000.0, key_count=10, seed=1), name="src"
        ).map(lambda v: v, name="m").collect("out")
        engine = env.build()
        task, kernel = engine.tasks_of("m")[0], engine.kernel
        kernel.call_at(0.01, task.resume_processing)
        kernel.call_at(0.02, lambda: (task.suspend(), kernel.call_after(0.01, task.resume_processing)))
        env.execute()
        assert task.metrics.records_in == 500


def test_processing_timer_registry_holds_only_pending_timers():
    # Early firing arms a processing-time timer per window and interval;
    # the registry must drop each as it fires, not grow with the run.
    env = StreamExecutionEnvironment(EngineConfig(), name="timers")
    env.from_workload(
        SensorWorkload(count=4000, rate=2000.0, key_count=20, seed=3),
        name="src",
        watermarks=BoundedOutOfOrderness(0.01),
    ).key_by(field_selector("sensor")).window(
        TumblingEventTimeWindows(0.1), trigger=EarlyFiringTrigger(0.01)
    ).count(name="win").collect("out")
    engine = env.build()
    task = engine.tasks_of("win")[0]
    counts = {"armed": 0, "fired": 0}
    arm, fire = task.register_processing_timer, task.operator.on_processing_timer

    def counting_arm(*args):
        counts["armed"] += 1
        return arm(*args)

    def counting_fire(*args):
        counts["fired"] += 1
        return fire(*args)

    task.register_processing_timer = counting_arm
    task.operator.on_processing_timer = counting_fire
    samples = []

    def sample():
        samples.append((len(task._proc_timers), counts["armed"] - counts["fired"]))
        if not task.finished:
            engine.kernel.call_after(0.005, sample)

    engine.kernel.call_at(0.0, sample)
    env.execute(until=10.0)
    assert counts["fired"] == counts["armed"] > 1000
    assert all(size == pending for size, pending in samples), samples
    assert max(size for size, _pending in samples) < 100
    assert not task._proc_timers
