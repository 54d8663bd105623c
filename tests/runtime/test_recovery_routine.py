"""The one restart routine behind every recovery verb: regressions for the
bugs the separate per-verb paths had, the coalescing rule and the scope
closure refusal."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.errors import CheckpointError, RecoveryError
from repro.fault.injection import FailureInjector
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload, SensorWorkload
from repro.load.migration import Rescaler
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.supervision import Supervisor

ROWS = 2000


def forward_job():
    """src -> m -> out at parallelism 1, checkpoints every 20 ms, no timeout."""
    env = StreamExecutionEnvironment(
        EngineConfig(seed=3, checkpoints=CheckpointConfig(interval=0.02)), name="r"
    )
    sink = CollectSink("out")
    (
        env.from_workload(CollectionWorkload(list(range(ROWS)), rate=1000.0), name="src")
        .map(lambda v: v + 1, name="m")
        .sink(sink, name="out")
    )
    return env.build(), sink


class TestCheckpointInFlight:
    def test_global_recovery_drops_the_pending_checkpoint(self):
        # Checkpoint 5 is in flight when the job restores; it can never
        # complete (its barriers died with the old execution), so the
        # coordinator must forget it and keep checkpointing.
        engine, sink = forward_job()
        seen = {}

        def recover():
            seen["completed"] = list(engine.coordinator.completed)
            seen["pending"] = 5 in engine.checkpoints
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.1000001, recover)
        engine.run(until=5.0)
        assert seen["completed"] == [1, 2, 3, 4]
        assert seen["pending"], "checkpoint 5 was not in flight"
        assert engine.job_finished
        assert len(engine.coordinator.completed) > 20
        assert set(r.value for r in sink.results) == set(range(1, ROWS + 1))


class TestRescaleThenSupervisedFailure:
    @staticmethod
    def build():
        env = StreamExecutionEnvironment(
            EngineConfig(seed=4, checkpoints=CheckpointConfig(interval=0.1)), name="b"
        )
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=3000, rate=3000.0, key_count=24, seed=41))
            .key_by(field_selector("sensor"), parallelism=2)
            .aggregate(
                create=lambda: 0, add=lambda a, _v: a + 1,
                name="count", parallelism=2, processing_cost=1e-4,
            )
            .sink(sink, parallelism=1)
        )
        return env.build(), sink

    @staticmethod
    def final_counts(sink):
        per_key = {}
        for r in sink.results:
            per_key[r.key] = max(per_key.get(r.key, 0), r.value)
        return per_key

    def test_stale_region_escalates_to_a_rehoming_global_restore(self):
        clean, clean_sink = self.build()
        clean.run(until=30.0)

        engine, sink = self.build()
        injector = FailureInjector(engine, detection_delay=0.005)
        supervisor = Supervisor(engine, injector)  # regions from the p=2 plan
        rescaler = Rescaler(engine)
        engine.kernel.call_at(0.15, lambda: rescaler.rescale("count", 4))
        injector.schedule_kill("count[0]", at=0.2)
        engine.run(until=30.0)
        assert engine.job_finished
        assert self.final_counts(sink) == self.final_counts(clean_sink)
        # The supervisor's region predates the rescale and misses the new
        # subtasks: it is not closed under the current channels, so the
        # routine refuses it and the supervisor restores globally.
        assert len(supervisor.regions[0]) == 6 and len(engine.plan.tasks()) == 8
        assert engine.metrics.recovery.incidents[0].scope == "global"


class TestLaterRecoveryAfterSupersededRestore:
    def test_second_failure_still_recovers(self):
        engine, sink = forward_job()

        def first():
            engine.kill_task("m[0]")
            engine.recover_from_checkpoint()
            engine.restart_from_scratch()

        def second():
            engine.kill_task("m[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.1, first)
        engine.kernel.call_at(0.5, second)
        engine.run(until=5.0)
        assert engine.job_finished
        assert not engine.tasks["m[0]"].dead
        assert set(r.value for r in sink.results) == set(range(1, ROWS + 1))
        assert not engine.restore_pending


def sliced_job():
    """FORWARD src -> double -> out at p=2: one failover region per slice."""
    env = StreamExecutionEnvironment(
        EngineConfig(seed=5, chaining_enabled=False, checkpoints=CheckpointConfig(interval=0.02)),
        name="s",
    )
    sink = CollectSink("out")
    (
        env.from_workload(
            CollectionWorkload(list(range(120)), rate=2000.0), name="src", parallelism=2
        )
        .map(lambda v: v * 2, name="double", parallelism=2)
        .sink(sink, name="out", parallelism=2)
    )
    return env.build(), sink


SLICE0 = ["src[0]", "double[0]", "out[0]"]
SLICE1 = ["src[1]", "double[1]", "out[1]"]


class TestCoalescing:
    def test_covered_request_joins_the_pending_restore(self):
        engine, _sink = sliced_job()
        seen = {}

        def fail():
            engine.kill_task("double[0]")
            seen["region"] = engine.recover_region(SLICE0)
            seen["pending"] = engine.restore_pending
            seen["again"] = engine.recover_region(["double[0]", "out[0]", "src[0]"])

        engine.kernel.call_at(0.05, fail)
        engine.run(until=30.0)
        assert seen["pending"] and seen["again"] == seen["region"]
        assert engine.tasks["src[0]"].incarnation == 1
        assert not engine.restore_pending

    def test_wider_request_supersedes_and_absorbs_the_pending_restore(self):
        engine, sink = sliced_job()
        seen = {}

        def fail():
            engine.kill_task("double[0]")
            seen["region"] = engine.recover_region(SLICE0)
            engine.kill_task("double[1]")
            seen["both"] = engine.recover_region(SLICE0 + SLICE1)

        engine.kernel.call_at(0.05, fail)
        engine.run(until=30.0)
        assert engine.job_finished
        assert seen["both"] >= seen["region"]
        # The superseded slice-0 restore never ran on its own: each task was
        # revived exactly once, by the wider restore.
        assert all(engine.tasks[name].incarnation == 1 for name in SLICE0 + SLICE1)
        assert set(r.value for r in sink.results) == {v * 2 for v in range(120)}

    def test_disjoint_restores_run_side_by_side(self):
        engine, _sink = sliced_job()

        def fail():
            engine.kill_task("double[0]")
            engine.recover_region(SLICE0)
            engine.kill_task("double[1]")
            engine.recover_region(SLICE1)

        engine.kernel.call_at(0.05, fail)
        engine.run(until=30.0)
        assert engine.job_finished
        assert all(engine.tasks[name].incarnation == 1 for name in SLICE0 + SLICE1)


class TestScopeClosure:
    def test_open_scope_is_refused(self):
        engine, _sink = sliced_job()
        engine.run(until=0.05)
        with pytest.raises(RecoveryError, match="not closed"):
            engine.recover_region(["src[0]", "double[0]"])
        assert not engine.restore_pending


VERBS = ("region", "regions", "global", "scratch")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.005, max_value=0.045),
            st.sampled_from(["double[0]", "double[1]", "out[0]", "src[1]"]),
            st.sampled_from(VERBS),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_any_sequence_of_restarts_finishes_with_every_row(steps):
    """Kills and overlapping recovery requests in any order — covered ones
    coalescing, wider ones superseding, scratch racing a pending restore —
    must leave no task dead and no restore pending, and lose no row."""
    engine, sink = sliced_job()

    def step(victim, verb):
        engine.kill_task(victim)
        try:
            if verb == "region":
                engine.recover_region(SLICE0 if victim in SLICE0 else SLICE1)
            elif verb == "regions":
                engine.recover_region(SLICE0 + SLICE1)
            elif verb == "global":
                engine.recover_from_checkpoint()
            else:
                engine.restart_from_scratch()
        except CheckpointError:
            engine.restart_from_scratch()

    for at, victim, verb in steps:
        engine.kernel.call_at(at, lambda victim=victim, verb=verb: step(victim, verb))
    engine.run(until=30.0)
    assert engine.job_finished
    assert not engine.restore_pending
    assert not any(task.dead for task in engine.plan.tasks())
    assert {r.value for r in sink.results} == {v * 2 for v in range(120)}
