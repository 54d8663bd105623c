"""Engine-level regional recovery (FLIP-1), clean job failure, and the
no-replay path's channel hygiene."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.errors import CheckpointError, RecoveryError, RuntimeStateError
from repro.fault.guarantees import config_for_guarantee
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import GuaranteeLevel

EVENTS = 120


def sliced_engine(
    level=GuaranteeLevel.AT_LEAST_ONCE, parallelism=2, sink=None, events=EVENTS
):
    """FORWARD pipeline: src -> double -> out, one failover region per slice."""
    config = config_for_guarantee(
        level, checkpoint_interval=0.02, seed=5, chaining_enabled=False
    )
    env = StreamExecutionEnvironment(config, name="regional")
    sink = sink if sink is not None else CollectSink("out")
    (
        env.from_workload(
            CollectionWorkload(list(range(events)), rate=2000.0),
            name="src",
            parallelism=parallelism,
        )
        .map(lambda v: v * 2, name="double", parallelism=parallelism)
        .sink(sink, name="out", parallelism=parallelism)
    )
    return env.build(), sink


SLICE0 = ["src[0]", "double[0]", "out[0]"]


class TestRegionalRestore:
    def test_restores_only_the_failed_slice(self):
        engine, sink = sliced_engine()

        def fail_and_recover():
            engine.kill_task("double[0]")
            resume_at = engine.recover_region(SLICE0)
            assert resume_at >= engine.kernel.now()

        engine.kernel.call_at(0.05, fail_and_recover)
        engine.run(until=30.0)
        assert engine.job_finished
        # The healthy slice never restarted, so its source never rewound.
        assert engine.tasks["src[1]"].incarnation == 0
        assert engine.tasks["src[0]"].incarnation >= 1
        counts = Counter(r.value for r in sink.results)
        assert all(counts[v * 2] >= 2 for v in range(EVENTS))

    def test_concurrent_requests_for_one_region_coalesce(self):
        engine, _sink = sliced_engine()
        resumes = []

        def fail_and_recover_twice():
            engine.kill_task("double[0]")
            resumes.append(engine.recover_region(SLICE0))
            resumes.append(engine.recover_region(SLICE0))

        engine.kernel.call_at(0.05, fail_and_recover_twice)
        engine.run(until=30.0)
        assert engine.job_finished
        # The second request joined the restore already in flight.
        assert resumes[0] == resumes[1]
        assert engine.tasks["src[0]"].incarnation == 1

    def test_boundary_transactional_sink_forces_global(self):
        # One transactional sink written by both slices: its uncommitted
        # epochs cannot be discarded for half the writers only.
        sink = TransactionalSink("out")
        engine, _ = sliced_engine(level=GuaranteeLevel.EXACTLY_ONCE, sink=sink)
        captured = {}

        def fail_and_recover():
            engine.kill_task("double[0]")
            try:
                engine.recover_region(SLICE0)
            except RecoveryError as error:
                captured["error"] = error
                engine.recover_from_checkpoint()

        engine.kernel.call_at(0.05, fail_and_recover)
        engine.run(until=30.0)
        assert engine.job_finished
        assert "spans the region boundary" in str(captured["error"])
        committed = Counter(r.value for r in sink.committed)
        assert sorted(committed) == sorted(v * 2 for v in range(EVENTS))
        assert all(count == 2 for count in committed.values())

    def test_unknown_task_in_region_raises(self):
        engine, _sink = sliced_engine()
        with pytest.raises(RecoveryError):
            engine.recover_region(["nope[9]"])

    def test_region_restore_needs_a_completed_checkpoint(self):
        engine, _sink = sliced_engine()
        with pytest.raises(CheckpointError):
            engine.recover_region(SLICE0)


class TestFailJob:
    def test_fail_job_stops_the_run_cleanly(self):
        engine, _sink = sliced_engine()
        engine.kernel.call_at(0.03, lambda: engine.fail_job("ops gave up"))
        result = engine.run(until=30.0)  # returns — no hang
        assert result.failed and not engine.job_finished
        assert engine.failure_reason == "ops gave up"
        assert engine.metrics.recovery.job_failed_at == pytest.approx(0.03)
        for task in engine.plan.tasks():
            assert task.dead or task.finished

    def test_fail_job_is_idempotent(self):
        engine, _sink = sliced_engine()

        def fail_twice():
            engine.fail_job("first")
            engine.fail_job("second")

        engine.kernel.call_at(0.03, fail_twice)
        engine.run(until=30.0)
        assert engine.failure_reason == "first"

    def test_failed_job_refuses_every_recovery_path(self):
        engine, _sink = sliced_engine()
        engine.kernel.call_at(0.03, lambda: engine.fail_job("done"))
        engine.run(until=30.0)
        with pytest.raises(RuntimeStateError):
            engine.recover_from_checkpoint()
        with pytest.raises(RuntimeStateError):
            engine.recover_region(SLICE0)
        with pytest.raises(RuntimeStateError):
            engine.restart_from_scratch()

    def test_committed_results_survive_job_failure(self):
        sink = TransactionalSink("out")
        engine, _ = sliced_engine(level=GuaranteeLevel.EXACTLY_ONCE, sink=sink)
        engine.kernel.call_at(0.045, lambda: engine.fail_job("budget"))
        engine.run(until=30.0)
        # Epochs committed before the failure stand; nothing is duplicated.
        committed = Counter(r.value for r in sink.committed)
        assert committed
        assert all(count <= 2 for count in committed.values())


class TestNoReplayHygiene:
    def test_restart_after_source_finished_still_drains(self):
        # The source finishes emitting (40 events @ 2000/s = 20 ms) before the
        # map dies. The channel reset voids the in-flight end-of-input
        # markers; recover_without_replay must re-inject them or the
        # reincarnated map waits forever.
        engine, sink = sliced_engine(
            level=GuaranteeLevel.AT_MOST_ONCE, parallelism=1, events=40
        )

        def fail_and_recover():
            engine.kill_task("double[0]")
            engine.recover_without_replay()

        engine.kernel.call_at(0.03, fail_and_recover)
        engine.run(until=30.0)
        assert engine.job_finished
        counts = Counter(r.value for r in sink.results)
        assert all(count <= 1 for count in counts.values())  # no duplicates

    def test_noop_when_nothing_is_dead(self):
        engine, _sink = sliced_engine(level=GuaranteeLevel.AT_MOST_ONCE)
        epoch = engine.execution_epoch
        engine.recover_without_replay()
        assert engine.execution_epoch == epoch
