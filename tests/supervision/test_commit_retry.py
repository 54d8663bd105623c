"""Transactional-sink commit retries: transient second-phase faults are
retried per policy or deferred to the next successful commit — degraded,
never lost."""

from __future__ import annotations

from collections import Counter

from repro.core.datastream import StreamExecutionEnvironment
from repro.fault.guarantees import config_for_guarantee
from repro.io.sinks import TransactionalSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import GuaranteeLevel
from repro.supervision import RetryPolicy, ScriptedOutage

EVENTS = 120


def exactly_once_engine(sink):
    config = config_for_guarantee(
        GuaranteeLevel.EXACTLY_ONCE, checkpoint_interval=0.02, seed=7
    )
    env = StreamExecutionEnvironment(config, name="commit-retry")
    (
        env.from_workload(CollectionWorkload(list(range(EVENTS)), rate=2000.0), name="src")
        .map(lambda v: v * 2, name="double")
        .sink(sink, name="out")
    )
    return env.build()


def assert_exactly_once(sink):
    committed = Counter(r.value for r in sink.committed)
    assert sorted(committed) == sorted(v * 2 for v in range(EVENTS))
    assert all(count == 1 for count in committed.values())


class TestCommitRetry:
    def test_transient_commit_fault_is_retried_through(self):
        sink = TransactionalSink("out")
        outage = ScriptedOutage(fail_next=2)
        sink.commit_fault_hook = outage.as_hook()
        sink.retry_policy = RetryPolicy(max_attempts=4, base_delay=1e-3)
        engine = exactly_once_engine(sink)
        engine.run(until=30.0)
        assert engine.job_finished
        assert sink.commit_failures == 2
        assert sink.commit_attempts > sink.commit_failures
        assert_exactly_once(sink)
        # The outage opened a degraded window that a successful retry closed.
        recovery = engine.metrics.recovery
        assert recovery.degraded_intervals
        assert recovery.degraded_time() > 0.0
        assert not recovery._degraded_open

    def test_unretried_fault_defers_epochs_to_the_next_commit(self):
        sink = TransactionalSink("out")
        outage = ScriptedOutage(fail_next=1)
        sink.commit_fault_hook = outage.as_hook()
        # No retry policy: the failed commit leaves its epochs pending and
        # the next checkpoint's successful commit publishes them.
        engine = exactly_once_engine(sink)
        engine.run(until=30.0)
        assert engine.job_finished
        assert sink.commit_failures == 1
        assert_exactly_once(sink)
        recovery = engine.metrics.recovery
        assert recovery.degraded_time() > 0.0
        assert not recovery._degraded_open

    def test_exhausted_retries_leave_the_sink_degraded_not_lossy(self):
        sink = TransactionalSink("out")
        outage = ScriptedOutage(fail_next=3)
        sink.commit_fault_hook = outage.as_hook()
        sink.retry_policy = RetryPolicy(max_attempts=2, base_delay=1e-3)
        engine = exactly_once_engine(sink)
        engine.run(until=30.0)
        assert engine.job_finished
        # First commit burns 2 attempts and gives up; a later checkpoint's
        # commit publishes the stuck epochs. Nothing is lost or duplicated.
        assert sink.commit_failures == 3
        assert_exactly_once(sink)

    def test_timeout_budget_defers_the_epochs_to_a_later_commit(self):
        sink = TransactionalSink("out")
        outage = ScriptedOutage(fail_next=5)
        fault = outage.as_hook()
        attempts = []  # (checkpoint id, virtual time) of each commit attempt

        def hook(checkpoint_id):
            attempts.append((checkpoint_id, engine.kernel.now()))
            fault(checkpoint_id)

        sink.commit_fault_hook = hook
        sink.retry_policy = RetryPolicy(max_attempts=10, base_delay=1e-3, timeout=2.5e-3)
        engine = exactly_once_engine(sink)
        engine.run(until=30.0)
        assert engine.job_finished
        assert sink.commit_failures == 5
        # Backoffs of 1 ms then 2 ms would spend 3 ms, past the 2.5 ms
        # budget: each commit tries at most twice, 1 ms apart, and the five
        # faults spread over three checkpoints instead of one.
        by_checkpoint = {}
        for checkpoint_id, at in attempts:
            by_checkpoint.setdefault(checkpoint_id, []).append(at)
        faulted = list(by_checkpoint.values())[:3]
        assert [len(times) for times in faulted] == [2, 2, 2]
        assert all(times[1] - times[0] < 2.5e-3 for times in faulted)
        assert_exactly_once(sink)
        recovery = engine.metrics.recovery
        assert recovery.degraded_time() > 0.0
        assert not recovery._degraded_open
