"""Supervisor behaviour: escalation lattice, coalescing, clean job failure."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.errors import RuntimeStateError
from repro.fault.guarantees import config_for_guarantee
from repro.fault.injection import FailureInjector
from repro.fault.standby import ActiveStandby
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import GuaranteeLevel
from repro.supervision import (
    FailureRateRestart,
    FixedDelayRestart,
    Supervisor,
    SupervisorConfig,
)
from repro.supervision.supervisor import REGION_ATTEMPTS

EVENTS = 120


def build_sliced(level=GuaranteeLevel.AT_LEAST_ONCE, parallelism=2, events=EVENTS):
    """FORWARD pipeline at the given parallelism: one failover region per
    slice, each source subtask emitting the full workload."""
    config = config_for_guarantee(
        level, checkpoint_interval=0.02, seed=11, chaining_enabled=False
    )
    env = StreamExecutionEnvironment(config, name="supervised")
    sink = CollectSink("out")
    (
        env.from_workload(
            CollectionWorkload(list(range(events)), rate=2000.0),
            name="src",
            parallelism=parallelism,
        )
        .map(lambda v: v * 2, name="double", parallelism=parallelism)
        .sink(sink, name="out", parallelism=parallelism)
    )
    engine = env.build()
    injector = FailureInjector(engine, detection_delay=0.005)
    return engine, injector, sink


def value_counts(sink):
    return Counter(r.value for r in sink.results)


class TestRegionalEscalation:
    def test_single_slice_failure_recovers_regionally(self):
        engine, injector, sink = build_sliced()
        Supervisor(engine, injector)
        injector.schedule_kill("double[0]", at=0.05)
        engine.run(until=30.0)
        assert engine.job_finished and not engine.job_failed
        recovery = engine.metrics.recovery
        assert len(recovery.incidents) == 1
        assert recovery.incidents[0].scope == "region"
        assert recovery.restarts_by_scope == {"region": 1}
        # The healthy slice was untouched: its source never rewound.
        assert engine.tasks["src[1]"].incarnation == 0
        assert engine.tasks["src[0]"].incarnation >= 1
        # At-least-once: every expected value from both slices delivered.
        counts = value_counts(sink)
        assert all(counts[v * 2] >= 2 for v in range(EVENTS))

    def test_incident_records_mttr_and_restart_counts(self):
        engine, injector, _sink = build_sliced()
        Supervisor(engine, injector)
        injector.schedule_kill("double[0]", at=0.05)
        engine.run(until=30.0)
        incident = engine.metrics.recovery.incidents[0]
        assert incident.resumed_at is not None
        assert incident.mttr > 0.0
        assert incident.restarted_tasks == 3  # src/double/out of one slice
        assert incident.strategy == "exponential-backoff"
        assert engine.metrics.recovery.cumulative_downtime() >= incident.mttr

    def test_region_budget_exhaustion_escalates_to_global(self):
        engine, injector, _sink = build_sliced(events=500)
        Supervisor(
            engine,
            injector,
            SupervisorConfig(strategy_factory=lambda: FixedDelayRestart(delay=1e-3)),
        )
        # one kill per regional restore the budget grants, then one more
        assert REGION_ATTEMPTS == 2
        injector.schedule_kill("double[0]", at=0.04)
        injector.schedule_kill("double[0]", at=0.12)
        injector.schedule_kill("double[0]", at=0.2)
        engine.run(until=30.0)
        assert engine.job_finished
        scopes = [i.scope for i in engine.metrics.recovery.incidents]
        assert scopes == ["region", "region", "global"]

    def test_node_failure_coalesces_into_one_global_incident(self):
        engine, injector, _sink = build_sliced()
        Supervisor(engine, injector)
        injector.schedule_node_failure("double", at=0.05)
        engine.run(until=30.0)
        assert engine.job_finished
        recovery = engine.metrics.recovery
        assert len(recovery.incidents) == 1
        incident = recovery.incidents[0]
        assert incident.coalesced == 1  # the sibling subtask's detection
        # Both slices failed: the union of their regions is the whole plan.
        assert incident.scope == "global"


class TestCleanFailure:
    def test_failure_rate_policy_fails_the_job_cleanly(self):
        engine, injector, _sink = build_sliced()
        Supervisor(
            engine,
            injector,
            SupervisorConfig(
                strategy_factory=lambda: FailureRateRestart(
                    max_failures=1, window=10.0, delay=1e-3
                )
            ),
        )
        injector.schedule_kill("double[0]", at=0.03)
        injector.schedule_kill("double[1]", at=0.06)
        result = engine.run(until=30.0)  # returns: no hang
        assert engine.job_failed and not engine.job_finished
        assert result.failed
        assert "failure-rate" in engine.failure_reason
        recovery = engine.metrics.recovery
        assert recovery.job_failed_at is not None
        assert recovery.incidents[-1].scope == "job-failed"

    def test_failed_job_refuses_further_recovery(self):
        engine, injector, _sink = build_sliced()
        Supervisor(
            engine,
            injector,
            SupervisorConfig(
                strategy_factory=lambda: FailureRateRestart(max_failures=0)
            ),
        )
        injector.schedule_kill("double[0]", at=0.03)
        engine.run(until=30.0)
        assert engine.job_failed
        with pytest.raises(RuntimeStateError):
            engine.recover_from_checkpoint()
        with pytest.raises(RuntimeStateError):
            engine.recover_region(["double[0]"])


class TestStandbyPreemption:
    def test_armed_standby_preempts_checkpoint_restore(self):
        engine, injector, sink = build_sliced()
        supervisor = Supervisor(engine, injector)
        standby = ActiveStandby(engine, "double[0]", switchover_delay=2e-3)
        standby.arm()
        supervisor.register_standby(standby)
        injector.schedule_kill("double[0]", at=0.05)
        engine.run(until=30.0)
        assert engine.job_finished
        incident = engine.metrics.recovery.incidents[0]
        assert incident.scope == "standby"
        assert incident.restarted_tasks == 1
        # Promotion is restore-free: no source rewound, nothing replayed.
        assert engine.tasks["src[0]"].incarnation == 0
        assert engine.tasks["src[1]"].incarnation == 0
        counts = value_counts(sink)
        assert all(counts[v * 2] >= 2 for v in range(EVENTS))


class TestNoCheckpoints:
    def test_at_most_once_restarts_without_replay(self):
        engine, injector, sink = build_sliced(level=GuaranteeLevel.AT_MOST_ONCE)
        Supervisor(engine, injector)
        injector.schedule_kill("double[0]", at=0.03)
        engine.run(until=30.0)
        assert engine.job_finished
        incident = engine.metrics.recovery.incidents[0]
        assert incident.scope == "task"
        # No replay: losses allowed, duplicates are not.
        counts = value_counts(sink)
        assert all(count <= 2 for count in counts.values())

    def test_missing_checkpoints_at_higher_guarantee_restart_from_scratch(self):
        # Deliberately odd deployment: at-least-once claimed, checkpoints
        # disabled. The supervisor's only sound move is a full restart.
        config = config_for_guarantee(
            GuaranteeLevel.AT_LEAST_ONCE, seed=11, chaining_enabled=False
        )
        config.checkpoints = None
        env = StreamExecutionEnvironment(config, name="no-ckpt")
        sink = CollectSink("out")
        (
            env.from_workload(
                CollectionWorkload(list(range(EVENTS)), rate=2000.0), name="src"
            )
            .map(lambda v: v * 2, name="double")
            .sink(sink, name="out")
        )
        engine = env.build()
        injector = FailureInjector(engine, detection_delay=0.005)
        Supervisor(engine, injector)
        injector.schedule_kill("double[0]", at=0.03)
        engine.run(until=30.0)
        assert engine.job_finished
        assert engine.metrics.recovery.incidents[0].scope == "global"
        counts = value_counts(sink)
        assert all(counts[v * 2] >= 1 for v in range(EVENTS))


class TestFinishedTaskFailure:
    def test_a_task_killed_after_it_finished_needs_no_recovery(self):
        # The source is done long before the slow map drains its backlog:
        # killing it then loses nothing, so the job finishes without a
        # restore (which would only replay what already reached the sink).
        config = config_for_guarantee(
            GuaranteeLevel.EXACTLY_ONCE, checkpoint_interval=0.02, seed=11,
            chaining_enabled=False,
        )
        env = StreamExecutionEnvironment(config, name="supervised")
        sink = CollectSink("out")
        env.from_workload(
            CollectionWorkload(list(range(EVENTS)), rate=10000.0), name="src"
        ).map(lambda v: v * 2, name="double", processing_cost=1e-3).sink(sink, name="out")
        engine = env.build()
        injector = FailureInjector(engine, detection_delay=0.005)
        Supervisor(engine, injector)
        injector.schedule_kill("src[0]", at=0.05)
        engine.run(until=30.0)
        assert engine.job_finished and not engine.job_failed
        recovery = engine.metrics.recovery
        assert [incident.scope for incident in recovery.incidents] == ["finished"]
        assert recovery.restarts_by_scope == {}
        assert value_counts(sink) == Counter(v * 2 for v in range(EVENTS))
