"""Supervised chaos: outcome oracle, determinism, clean failure under policy."""

from __future__ import annotations

from repro.chaos import (
    KILL,
    ChaosRunner,
    FaultSpec,
    GuaranteeExpectation,
    SupervisedOutcomeOracle,
    forward_chain,
    parallel_slices,
    schedule_from_faults,
    supervised_scenarios,
)
from repro.chaos.smoke import SMOKE_MATRIX
from repro.runtime.config import GuaranteeLevel
from repro.supervision import FailureRateRestart, SupervisorConfig



class TestSupervisedSweep:
    def test_supervised_scenarios_pass_the_smoke_matrix(self):
        for scenario in supervised_scenarios():
            runner = ChaosRunner(
                scenario,
                seed=2,
                schedules_per_config=1,
                matrix=SMOKE_MATRIX,
                supervised=True,
            )
            for report in runner.sweep():
                assert report.ok, (
                    f"{scenario.name} {report.chaining}:\n{report.verdict()}"
                )
                assert report.finished or report.job_failed

    def test_parallel_slices_report_regional_restarts(self):
        # Force a kill so the supervisor actually recovers a slice.
        scenario = parallel_slices(GuaranteeLevel.AT_LEAST_ONCE)
        runner = ChaosRunner(scenario, seed=0, supervised=True)
        schedule = schedule_from_faults(
            [FaultSpec(kind=KILL, target="triple[0]", at=0.03)]
        )
        report = runner.run_one(False, schedule=schedule)
        assert report.ok, report.verdict()
        assert report.recovery["incidents"] == 1
        assert report.recovery["restarts_by_scope"] == {"region": 1}
        assert report.recovery["mean_mttr"] > 0.0

    def test_supervised_runs_replay_byte_identically(self):
        scenario = forward_chain(GuaranteeLevel.EXACTLY_ONCE)

        def one_run():
            runner = ChaosRunner(scenario, seed=5, supervised=True)
            report = runner.run_one(True, schedule_index=1)
            return (
                report.schedule.format(),
                tuple(report.injection_log),
                report.verdict(),
                tuple(sorted(report.recovery.get("restarts_by_scope", {}).items())),
            )

        assert one_run() == one_run()


class TestCleanFailureUnderChaos:
    def test_failure_rate_policy_fails_cleanly_not_hangs(self):
        scenario = forward_chain(GuaranteeLevel.EXACTLY_ONCE)
        runner = ChaosRunner(
            scenario,
            seed=0,
            supervised=True,
            supervisor_config_factory=lambda: SupervisorConfig(
                strategy_factory=lambda: FailureRateRestart(max_failures=0)
            ),
        )
        schedule = schedule_from_faults(
            [FaultSpec(kind=KILL, target="double[0]", at=0.03)]
        )
        report = runner.run_one(False, schedule=schedule)
        # One kill exceeds a zero-tolerance policy: the job must fail
        # cleanly (recorded reason, no duplicates, no hang) and the
        # supervised-outcome oracle accepts that as a valid end state.
        assert report.job_failed and not report.finished
        assert report.failure_reason and "failure-rate" in report.failure_reason
        assert report.ok, report.verdict()
        assert report.recovery["job_failed_at"] is not None


class TestSupervisedOutcomeOracle:
    def test_hang_is_a_violation(self):
        scenario = forward_chain(GuaranteeLevel.EXACTLY_ONCE)
        config = scenario.make_config(0, False)
        run = scenario.build(config)
        engine = run.engine
        engine.run(until=0.005)  # way before the job can drain
        oracle = SupervisedOutcomeOracle(
            run.expected,
            run.observed,
            GuaranteeExpectation.for_run(scenario.expectation_level),
        )
        violations = oracle.finish(engine)
        assert any("liveness" in v.message for v in violations)

    def test_finished_run_with_full_output_is_clean(self):
        scenario = forward_chain(GuaranteeLevel.EXACTLY_ONCE)
        config = scenario.make_config(0, False)
        run = scenario.build(config)
        engine = run.engine
        engine.run(until=scenario.horizon)
        oracle = SupervisedOutcomeOracle(
            run.expected,
            run.observed,
            GuaranteeExpectation.for_run(scenario.expectation_level),
        )
        assert engine.job_finished
        assert oracle.finish(engine) == []
