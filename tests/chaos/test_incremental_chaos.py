"""Chaos under incremental checkpointing: base+delta chains must survive the
fault palette with every oracle green, deterministically."""

from __future__ import annotations

from repro.chaos import ChaosRunner, standard_scenarios, supervised_scenarios
from repro.chaos.scenarios import keyed_shuffle
from repro.chaos.smoke import SMOKE_MATRIX
from repro.runtime.config import GuaranteeLevel



def sweep(scenario, supervised):
    runner = ChaosRunner(
        scenario,
        seed=3,
        schedules_per_config=1,
        matrix=SMOKE_MATRIX,
        supervised=supervised,
        incremental=True,
    )
    return runner, runner.sweep()


class TestIncrementalSweep:
    def test_standard_scenarios_pass_with_chain_recovery(self):
        for scenario in standard_scenarios():
            _runner, reports = sweep(scenario, supervised=False)
            for report in reports:
                assert report.ok, f"{scenario.name} {report.chaining}:\n{report.verdict()}"

    def test_supervised_scenarios_pass_with_chain_recovery(self):
        for scenario in supervised_scenarios():
            _runner, reports = sweep(scenario, supervised=True)
            for report in reports:
                assert report.ok, f"{scenario.name} {report.chaining}:\n{report.verdict()}"
                assert report.finished or report.job_failed


class TestIncrementalDeterminism:
    def test_runs_replay_byte_identically(self):
        scenario = keyed_shuffle(GuaranteeLevel.EXACTLY_ONCE)

        def one_run():
            runner = ChaosRunner(scenario, seed=7, incremental=True)
            report = runner.run_one(True, schedule_index=1)
            return (
                report.schedule.format(),
                tuple(report.injection_log),
                report.verdict(),
                report.finished,
            )

        assert one_run() == one_run()

    def test_incremental_flag_changes_mechanics_not_verdicts(self):
        # Same scenario, seed, and schedule: chain recovery may shift the
        # timeline (different restore volumes) but every verdict must match
        # the full-snapshot run.
        scenario = keyed_shuffle(GuaranteeLevel.AT_LEAST_ONCE)
        for chaining in SMOKE_MATRIX:
            plain = ChaosRunner(scenario, seed=11).run_one(chaining)
            chained = ChaosRunner(scenario, seed=11, incremental=True).run_one(chaining)
            assert plain.schedule.format() == chained.schedule.format()
            assert plain.verdict() == chained.verdict() == "OK"
