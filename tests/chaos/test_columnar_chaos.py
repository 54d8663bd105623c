"""Chaos under columnar transport: record-batches must survive the fault
palette with every oracle green, deterministically.

The perturbation unit grows from one record to one batch (a drop loses the
whole batch, a duplicate replays it, reorder swaps adjacent transport
units), but the delivery guarantees, credit conservation, and record
accounting are judged by the same oracles — none may fire."""

from __future__ import annotations

from repro.chaos import ChaosRunner, standard_scenarios, supervised_scenarios
from repro.chaos.scenarios import keyed_shuffle
from repro.chaos.smoke import SMOKE_MATRIX
from repro.runtime.config import GuaranteeLevel



def sweep(scenario, supervised):
    runner = ChaosRunner(
        scenario,
        seed=5,
        schedules_per_config=1,
        matrix=SMOKE_MATRIX,
        supervised=supervised,
        columnar=True,
    )
    return runner, runner.sweep()


class TestColumnarSweep:
    def test_standard_scenarios_pass_with_batched_transport(self):
        for scenario in standard_scenarios():
            _runner, reports = sweep(scenario, supervised=False)
            for report in reports:
                assert report.ok, f"{scenario.name} {report.chaining}:\n{report.verdict()}"

    def test_supervised_scenarios_pass_with_batched_transport(self):
        for scenario in supervised_scenarios():
            _runner, reports = sweep(scenario, supervised=True)
            for report in reports:
                assert report.ok, f"{scenario.name} {report.chaining}:\n{report.verdict()}"
                assert report.finished or report.job_failed


class TestColumnarDeterminism:
    def test_runs_replay_byte_identically(self):
        scenario = keyed_shuffle(GuaranteeLevel.EXACTLY_ONCE)

        def one_run():
            runner = ChaosRunner(scenario, seed=11, columnar=True)
            report = runner.run_one(True, schedule_index=1)
            return (
                report.schedule.format(),
                tuple(report.injection_log),
                report.verdict(),
                report.finished,
            )

        assert one_run() == one_run()

    def test_columnar_flag_changes_transport_not_verdicts(self):
        # Same scenario, seed, and schedule index: batching changes what a
        # single fault hits (a whole batch instead of one record) so the
        # timelines differ, but every verdict must stay green both ways.
        scenario = keyed_shuffle(GuaranteeLevel.AT_LEAST_ONCE)
        for columnar in (False, True):
            runner = ChaosRunner(scenario, seed=13, columnar=columnar)
            report = runner.run_one(False, schedule_index=0)
            assert report.ok, f"columnar={columnar}:\n{report.verdict()}"
