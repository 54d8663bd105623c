"""Rescale chaos: live key-group migration interleaved with the fault
palette — kills, stalls, and lost barriers land *during* migrations and the
delivery and conservation oracles must stay green.

The sweep is the tentpole's proof obligation: a rescale is not a fault, so a
schedule mixing rescales with recoverable faults must still finish with the
exactly-once output byte-identical to an unrescaled run, and the whole run
must replay deterministically from (seed, chaining, schedule index).
"""

from __future__ import annotations

from repro.chaos import ChaosRunner
from repro.chaos.scenarios import rescale_scenarios, rescale_shuffle
from repro.chaos.schedule import RESCALE, FaultSpec, schedule_from_faults
from repro.chaos.smoke import SMOKE_MATRIX



def rescale_only_schedule(targets):
    """A hand-written schedule that only rescales (no real faults)."""
    return schedule_from_faults(
        [
            FaultSpec(kind=RESCALE, target="count", at=at, count=p)
            for at, p in targets
        ]
    )


class TestRescaleSweep:
    def test_seeded_sweep_passes_every_oracle(self):
        for scenario in rescale_scenarios():
            for seed in (0, 1, 2):
                runner = ChaosRunner(
                    scenario, seed=seed, schedules_per_config=2, matrix=SMOKE_MATRIX
                )
                for report in runner.sweep():
                    assert report.ok, (
                        f"{scenario.name} seed={seed} {report.chaining}:\n{report.verdict()}"
                    )
                    assert report.finished, (
                        f"{scenario.name} seed={seed} {report.chaining}: job hung\n"
                        f"{report.schedule.format()}"
                    )

    def test_sweep_passes_with_incremental_chains(self):
        # Same grid, state handed off as base+delta chains: mechanics change,
        # verdicts must not.
        scenario = rescale_shuffle()
        for seed in (0, 3):
            runner = ChaosRunner(
                scenario,
                seed=seed,
                schedules_per_config=2,
                matrix=SMOKE_MATRIX,
                incremental=True,
            )
            for report in runner.sweep():
                assert report.ok, f"seed={seed} {report.chaining}:\n{report.verdict()}"
                assert report.finished

    def test_schedules_actually_interleave_rescales_with_faults(self):
        # Sanity on the generator: the palette produces schedules where
        # rescales coexist with recoverable faults, so the sweep above is
        # exercising migration under fire and not just clean rescales.
        scenario = rescale_shuffle()
        kinds_seen = set()
        mixed = 0
        for seed in range(6):
            runner = ChaosRunner(scenario, seed=seed, schedules_per_config=2)
            for chaining in SMOKE_MATRIX:
                for index in range(2):
                    report = runner.run_one(chaining, schedule_index=index)
                    kinds = report.schedule.kinds()
                    kinds_seen |= kinds
                    if RESCALE in kinds and len(kinds) > 1:
                        mixed += 1
        assert RESCALE in kinds_seen
        assert mixed >= 3, f"only {mixed} mixed schedules across the sweep"


class TestRescaledOutputMatchesUnrescaled:
    def test_rescale_only_run_is_byte_identical_to_clean_run(self):
        # No faults at all, only live rescales: the committed sink output
        # must match the unrescaled run exactly (same multiset of running
        # counts — migration moved state, not records).
        scenario = rescale_shuffle()
        runner = ChaosRunner(scenario, seed=0)
        for chaining in SMOKE_MATRIX:
            clean = runner.run_one(chaining, schedule=schedule_from_faults([]))
            rescaled = runner.run_one(
                chaining,
                schedule=rescale_only_schedule([(0.01, 3), (0.04, 1), (0.07, 2)]),
            )
            assert clean.ok and rescaled.ok, (
                f"chaining={chaining}: clean={clean.verdict()} rescaled={rescaled.verdict()}"
            )
            assert clean.finished and rescaled.finished

    def test_rescale_conserves_records_without_checkpoints_completing(self):
        # Rescales at the very start, before the first checkpoint can
        # complete: the delta-chain fallback (full handoff) must still
        # conserve every record.
        scenario = rescale_shuffle()
        runner = ChaosRunner(scenario, seed=1)
        report = runner.run_one(
            True,
            schedule=rescale_only_schedule([(0.001, 3), (0.002, 2)]),
        )
        assert report.ok, report.verdict()
        assert report.finished


class TestRescaleDeterminism:
    def test_same_seed_same_verdict_and_injection_log(self):
        scenario = rescale_shuffle()

        def one_run():
            runner = ChaosRunner(scenario, seed=5, incremental=True)
            report = runner.run_one(True, schedule_index=1)
            return (
                report.schedule.format(),
                tuple(report.injection_log),
                report.verdict(),
                report.finished,
            )

        assert one_run() == one_run()

    def test_rescale_specs_render_in_reproducers(self):
        schedule = rescale_only_schedule([(0.02, 3)])
        rendered = schedule.format()
        assert "rescale" in rendered
        assert "count=3" in rendered
