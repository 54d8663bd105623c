"""The macro suite under chaos: all five subsystems recover together.

The ``macro-mixed`` scenario runs the ESPBench-style five-query job —
NFA state (Q2), window panes (Q3), ML weights (Q4), and txn locks (Q5)
all live in one plan — under kill/delay/stall schedules, judged against
a clean golden run with the serializability oracle armed on the Q5
store. A reduced scale keeps the sweep inside tier-1 budget;
``scripts/chaos_smoke.sh --macro`` runs the full budgeted version.
"""

from __future__ import annotations

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import macro_mixed
from repro.chaos.schedule import DELAY, KILL, STALL
from repro.chaos.smoke import SMOKE_MATRIX



def test_macro_suite_survives_fault_schedules():
    scenario = macro_mixed(scale=0.1)
    assert set(scenario.palette.kinds) == {KILL, DELAY, STALL}
    for seed in (0, 1):
        runner = ChaosRunner(
            scenario, seed=seed, schedules_per_config=1, matrix=SMOKE_MATRIX
        )
        for report in runner.sweep():
            assert report.ok, (
                f"macro-mixed seed={seed} {report.chaining}:\n"
                f"{report.schedule.format()}\n{report.verdict()}"
            )
            assert report.finished, (
                f"macro-mixed seed={seed} {report.chaining}: job hung\n"
                f"{report.schedule.format()}"
            )
            # The Q5 store registered with the serializability machinery.
            assert report.txn_digests, "no transactional store registered"


def test_macro_chaos_rerun_is_byte_identical():
    def run_once():
        runner = ChaosRunner(
            macro_mixed(scale=0.1),
            seed=3,
            schedules_per_config=1,
            matrix=(SMOKE_MATRIX[0],),
        )
        report = runner.run_one(SMOKE_MATRIX[0], schedule_index=0)
        return (
            report.schedule.format(),
            tuple(report.injection_log),
            report.txn_digests,
            report.verdict(),
        )

    assert run_once() == run_once()
