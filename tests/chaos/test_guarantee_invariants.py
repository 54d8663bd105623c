"""Chaos grid: every pipeline shape holds its guarantee under seeded faults.

Four shapes (forward chain, keyed shuffle, fan-in join, feedback loop) x
operator chaining off and on x K seeded fault schedules. Every cell must
finish and satisfy the full oracle suite: the configured delivery
guarantee, watermark monotonicity, credit conservation, and checkpoint
consistency. A failure message embeds the
copy-pasteable reproducer.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosRunner,
    fan_in_join,
    feedback_loop,
    forward_chain,
    keyed_shuffle,
)
from repro.chaos.smoke import SMOKE_MATRIX
from repro.runtime.config import GuaranteeLevel

SCENARIOS = {
    "forward-chain-eo": lambda: forward_chain(GuaranteeLevel.EXACTLY_ONCE),
    "forward-chain-alo": lambda: forward_chain(GuaranteeLevel.AT_LEAST_ONCE),
    "keyed-shuffle-alo": lambda: keyed_shuffle(GuaranteeLevel.AT_LEAST_ONCE),
    "fan-in-join-eo": lambda: fan_in_join(GuaranteeLevel.EXACTLY_ONCE),
    "feedback-loop": feedback_loop,
}

SCHEDULES_PER_CELL = 2


@pytest.mark.parametrize("chaining", SMOKE_MATRIX, ids=lambda c: f"chain{int(c)}")
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_guarantee_holds_under_chaos(scenario_name, chaining, chaos_seed):
    scenario = SCENARIOS[scenario_name]()
    runner = ChaosRunner(scenario, seed=chaos_seed)
    for index in range(SCHEDULES_PER_CELL):
        report = runner.run_one(chaining, schedule_index=index)
        assert report.ok and report.finished, (
            f"{scenario.name} violated its guarantee:\n"
            + runner.format_reproducer(runner.shrink(report))
        )


def test_clean_run_produces_expected_output(chaos_seed):
    """Zero-fault sanity: each scenario's expected list matches reality."""
    from repro.chaos.schedule import FaultSchedule

    for factory in SCENARIOS.values():
        scenario = factory()
        runner = ChaosRunner(scenario, seed=chaos_seed)
        report = runner.run_one(
            False, schedule=FaultSchedule(seed=chaos_seed, faults=[])
        )
        assert report.ok and report.finished, (scenario.name, report.verdict())
