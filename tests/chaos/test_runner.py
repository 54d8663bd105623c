"""ChaosRunner: deterministic replay, violation catching, greedy shrinking."""

from __future__ import annotations

import pytest

from repro.chaos import (
    ChaosRunner,
    FaultSchedule,
    FaultSpec,
    broken_at_most_once,
    forward_chain,
    schedule_from_faults,
)
from repro.chaos.smoke import SMOKE_MATRIX


@pytest.mark.parametrize("chaining", SMOKE_MATRIX, ids=["plain", "chained"])
def test_same_seed_is_byte_identical(chaining, chaos_seed):
    """Two independent runners with the same (scenario, seed, chaining, index)
    produce identical schedules, injection logs, and oracle verdicts —
    including with operator chaining enabled."""
    first = ChaosRunner(forward_chain(), seed=chaos_seed + 7).run_one(chaining, schedule_index=1)
    second = ChaosRunner(forward_chain(), seed=chaos_seed + 7).run_one(chaining, schedule_index=1)
    assert first.schedule.format() == second.schedule.format()
    assert first.injection_log == second.injection_log
    assert first.verdict() == second.verdict()
    assert first.finished == second.finished


def test_different_indices_draw_different_schedules(chaos_seed):
    runner = ChaosRunner(forward_chain(), seed=chaos_seed)
    formats = {
        runner.run_one(False, schedule_index=i).schedule.format()
        for i in range(4)
    }
    assert len(formats) > 1, "schedule index must vary the draw"


def test_schedule_targets_adapt_to_chaining(chaos_seed):
    """Under chaining the forward chain fuses; channel faults must target
    the surviving physical links, not fused (nonexistent) edges."""
    runner = ChaosRunner(forward_chain(), seed=chaos_seed)
    report = runner.run_one(True, schedule_index=0)
    config = runner.scenario.make_config(chaos_seed, True)
    engine = runner.scenario.build(config).engine
    live_channels = {
        f"{ch.sender.name}->{ch.receiver.name}"
        for ch in engine.plan.channels()
        if ch.sender is not None
    }
    live_tasks = set(engine.tasks)
    for fault in report.schedule.faults:
        assert fault.target in live_channels | live_tasks, fault


def test_broken_config_is_caught_and_shrunk(chaos_seed):
    """An at-most-once deployment judged against exactly-once must violate
    under a kill, and greedy shrinking must reduce the schedule to <= 2
    faults (the kill, possibly plus one enabling perturbation)."""
    runner = ChaosRunner(
        broken_at_most_once(),
        seed=chaos_seed + 3,
        schedules_per_config=3,
        matrix=SMOKE_MATRIX,
    )
    violating = [r for r in runner.sweep() if not r.ok]
    assert violating, "a kill without checkpoints must lose records"
    assert any("kill" in r.schedule.kinds() for r in violating)
    minimal = runner.shrink(violating[0])
    assert not minimal.ok
    assert len(minimal.schedule) <= 2
    assert minimal.violated_oracles() & violating[0].violated_oracles()
    reproducer = runner.format_reproducer(minimal)
    assert "FaultSpec" in reproducer and "run_one" in reproducer


def test_printed_reproducer_replays(chaos_seed):
    """A shrunk schedule replayed via run_one(schedule=...) re-violates."""
    runner = ChaosRunner(broken_at_most_once(), seed=chaos_seed + 3)
    report = None
    for index in range(6):
        candidate = runner.run_one(False, schedule_index=index)
        if not candidate.ok:
            report = candidate
            break
    assert report is not None
    minimal = runner.shrink(report)
    replay = runner.run_one(
        minimal.chaining,
        schedule=schedule_from_faults(list(minimal.schedule.faults), seed=minimal.schedule.seed),
    )
    assert not replay.ok
    assert replay.verdict() == minimal.verdict()


def test_shrink_is_identity_for_clean_runs(chaos_seed):
    runner = ChaosRunner(forward_chain(), seed=chaos_seed)
    report = runner.run_one(False, schedule=FaultSchedule(chaos_seed, []))
    assert runner.shrink(report) is report


def test_schedule_without_and_format():
    faults = [
        FaultSpec(kind="kill", target="a[0]", at=0.01),
        FaultSpec(kind="delay", target="a[0]->b[0]", at=0.02, magnitude=0.005),
    ]
    schedule = schedule_from_faults(faults, seed=9)
    assert len(schedule.without(0)) == 1
    assert schedule.without(0).faults[0].kind == "delay"
    assert len(schedule) == 2  # original untouched
    text = schedule.format()
    assert "seed=9" in text and "kind='kill'" in text and "kind='delay'" in text
