"""Deterministic chaos testing for the stream-processing runtime.

Seeded randomized fault schedules (fail-stop kills, channel drops /
duplicates / delays / bounded reorder, slow-task stalls, checkpoint-barrier
loss) applied to built dataflows, judged by kernel-time invariant oracles
(delivery guarantee, watermark monotonicity, credit conservation,
checkpoint consistency), with greedy shrinking of violating schedules to
minimal copy-pasteable reproducers.
"""

from repro.chaos.faults import ChannelFaultHook, ChaosInjector, default_recovery
from repro.chaos.oracles import (
    CheckpointConsistencyOracle,
    CreditConservationOracle,
    DeliveryOracle,
    GuaranteeExpectation,
    Oracle,
    OracleSuite,
    OracleViolation,
    SupervisedOutcomeOracle,
    WatermarkMonotonicityOracle,
    standard_oracles,
)
from repro.chaos.runner import DEFAULT_MATRIX, ChaosReport, ChaosRunner, flags_key
from repro.chaos.scenarios import (
    Scenario,
    ScenarioRun,
    broken_at_most_once,
    fan_in_join,
    feedback_loop,
    forward_chain,
    keyed_shuffle,
    parallel_slices,
    rescale_scenarios,
    rescale_shuffle,
    standard_scenarios,
    supervised_scenarios,
)
from repro.chaos.schedule import (
    ALL_KINDS,
    BARRIER_LOSS,
    CHANNEL_KINDS,
    DELAY,
    DROP,
    DUPLICATE,
    KILL,
    REORDER,
    RESCALE,
    STALL,
    TASK_KINDS,
    FaultSchedule,
    FaultSpec,
    PaletteConfig,
    generate_schedule,
    schedule_from_faults,
)

__all__ = [
    "ALL_KINDS",
    "BARRIER_LOSS",
    "CHANNEL_KINDS",
    "ChannelFaultHook",
    "ChaosInjector",
    "ChaosReport",
    "ChaosRunner",
    "CheckpointConsistencyOracle",
    "CreditConservationOracle",
    "DEFAULT_MATRIX",
    "DELAY",
    "DROP",
    "DUPLICATE",
    "DeliveryOracle",
    "FaultSchedule",
    "FaultSpec",
    "GuaranteeExpectation",
    "KILL",
    "Oracle",
    "OracleSuite",
    "OracleViolation",
    "PaletteConfig",
    "REORDER",
    "RESCALE",
    "STALL",
    "Scenario",
    "ScenarioRun",
    "SupervisedOutcomeOracle",
    "TASK_KINDS",
    "WatermarkMonotonicityOracle",
    "broken_at_most_once",
    "default_recovery",
    "fan_in_join",
    "feedback_loop",
    "flags_key",
    "forward_chain",
    "generate_schedule",
    "keyed_shuffle",
    "parallel_slices",
    "rescale_scenarios",
    "rescale_shuffle",
    "schedule_from_faults",
    "standard_oracles",
    "standard_scenarios",
    "supervised_scenarios",
]
