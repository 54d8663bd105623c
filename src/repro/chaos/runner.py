"""ChaosRunner: randomized fault exploration with minimal reproducers.

The runner sweeps one scenario across the dispatch matrix (operator
chaining off and on), generating K seeded fault schedules per
configuration. Each run is a pure function of (scenario, seed, chaining,
schedule index): the schedule is drawn
from a namespaced :class:`~repro.sim.random.SimRandom` against the built
physical plan, applied deterministically, and judged by an
:class:`~repro.chaos.oracles.OracleSuite`. Two runs with the same inputs
produce byte-identical schedules, injection logs, and verdicts.

A violating schedule is greedily shrunk: repeatedly re-run with one fault
removed, keeping any candidate that still trips the same oracle, until no
single removal reproduces. The result is printed as a copy-pasteable
reproduction snippet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from typing import Callable

from repro.chaos.faults import ChaosInjector
from repro.chaos.oracles import (
    DeliveryOracle,
    GuaranteeExpectation,
    MetricInvariantOracle,
    OracleSuite,
    OracleViolation,
    SupervisedOutcomeOracle,
    standard_oracles,
)
from repro.chaos.scenarios import Scenario
from repro.chaos.schedule import FaultSchedule, generate_schedule
from repro.sim.random import SimRandom
from repro.supervision.supervisor import SupervisorConfig

#: the default sweep grid: operator chaining off and on
DEFAULT_MATRIX: tuple[bool, ...] = (False, True)


def flags_key(chaining: bool) -> str:
    """Stable string form of a matrix cell (used in RNG namespaces)."""
    return f"chain={int(chaining)}"


@dataclass
class ChaosReport:
    """Outcome of one (scenario, chaining, schedule) execution."""

    scenario: str
    chaining: bool
    schedule: FaultSchedule
    violations: list[OracleViolation]
    injection_log: list[str] = field(default_factory=list)
    finished: bool = False
    job_failed: bool = False
    failure_reason: str | None = None
    #: ``engine.metrics.recovery.summary()`` of the run (supervised sweeps
    #: read MTTR / restart counts / degraded time from here)
    recovery: dict = field(default_factory=dict)
    #: per-store digest of committed history + state at the end of the run —
    #: the byte-identity witness for same-seed reruns of txn scenarios
    txn_digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_oracles(self) -> set[str]:
        """Names of the oracles that fired (shrinking's reproduction key)."""
        return {v.oracle for v in self.violations}

    def verdict(self) -> str:
        """"OK" or one :meth:`OracleViolation.describe` line per violation."""
        if self.ok:
            return "OK"
        return "\n".join(v.describe() for v in self.violations)


class ChaosRunner:
    """Deterministic randomized fault exploration for one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        schedules_per_config: int = 2,
        matrix: Sequence[bool] = DEFAULT_MATRIX,
        probe_interval: float = 0.01,
        supervised: bool = False,
        supervisor_config_factory: Callable[[], SupervisorConfig] | None = None,
        observability: bool = False,
        incremental: bool = False,
        columnar: bool = False,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.schedules_per_config = schedules_per_config
        self.matrix = tuple(matrix)
        self.probe_interval = probe_interval
        #: recovery driven by a Supervisor instead of the fixed policy; the
        #: delivery oracle is swapped for the supervised-outcome oracle
        #: (finish with guarantee upheld, or fail cleanly — never hang)
        self.supervised = supervised
        self.supervisor_config_factory = supervisor_config_factory
        #: run with latency markers and tracing switched on — the in-band
        #: observability traffic must never change a verdict (the
        #: metric-invariant oracle runs either way)
        self.observability = observability
        #: checkpoint via incremental base+delta chains instead of full
        #: snapshots — recovery mechanics change, verdicts must not
        self.incremental = incremental
        #: transport record-batches end to end (columnar execution) — the
        #: unit of perturbation grows from record to batch, verdicts and
        #: consolidated outputs must not change
        self.columnar = columnar

    # ------------------------------------------------------------------
    def run_one(
        self,
        chaining: bool,
        schedule: FaultSchedule | None = None,
        schedule_index: int = 0,
    ) -> ChaosReport:
        """Build the scenario fresh, apply one schedule, judge the run.

        With ``schedule=None`` the schedule is generated from the runner
        seed; pass an explicit schedule to replay (or shrink) a prior run.
        """
        config = self.scenario.make_config(self.seed, chaining)
        if self.observability:
            config.latency_marker_period = 0.01
            config.trace_sample_rate = 0.05
        if self.incremental and config.checkpoints is not None:
            config.checkpoints.incremental = True
        if self.columnar:
            config.columnar_enabled = True
            config.columnar_batch_size = 32
        run = self.scenario.build(config)
        engine = run.engine
        if schedule is None:
            rng = SimRandom(
                self.seed,
                f"chaos/{self.scenario.name}/{flags_key(chaining)}/{schedule_index}",
            )
            schedule = generate_schedule(engine, rng, self.scenario.palette)
        expectation = GuaranteeExpectation.for_run(
            self.scenario.expectation_level, schedule
        )
        supervisor_config = (
            self.supervisor_config_factory() if self.supervisor_config_factory else None
        )
        injector = ChaosInjector(
            engine,
            schedule,
            guarantee=self.scenario.level,
            detection_delay=self.scenario.detection_delay,
            supervised=self.supervised,
            supervisor_config=supervisor_config,
        )
        injector.apply()
        if self.supervised:
            outcome = SupervisedOutcomeOracle(run.expected, run.observed, expectation)
        else:
            outcome = DeliveryOracle(run.expected, run.observed, expectation)
        suite = OracleSuite(
            standard_oracles()
            + [
                MetricInvariantOracle(
                    schedule, conserves_records=self.scenario.conserves_records
                ),
                outcome,
            ]
            + list(run.oracles),
            probe_interval=self.probe_interval,
        )
        suite.install(engine)
        engine.run(until=self.scenario.horizon)
        violations = suite.finalize(engine)
        return ChaosReport(
            scenario=self.scenario.name,
            chaining=chaining,
            schedule=schedule,
            violations=list(violations),
            injection_log=list(injector.log),
            finished=engine.job_finished,
            job_failed=engine.job_failed,
            failure_reason=engine.failure_reason,
            recovery=engine.metrics.recovery.summary(),
            txn_digests={
                name: store.digest() for name, store in engine.txn_stores.items()
            },
        )

    def sweep(self) -> list[ChaosReport]:
        """Run every (chaining, schedule index) cell of the grid."""
        reports = []
        for chaining in self.matrix:
            for index in range(self.schedules_per_config):
                reports.append(self.run_one(chaining, schedule_index=index))
        return reports

    # ------------------------------------------------------------------
    def shrink(self, report: ChaosReport) -> ChaosReport:
        """Greedily minimize a violating schedule.

        Repeatedly re-runs the scenario with one fault removed; a candidate
        survives if it still trips at least one of the originally violated
        oracles. Terminates when no single removal reproduces — the result
        is 1-minimal: every remaining fault is necessary.
        """
        if report.ok:
            return report
        target_oracles = report.violated_oracles()
        current = report
        shrinking = True
        while shrinking and len(current.schedule) > 1:
            shrinking = False
            for index in range(len(current.schedule)):
                candidate = self.run_one(
                    current.chaining, schedule=current.schedule.without(index)
                )
                if candidate.violated_oracles() & target_oracles:
                    current = candidate
                    shrinking = True
                    break
        return current

    # ------------------------------------------------------------------
    def format_reproducer(self, report: ChaosReport) -> str:
        """Copy-pasteable reproduction: seed, chaining, schedule, verdict."""
        chaining = report.chaining
        lines = [
            f"# chaos reproducer: {report.scenario}",
            f"# seed={self.seed} chaining_enabled={chaining}",
            "# verdict:",
        ]
        lines += [f"#   {line}" for line in report.verdict().splitlines()]
        lines += [
            "schedule = " + report.schedule.format(),
            f"runner = ChaosRunner(scenario, seed={self.seed})",
            f"report = runner.run_one({chaining}, schedule=schedule)",
            "assert not report.ok",
        ]
        return "\n".join(lines)

    def explore(self) -> tuple[list[ChaosReport], list[str]]:
        """Full loop: sweep, shrink every violation, format reproducers."""
        reports = self.sweep()
        reproducers = []
        for report in reports:
            if not report.ok:
                minimal = self.shrink(report)
                reproducers.append(self.format_reproducer(minimal))
        return reports, reproducers
