"""The supervisor: failure detections in, recovery actions out.

Subscribes to a :class:`~repro.fault.injection.FailureInjector`'s detection
stream and drives recovery automatically — no test harness calling
``recover_from_checkpoint`` by hand. Each detection is charged to a
pluggable :class:`~repro.supervision.strategies.RestartStrategy`, then (after
the strategy's backoff) recovered at the *cheapest sufficient scope*,
escalating through the lattice::

    standby promotion  →  failover region  →  global restore  →  job failed
      (hot spare)          (FLIP-1 subset)     (full restart)     (clean stop)

Escalation triggers: no armed standby for the task → region; region restore
impossible (no completed checkpoint, a transactional sink spans the region
boundary, or a live rescale since construction left the region no longer
closed under the plan's channels) or the region's restart budget is spent
→ global; the strategy returns ``None`` (rate exceeded / attempts
exhausted) → the job is failed *cleanly* via
:meth:`~repro.runtime.engine.Engine.fail_job`.

Correlated failures (a node taking down several subtasks) arrive as events
sharing a ``group``; the supervisor coalesces them into one incident and one
strategy charge, recovering the union of the affected regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import CheckpointError, RecoveryError
from repro.runtime.config import GuaranteeLevel
from repro.runtime.metrics import RecoveryIncident
from repro.supervision.regions import FailoverRegion, compute_failover_regions, region_of
from repro.supervision.strategies import ExponentialBackoffRestart, RestartStrategy

if TYPE_CHECKING:  # pragma: no cover
    from repro.fault.injection import FailureEvent, FailureInjector
    from repro.fault.standby import ActiveStandby
    from repro.runtime.engine import Engine


@dataclass
class SupervisorConfig:
    """Knobs for a :class:`Supervisor`.

    ``strategy_factory`` builds a *fresh* strategy per supervisor (strategies
    are stateful); ``None`` means exponential backoff with jitter drawn from
    the engine's seeded RNG, so runs stay deterministic per seed.
    """

    strategy_factory: Callable[[], RestartStrategy] | None = None
    #: restarts allowed per failover region before escalating to global
    region_attempts: int = 2
    #: promote an armed hot standby instead of restoring from checkpoint
    prefer_standby: bool = True


class Supervisor:
    """Automatic recovery driver for one engine.

    Construct after :meth:`Engine.build` (regions come from the physical
    plan) and it self-registers on the injector's detection stream.
    """

    def __init__(
        self,
        engine: "Engine",
        injector: "FailureInjector",
        config: SupervisorConfig | None = None,
    ) -> None:
        self.engine = engine
        self.injector = injector
        self.config = config or SupervisorConfig()
        factory = self.config.strategy_factory
        self.strategy: RestartStrategy = (
            factory()
            if factory is not None
            else ExponentialBackoffRestart(rng=engine.rng.fork("supervision/backoff"))
        )
        self.regions: list[FailoverRegion] = compute_failover_regions(engine)
        self._region_budget: dict[tuple[int, ...], int] = {}
        self._standbys: dict[str, "ActiveStandby"] = {}
        #: task name → incident whose recovery is still in flight over it
        self._covering: dict[str, RecoveryIncident] = {}
        self._handled_groups: set[str] = set()
        injector.on_detection(self.on_failure)

    # ------------------------------------------------------------------
    def register_standby(self, standby: "ActiveStandby") -> None:
        """Offer a hot standby for its primary task; an armed standby
        pre-empts checkpoint restore (scope ``"standby"``)."""
        self._standbys[standby.task.name] = standby

    @property
    def _recovery(self):
        return self.engine.metrics.recovery

    # ------------------------------------------------------------------
    def on_failure(self, event: "FailureEvent") -> None:
        """Detection callback: charge the strategy, then schedule recovery
        after its backoff (or fail the job when the policy is exhausted)."""
        engine = self.engine
        if engine.job_finished or engine.job_failed:
            return
        covering = self._covering.get(event.task_name)
        if covering is not None:
            # An in-flight recovery already restores this task.
            covering.coalesced += 1
            return
        if event.group is not None:
            if event.group in self._handled_groups:
                return  # sibling detection of an already-handled node failure
            self._handled_groups.add(event.group)
        now = engine.kernel.now()
        detected_at = event.detected_at if event.detected_at is not None else now
        incident = self._recovery.record_incident(
            event.task_name, failed_at=event.at, detected_at=detected_at
        )
        incident.strategy = self.strategy.name
        delay = self.strategy.next_delay(now)
        if delay is None:
            incident.scope = "job-failed"
            self._covering.clear()
            engine.fail_job(
                f"restart policy exhausted after failure of {event.task_name!r}: "
                f"{self.strategy.describe()}"
            )
            return
        # Cover the directly-failed tasks until the delayed attempt runs, so
        # sibling detections in the gap coalesce instead of double-charging.
        scheduled = self._failed_names(event)
        for name in scheduled:
            self._covering[name] = incident

        def attempt() -> None:
            self._execute(incident, event, scheduled)

        engine.kernel.call_after(delay, attempt)

    # ------------------------------------------------------------------
    def _failed_names(self, event: "FailureEvent") -> list[str]:
        if event.group is not None:
            names = self.injector.tasks_in_group(event.group)
            return names or [event.task_name]
        return [event.task_name]

    def _uncover(self, incident: RecoveryIncident, names: list[str]) -> None:
        for name in names:
            if self._covering.get(name) is incident:
                self._covering.pop(name, None)

    def _execute(
        self, incident: RecoveryIncident, event: "FailureEvent", scheduled: list[str]
    ) -> None:
        engine = self.engine
        self._uncover(incident, scheduled)
        if engine.job_finished or engine.job_failed:
            return  # the job ended while the restart was pending
        task = engine.tasks.get(event.task_name)
        if task is not None and not task.dead:
            # An overlapping recovery already reincarnated it; nothing to do.
            incident.scope = "coalesced"
            incident.resumed_at = engine.kernel.now()
            return
        scope, resumed_at, restarted = self._recover(event)
        incident.scope = scope
        incident.resumed_at = resumed_at
        incident.restarted_tasks = restarted
        self._recovery.count_restart(scope, self.strategy.name)
        # Keep covering the restored set until processing actually resumes,
        # so failures raced against the restore window coalesce.
        covered = self._recovered_names(event, scope)
        for name in covered:
            self._covering[name] = incident
        now = engine.kernel.now()
        if resumed_at <= now:
            self._uncover(incident, covered)
        else:
            engine.kernel.call_at(resumed_at, lambda: self._uncover(incident, covered))

    def _recovered_names(self, event: "FailureEvent", scope: str) -> list[str]:
        if scope == "standby":
            return [event.task_name]
        if scope in ("global", "job-failed"):
            return [t.name for t in self.engine.planned_tasks()]
        names: list[str] = []
        for task_name in self._failed_names(event):
            region = region_of(self.regions, task_name)
            if region is None:
                if task_name not in names:
                    names.append(task_name)
                continue
            names.extend(n for n in region.task_names if n not in names)
        return names

    # ------------------------------------------------------------------
    def _recover(self, event: "FailureEvent") -> tuple[str, float, int]:
        """Execute the cheapest sufficient recovery; returns
        ``(scope, resumed_at, tasks_restarted)``."""
        engine = self.engine
        failed = self._failed_names(event)

        # 1. Hot standby pre-empts checkpoint restore (single-task failures
        #    only: a node failure needs a coordinated multi-task restore).
        if self.config.prefer_standby and len(failed) == 1:
            standby = self._standbys.get(failed[0])
            if standby is not None and standby.armed:
                report = standby.promote()
                return "standby", report.resumed_at, 1

        total = len(engine.planned_tasks())

        # 2. No checkpointing configured: nothing to restore from.
        if engine.config.checkpoints is None:
            if engine.config.guarantee is GuaranteeLevel.AT_MOST_ONCE:
                restarted = sum(
                    1 for t in engine.planned_tasks() if t.dead and not t.finished
                )
                engine.recover_without_replay()
                return "task", engine.kernel.now(), restarted
            return "global", engine.restart_from_scratch(), total

        # 3. Regional, while the region is a strict subset of the job and
        #    its restart budget lasts.
        region_names = self._recovered_names(event, "region")
        if len(region_names) < total:
            key = tuple(
                sorted(
                    region.index
                    for region in self.regions
                    if any(name in region for name in region_names)
                )
            )
            used = self._region_budget.get(key, 0)
            if used < self.config.region_attempts:
                try:
                    resumed_at = engine.recover_region(region_names)
                except (CheckpointError, RecoveryError):
                    pass  # no checkpoint / sink spans it / region not closed
                else:
                    self._region_budget[key] = used + 1
                    return "region", resumed_at, len(region_names)

        # 4. Global restore (from-scratch when no checkpoint ever completed).
        try:
            resumed_at = engine.recover_from_checkpoint()
        except CheckpointError:
            return "global", engine.restart_from_scratch(), total
        return "global", resumed_at, total
