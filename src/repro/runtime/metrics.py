"""Runtime metrics: the observability layer load management depends on.

The elasticity controller (survey §3.3, DS2-style) needs *useful time* per
operator — the fraction of time a task spends doing work rather than waiting
— plus observed input/output rates; it takes both from deltas of the
cumulative :class:`TaskMetrics` counters, which tasks update inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TaskMetrics:
    task_name: str = ""
    records_in: int = 0
    records_out: int = 0
    watermarks_in: int = 0
    timers_fired: int = 0
    busy_time: float = 0.0
    blocked_time: float = 0.0
    state_reads: int = 0
    state_writes: int = 0
    #: records (a batch counts its rows) that arrived while the task was
    #: dead or were shed; control elements lost with them are not records
    dropped: int = 0
    finished_at: float | None = None
    failures: int = 0
    restored_at: list[float] = field(default_factory=list)


@dataclass
class RecoveryIncident:
    """One supervised failure → recovery cycle.

    ``mttr`` is detection → resumed (the supervisor's contribution to
    downtime); the failure-to-detection gap is the injector's
    ``detection_delay`` and is visible as ``detected_at - failed_at``.
    """

    task_name: str
    failed_at: float
    detected_at: float
    #: recovery granularity actually executed: "standby" | "task" | "region"
    #: | "global" | "job-failed" | "finished" ("" while still being handled)
    scope: str = ""
    strategy: str = ""
    resumed_at: float | None = None
    #: tasks reincarnated by this incident's recovery action
    restarted_tasks: int = 0
    #: later detections absorbed by this incident's in-flight recovery
    coalesced: int = 0

    @property
    def mttr(self) -> float | None:
        """Mean-time-to-recovery sample: detection → processing resumed."""
        if self.resumed_at is None:
            return None
        return self.resumed_at - self.detected_at


@dataclass
class RecoveryMetrics:
    """Job-level recovery observability (satellite of the supervisor)."""

    incidents: list[RecoveryIncident] = field(default_factory=list)
    restarts_by_scope: dict[str, int] = field(default_factory=dict)
    restarts_by_strategy: dict[str, int] = field(default_factory=dict)
    #: closed (start, end) windows during which an external system was being
    #: served degraded (a transactional sink's unpublished commits)
    degraded_intervals: list[tuple[float, float]] = field(default_factory=list)
    _degraded_open: dict[str, float] = field(default_factory=dict)
    job_failed_at: float | None = None
    job_failure_reason: str | None = None

    def record_incident(
        self, task_name: str, failed_at: float, detected_at: float
    ) -> RecoveryIncident:
        """Open a new incident (scope/strategy/resumed_at filled as the
        supervisor executes the recovery)."""
        incident = RecoveryIncident(task_name, failed_at, detected_at)
        self.incidents.append(incident)
        return incident

    def count_restart(self, scope: str, strategy: str) -> None:
        """Tally one executed restart by granularity and by strategy."""
        self.restarts_by_scope[scope] = self.restarts_by_scope.get(scope, 0) + 1
        self.restarts_by_strategy[strategy] = (
            self.restarts_by_strategy.get(strategy, 0) + 1
        )

    # -- graceful degradation windows ----------------------------------
    def begin_degraded(self, component: str, now: float) -> None:
        """Mark ``component`` (e.g. "sink/txn") degraded."""
        self._degraded_open.setdefault(component, now)

    def end_degraded(self, component: str, now: float) -> None:
        """Close a degradation window (no-op when none is open)."""
        start = self._degraded_open.pop(component, None)
        if start is not None:
            self.degraded_intervals.append((start, now))

    def degraded_time(self, now: float | None = None) -> float:
        """Total degraded seconds (open windows measured up to ``now``)."""
        total = sum(end - start for start, end in self.degraded_intervals)
        if now is not None:
            total += sum(now - start for start in self._degraded_open.values())
        return total

    # -- aggregates ----------------------------------------------------
    def resolved_incidents(self) -> list[RecoveryIncident]:
        """Incidents whose recovery completed (have an MTTR sample)."""
        return [i for i in self.incidents if i.resumed_at is not None]

    def mean_mttr(self) -> float:
        """Mean detection→resumed time over resolved incidents."""
        resolved = self.resolved_incidents()
        if not resolved:
            return 0.0
        return sum(i.mttr for i in resolved) / len(resolved)

    def cumulative_downtime(self) -> float:
        """Sum of per-incident failure→resumed windows (overlap not
        collapsed: concurrent incidents each count their own outage)."""
        return sum(
            i.resumed_at - i.failed_at for i in self.incidents if i.resumed_at is not None
        )

    def summary(self) -> dict:
        """JSON-friendly rollup for chaos reports and benchmark output."""
        return {
            "incidents": len(self.incidents),
            "resolved": len(self.resolved_incidents()),
            "mean_mttr": self.mean_mttr(),
            "cumulative_downtime": self.cumulative_downtime(),
            "restarts_by_scope": dict(self.restarts_by_scope),
            "restarts_by_strategy": dict(self.restarts_by_strategy),
            "degraded_time": self.degraded_time(),
            "job_failed_at": self.job_failed_at,
            "job_failure_reason": self.job_failure_reason,
        }


@dataclass
class JobMetrics:
    """Per-task metrics plus the job-level recovery record."""

    tasks: dict[str, TaskMetrics] = field(default_factory=dict)
    #: supervised-recovery observability: incidents, MTTR, restart counts,
    #: degraded-time — populated by the engine and ``repro.supervision``
    recovery: RecoveryMetrics = field(default_factory=RecoveryMetrics)

    def for_task(self, name: str) -> TaskMetrics:
        """Get (or create) one task's metrics record."""
        if name not in self.tasks:
            self.tasks[name] = TaskMetrics(task_name=name)
        return self.tasks[name]
