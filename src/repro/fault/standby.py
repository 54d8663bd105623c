"""High-availability strategies: active and passive standby (survey §3.2).

* **Active standby** runs a mirrored instance in parallel; on failure the
  secondary takes over almost immediately. We model the mirror exactly: its
  state equals the primary's at failure (same deterministic inputs), and
  deliveries during the short switchover are retained, not lost. The cost
  is doubled resource-seconds, which :class:`ActiveStandby` accounts.
* **Passive standby** deploys a fresh instance on spare resources and
  restores the latest checkpointed snapshot: longer downtime (deploy +
  state transfer scaled by snapshot size), single resource cost, and work
  since the snapshot is replayed or lost depending on the source rewind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RecoveryError
from repro.runtime.engine import Engine
from repro.runtime.task import SourceTask, Task, TaskSnapshot


@dataclass
class FailoverReport:
    task_name: str
    failed_at: float
    resumed_at: float
    strategy: str
    restored_bytes: int = 0
    lost_deliveries: int = 0

    @property
    def downtime(self) -> float:
        return self.resumed_at - self.failed_at


class ActiveStandby:
    """Hot replica failover for one task.

    ``arm`` must be called before the failure; it begins retaining
    deliveries on task death (the replica keeps consuming the same
    channels) and lets us capture the replica's state — identical, by
    determinism, to the primary's state at the instant of failure.
    """

    def __init__(self, engine: Engine, task_name: str, switchover_delay: float = 2e-3) -> None:
        self.engine = engine
        self.task = engine.tasks.get(task_name)
        if self.task is None:
            raise RecoveryError(f"unknown task {task_name!r}")
        self.switchover_delay = switchover_delay
        self._armed = False
        self._mirror: TaskSnapshot | None = None

    def arm(self) -> None:
        """Start mirroring: retain deliveries on task death for the hot
        replica, and tap the task's kill path so the mirror's state is
        captured at the instant of failure — whoever kills the task (a
        failure injector, the engine, a chaos schedule), the replica holds
        exactly what the primary held when it died."""
        if self._armed:
            return
        task = self.task
        task.ha_buffer = []
        self._armed = True
        original_kill = task.kill

        def kill_with_mirror() -> None:
            if self._armed and not task.dead:
                # The replica's state == primary's state at failure
                # (deterministic mirrored execution): capture it before the
                # kill wipes it.
                self._mirror = task.take_snapshot(checkpoint_id=-1)
            original_kill()
            if self._armed and task.ha_buffer is None:
                task.ha_buffer = []  # keep retaining during switchover

        task.kill = kill_with_mirror  # type: ignore[method-assign]

    @property
    def armed(self) -> bool:
        """True once :meth:`arm` ran (a supervisor checks before promoting)."""
        return self._armed

    def resource_multiplier(self) -> float:
        """Active standby runs two instances: 2x resource-seconds."""
        return 2.0

    def fail_and_promote(self) -> FailoverReport:
        """Kill the primary now and promote the replica after the
        switchover delay. Returns the report (resumed_at is scheduled)."""
        if not self._armed:
            raise RecoveryError("active standby not armed before failure")
        task = self.task
        failed_at = self.engine.kernel.now()
        task.kill()  # the arm() tap captures the mirror
        return self._promote_after_switchover(failed_at)

    def promote(self) -> FailoverReport:
        """Bring the replica online for an *already dead* primary.

        The supervised-recovery path: the kill came from elsewhere (a
        failure injector) and the :meth:`arm` tap captured the mirror at the
        moment of death; promotion costs only the switchover delay — no
        checkpoint restore, no source rewind."""
        if not self._armed:
            raise RecoveryError("active standby not armed before failure")
        task = self.task
        if not task.dead:
            raise RecoveryError(f"task {task.name!r} is alive; nothing to promote")
        if self._mirror is None:
            raise RecoveryError("no mirror captured at failure (armed after the kill?)")
        return self._promote_after_switchover(self.engine.kernel.now())

    def _promote_after_switchover(self, failed_at: float) -> FailoverReport:
        task = self.task
        report = FailoverReport(
            task_name=task.name,
            failed_at=failed_at,
            resumed_at=failed_at + self.switchover_delay,
            strategy="active-standby",
            restored_bytes=0,  # no state transfer: the replica is hot
        )

        def promote() -> None:
            self.engine.plan.revive(task, self._mirror)
            # Drain deliveries retained during the switchover; stay armed
            # (the replica keeps mirroring for the next failure).
            buffered, task.ha_buffer = task.ha_buffer, []
            for item in buffered or []:
                task.enqueue_local(item.element, item.channel_index)

        self.engine.kernel.call_after(self.switchover_delay, promote)
        return report


class PassiveStandby:
    """Cold failover for one task from its last snapshot.

    Downtime = detection (caller's concern) + deploy delay + state
    transfer time proportional to snapshot size. Deliveries during the
    window are lost unless the caller also rewinds sources.
    """

    def __init__(
        self,
        engine: Engine,
        task_name: str,
        deploy_delay: float = 0.05,
        transfer_cost_per_byte: float = 2e-9,
    ) -> None:
        self.engine = engine
        self.task = engine.tasks.get(task_name)
        if self.task is None:
            raise RecoveryError(f"unknown task {task_name!r}")
        self.deploy_delay = deploy_delay
        self.transfer_cost_per_byte = transfer_cost_per_byte

    def resource_multiplier(self) -> float:
        """Passive standby holds only idle capacity: ~1x busy resources."""
        return 1.0

    def fail_and_recover(self) -> FailoverReport:
        """Kill the task now; restore its last snapshot after deploy + transfer time."""
        task = self.task
        snapshot = task.last_snapshot
        failed_at = self.engine.kernel.now()
        dropped_before = task.metrics.dropped
        task.kill()
        size = snapshot.size_bytes() if snapshot is not None else 0
        delay = self.deploy_delay + size * self.transfer_cost_per_byte
        report = FailoverReport(
            task_name=task.name,
            failed_at=failed_at,
            resumed_at=failed_at + delay,
            strategy="passive-standby",
            restored_bytes=size,
        )

        def recover() -> None:
            self.engine.plan.revive(task, snapshot)
            if isinstance(task, SourceTask):
                task.restart_emission()
            report.lost_deliveries = task.metrics.dropped - dropped_before

        self.engine.kernel.call_after(delay, recover)
        return report
