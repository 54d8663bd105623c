"""Upstream backup (Hwang et al., survey §3.2).

The third classic HA approach alongside active and passive standby: the
*upstream* operator retains its output queue; when a downstream operator
fails, a fresh instance rebuilds its state by reprocessing the retained
tuples. No checkpoints, no standby resources — recovery time is the replay
time, and retention is bounded by how far back the downstream's state
reaches (for a windowed consumer: the window span behind the watermark).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import Record, StreamElement, Watermark
from repro.errors import RecoveryError
from repro.runtime.engine import Engine
from repro.runtime.task import Task
from repro.sim.kernel import PeriodicTimer


@dataclass
class UpstreamRecoveryReport:
    failed_at: float
    resumed_at: float
    replayed: int
    retained_at_failure: int

    @property
    def downtime(self) -> float:
        return self.resumed_at - self.failed_at


class UpstreamBackup:
    """Retains one upstream task's record output for downstream rebuild.

    Args:
        engine: the running engine.
        upstream: name of the task whose output is retained (e.g. "map[0]").
        downstream: name of the protected task (e.g. "count[0]").
        retention: how many event-time seconds behind the downstream
            watermark records stay useful (the consumer's state horizon,
            e.g. its window size). Older records are trimmed on each ack.
        ack_interval: virtual seconds between trim passes.
    """

    def __init__(
        self,
        engine: Engine,
        upstream: str,
        downstream: str,
        retention: float,
        ack_interval: float = 0.05,
        redeploy_delay: float = 5e-3,
    ) -> None:
        self.engine = engine
        self.upstream_task = engine.tasks.get(upstream)
        self.downstream_task = engine.tasks.get(downstream)
        if self.upstream_task is None or self.downstream_task is None:
            raise RecoveryError(f"unknown task in pair ({upstream!r}, {downstream!r})")
        self.retention = retention
        self.redeploy_delay = redeploy_delay
        self._retained: list[Record] = []
        self.trimmed = 0
        self.upstream_task.set_output_tap(self._tap)
        self._acker = PeriodicTimer(engine.kernel, ack_interval, self._ack)

    # ------------------------------------------------------------------
    def _tap(self, element: StreamElement) -> None:
        """The upstream task's output tap: retain every record it emits."""
        if isinstance(element, Record):
            self._retained.append(element)

    def _ack(self) -> None:
        """Trim records the downstream can no longer need: their event time
        has left the consumer's state horizon (watermark - retention)."""
        if self.engine.job_finished:
            self._acker.cancel()
            return
        horizon = self.downstream_task.current_watermark - self.retention
        if horizon == float("-inf"):
            return
        before = len(self._retained)
        self._retained = [
            r for r in self._retained if r.event_time is None or r.event_time > horizon
        ]
        self.trimmed += before - len(self._retained)

    # ------------------------------------------------------------------
    def fail_and_recover(self) -> UpstreamRecoveryReport:
        """Kill the downstream now; rebuild it from the retained queue.

        Protocol: the upstream is suspended for the duration (the effect
        backpressure would have on a dead consumer), deliveries that were
        already in flight are parked and then discarded — every one of them
        is also in the retained queue, which is replayed in full.
        """
        task = self.downstream_task
        failed_at = self.engine.kernel.now()
        retained_at_failure = len(self._retained)
        task.ha_buffer = []  # park (then discard) in-flight deliveries
        task.kill()
        self.upstream_task.suspend()

        def rebuild() -> None:
            self.engine.plan.revive(task)
            # Everything retained by now covers all parked in-flights: the
            # suspended upstream emitted at most one completion since the
            # kill, and its records were tapped into the retained queue.
            task.ha_buffer = None
            for record in list(self._retained):
                task.enqueue_local(record)
            self.upstream_task.resume_processing()

        self.engine.kernel.call_after(self.redeploy_delay, rebuild)
        return UpstreamRecoveryReport(
            failed_at=failed_at,
            resumed_at=failed_at + self.redeploy_delay,
            replayed=retained_at_failure,
            retained_at_failure=retained_at_failure,
        )

    @property
    def retained_count(self) -> int:
        return len(self._retained)

    def resource_multiplier(self) -> float:
        """No standby resources — only the retention buffer's memory."""
        return 1.0
