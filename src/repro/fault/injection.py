"""Failure injection: fail-stop task kills on a schedule.

The survey's fault-tolerance discussion (§3.2) assumes the fail-stop model;
the injector schedules kills on the engine's virtual clock so recovery
experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.runtime.engine import Engine


@dataclass
class FailureEvent:
    task_name: str
    at: float
    detected_at: float | None = None
    #: correlation id shared by the kills of one node failure — a machine
    #: taking down N subtasks is one incident, not N, so a supervisor's
    #: failure-rate accounting charges the restart policy once per group
    group: str | None = None


class FailureInjector:
    """Schedules fail-stop kills and records detection timestamps."""

    def __init__(self, engine: Engine, detection_delay: float = 0.01) -> None:
        self.engine = engine
        self.detection_delay = detection_delay
        self.events: list[FailureEvent] = []
        self._detection_callbacks: list[Callable[[FailureEvent], None]] = []

    def on_detection(self, callback: Callable[[FailureEvent], None]) -> None:
        """Register ``callback(event)`` invoked ``detection_delay`` after
        each injected failure (the recovery manager's trigger)."""
        self._detection_callbacks.append(callback)

    def _dispatch_detection(self, event: FailureEvent) -> None:
        # Every registered callback sees the event even when an earlier one
        # raises (several recovery managers may watch the same injector);
        # the first error is re-raised once all have run.
        first_error: BaseException | None = None
        for callback in self._detection_callbacks:
            try:
                callback(event)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def schedule_kill(self, task_name: str, at: float, group: str | None = None) -> FailureEvent:
        """Fail-stop ``task_name`` at virtual time ``at``; detection fires after the delay."""
        event = FailureEvent(task_name=task_name, at=at, group=group)
        self.events.append(event)

        def kill() -> None:
            self.engine.kill_task(task_name)

            def detect() -> None:
                event.detected_at = self.engine.kernel.now()
                self._dispatch_detection(event)

            self.engine.kernel.call_after(self.detection_delay, detect)

        # Namespace the kill (and its detection chain) under the target
        # engine's job so a fabric teardown cancels pending injections too.
        with self.engine._job_scope():
            self.engine.kernel.call_at(at, kill)
        return event

    def schedule_node_failure(self, node_name: str, at: float) -> list[FailureEvent]:
        """Kill every subtask of a logical node (a machine hosting them).
        The events share one correlation group, so supervised recovery can
        coalesce them into a single incident."""
        group = f"node/{node_name}@{at:.9g}"
        return [
            self.schedule_kill(task.name, at, group=group)
            for task in self.engine.plan.subtasks(node_name)
        ]

    def tasks_in_group(self, group: str) -> list[str]:
        """Task names of every scheduled event in a correlation group, in
        scheduling order (a supervisor recovers the whole set at once)."""
        return [event.task_name for event in self.events if event.group == group]
