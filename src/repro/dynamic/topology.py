"""Dynamic topologies (survey §4.2).

"Statically compiled and scheduled graphs [are] a limiting factor in both
expressibility and performance." Two runtime capabilities:

* :class:`TopologyManager.attach_tap` — spawn a *new consumer* of a running
  operator's output without stopping the job (on-demand service components,
  debugging taps, new egresses);
* :class:`AdaptiveExpander` — monitor queue pressure and grow a hot
  operator's parallelism on demand (work-stealing / skew mitigation),
  delegating the mechanics to the live rescaler.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.graph import ChannelSpec
from repro.core.operators.base import Operator
from repro.load.migration import Rescaler
from repro.runtime.engine import Engine
from repro.runtime.task import Task
from repro.sim.kernel import PeriodicTimer


class TopologyManager:
    """Runtime mutations of a live physical plan."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.spawned: list[Task] = []

    def attach_tap(
        self,
        node_name: str,
        operator_factory: Callable[[], Operator],
        tap_name: str | None = None,
        processing_cost: float | None = None,
        channel: ChannelSpec | None = None,
    ) -> Task:
        """Spawn a new single-task operator consuming ``node_name``'s output
        from now on (no replay — it observes the live stream). The tap is in
        the physical plan: checkpointed, revived and rescaled with the job."""
        tap_name = tap_name or f"tap-{len(self.spawned)}"
        task = self.engine.plan.add_tap(node_name, operator_factory, tap_name, processing_cost, channel)
        self.spawned.append(task)
        return task


class AdaptiveExpander:
    """Queue-pressure-triggered on-demand parallelism (skew mitigation).

    Every ``interval`` it inspects the target operator's mailboxes; if the
    hottest subtask queues more than ``queue_threshold`` elements, the
    operator grows by one subtask (up to ``max_parallelism``), moving the
    boundary key groups to the newcomer.
    """

    def __init__(
        self,
        engine: Engine,
        node_name: str,
        queue_threshold: int = 64,
        max_parallelism: int = 16,
        interval: float = 0.1,
        rescaler: Rescaler | None = None,
    ) -> None:
        self.engine = engine
        self.node_name = node_name
        self.queue_threshold = queue_threshold
        self.max_parallelism = max_parallelism
        self.interval = interval
        self.rescaler = rescaler or Rescaler(engine)
        self.expansions: list[tuple[float, int]] = []
        self._timer: PeriodicTimer | None = None

    def start(self) -> None:
        """Begin the periodic pressure checks."""
        self._timer = PeriodicTimer(self.engine.kernel, self.interval, self._tick)

    def stop(self) -> None:
        """Cancel the pressure checks."""
        if self._timer is not None:
            self._timer.cancel()

    def _tick(self) -> None:
        if self.engine.job_finished:
            self.stop()
            return
        tasks = self.engine.plan.subtasks(self.node_name)
        hottest = max((t.mailbox_size for t in tasks), default=0)
        if hottest > self.queue_threshold and len(tasks) < self.max_parallelism:
            new_parallelism = len(tasks) + 1
            self.rescaler.rescale(self.node_name, new_parallelism, mode="live")
            self.expansions.append((self.engine.kernel.now(), new_parallelism))


def collect_task_pressure(engine: Engine, node_name: str) -> dict[str, int]:
    """Current mailbox length per subtask (the skew diagnostic)."""
    return {t.name: t.mailbox_size for t in engine.plan.subtasks(node_name)}
