"""Load shedding (survey §3.3, the early-systems answer to overload).

A shedder decides **when** (queue pressure crosses a threshold), **how
many** (drop probability sized to the excess), and **which** tuples to drop:

* :class:`RandomShedder` — uniform drops (Aurora's drop-box default);
* :class:`SemanticShedder` — utility-ordered drops: tuples below a utility
  threshold go first, degrading answer *quality* less at equal drop rate
  (experiment E20);
* :class:`WindowAwareShedder` — never drops from windows that already lost
  too much, bounding per-window error.

All shedders work as operators placed in the plan (classically at
ingestion) and expose drop accounting for the quality experiments.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.events import Record
from repro.core.operators.base import Operator, OperatorContext
from repro.errors import LoadManagementError


class Shedder(Operator):
    """Base: measures pressure via the task mailbox and sheds when above
    ``activate_at`` queued elements, aiming to keep the queue near
    ``target_queue``."""

    def __init__(
        self,
        activate_at: int = 64,
        target_queue: int = 32,
        pressure_node: str | None = None,
        name: str = "shedder",
    ) -> None:
        if target_queue > activate_at:
            raise LoadManagementError("target_queue must be <= activate_at")
        self.activate_at = activate_at
        self.target_queue = target_queue
        #: observe another operator's queue instead of our own (shedding at
        #: ingestion reacts to the bottleneck further down the plan)
        self.pressure_node = pressure_node
        self._name = name
        self.dropped = 0
        self.passed = 0

    @property
    def name(self) -> str:
        return self._name

    def _queue_length(self, ctx: OperatorContext) -> int:
        task = getattr(ctx, "task", None)
        if task is None:
            return 0
        if self.pressure_node is not None and task.engine is not None:
            try:
                watched = task.engine.plan.subtasks(self.pressure_node)
            except Exception:  # noqa: BLE001 - node may not exist yet
                watched = []
            if watched:
                return max(t.mailbox_size for t in watched)
        return task.mailbox_size

    def drop_probability(self, queue_length: int) -> float:
        """0 below the activation threshold, then proportional to excess."""
        if queue_length <= self.activate_at:
            return 0.0
        excess = queue_length - self.target_queue
        span = max(1, 4 * self.activate_at - self.target_queue)
        return min(0.95, excess / span)

    def should_drop(self, record: Record, probability: float, ctx: OperatorContext) -> bool:
        """Policy hook: drop this record at the given probability?"""
        raise NotImplementedError

    def process(self, record: Record, ctx: OperatorContext) -> None:
        probability = self.drop_probability(self._queue_length(ctx))
        if probability > 0 and self.should_drop(record, probability, ctx):
            self.dropped += 1
            task = getattr(ctx, "task", None)
            if task is not None:
                task.metrics.dropped += 1
            return
        self.passed += 1
        ctx.emit(record)

    @property
    def drop_rate(self) -> float:
        total = self.dropped + self.passed
        return self.dropped / total if total else 0.0


class RandomShedder(Shedder):
    """Uniform random drops: every tuple equally expendable."""

    def __init__(self, seed: int = 0, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        from repro.sim.random import SimRandom

        self._rng = SimRandom(seed, "random-shedder")

    def should_drop(self, record: Record, probability: float, ctx: OperatorContext) -> bool:
        return self._rng.random() < probability


class SemanticShedder(Shedder):
    """Utility-based drops: tuples whose utility falls below the current
    pressure-derived threshold are dropped first.

    ``utility(value) -> [0, 1]``: 1 = most valuable. At drop probability p
    the shedder drops tuples with utility < p, approximating a QoS curve
    that sacrifices the least valuable fraction of the input.
    """

    def __init__(self, utility: Callable[[Any], float], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._utility = utility

    def should_drop(self, record: Record, probability: float, ctx: OperatorContext) -> bool:
        return self._utility(record.value) < probability


class WindowAwareShedder(RandomShedder):
    """Random shedding with a per-window drop budget: once a window has lost
    ``max_loss_fraction`` of its tuples, the rest pass regardless of
    pressure, bounding any single window's error."""

    def __init__(self, window_size: float, max_loss_fraction: float = 0.5, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= max_loss_fraction <= 1.0:
            raise LoadManagementError("max_loss_fraction must be in [0, 1]")
        self.window_size = window_size
        self.max_loss_fraction = max_loss_fraction
        self._window_counts: dict[int, tuple[int, int]] = {}  # window -> (seen, dropped)

    def should_drop(self, record: Record, probability: float, ctx: OperatorContext) -> bool:
        event_time = record.event_time if record.event_time is not None else 0.0
        window = int(event_time / self.window_size)
        seen, dropped = self._window_counts.get(window, (0, 0))
        seen += 1
        decision = False
        if dropped + 1 <= self.max_loss_fraction * seen:
            decision = super().should_drop(record, probability, ctx)
            if decision:
                dropped += 1
        self._window_counts[window] = (seen, dropped)
        # Garbage-collect old windows.
        if len(self._window_counts) > 64:
            for old in sorted(self._window_counts)[:-32]:
                del self._window_counts[old]
        return decision


def relative_error(exact: dict[Any, float], approximate: dict[Any, float]) -> float:
    """Mean relative error between exact and shed aggregates, the quality
    metric of the shedding experiments (missing windows count as 100%)."""
    if not exact:
        return 0.0
    total = 0.0
    for key, truth in exact.items():
        got = approximate.get(key)
        if got is None:
            total += 1.0
        elif truth == 0:
            total += abs(got)
        else:
            total += abs(truth - got) / abs(truth)
    return total / len(exact)
