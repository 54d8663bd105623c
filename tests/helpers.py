"""Shared test utilities: a stub operator context and the helpers that
drive an operator through it."""

from __future__ import annotations

from typing import Any

from repro.core.events import Record, StreamElement, Watermark
from repro.core.operators.base import Operator, OperatorContext
from repro.state.memory import InMemoryStateBackend


class StubContext(OperatorContext):
    """Drives a single operator without a runtime: collects emissions,
    tracks timers, provides in-memory keyed state."""

    def __init__(self, backend: InMemoryStateBackend | None = None) -> None:
        self.backend = backend or InMemoryStateBackend()
        self.emitted: list[StreamElement] = []
        self.side: dict[str, list[StreamElement]] = {}
        self.event_timers: list[tuple[float, Any, Any]] = []
        self.processing_timers: list[tuple[float, Any, Any]] = []
        self.current_key_value: Any = None
        self._now = 0.0
        self._watermark = float("-inf")

    # --- output -----------------------------------------------------------
    def emit(self, element: StreamElement) -> None:
        self.emitted.append(element)

    def emit_to(self, tag: str, element: StreamElement) -> None:
        self.side.setdefault(tag, []).append(element)

    # --- time ---------------------------------------------------------------
    def processing_time(self) -> float:
        return self._now

    def set_time(self, now: float) -> None:
        self._now = now

    def current_watermark(self) -> float:
        return self._watermark

    def register_event_timer(self, timestamp: float, payload: Any = None) -> None:
        self.event_timers.append((timestamp, self.current_key_value, payload))

    def register_processing_timer(self, timestamp: float, payload: Any = None) -> None:
        self.processing_timers.append((timestamp, self.current_key_value, payload))

    # --- state --------------------------------------------------------------
    @property
    def current_key(self) -> Any:
        return self.current_key_value

    def state(self, descriptor) -> Any:
        return self.backend.handle(descriptor, self.current_key_value)

    def state_keys(self, descriptor) -> list[Any]:
        return list(self.backend.keys(descriptor))

    def add_cost(self, seconds: float) -> None:
        pass


# --- driving helpers: a stub context stands in for the task's run loop ------
def feed(ctx: StubContext, operator: Operator, value: Any, event_time: float | None = None, key: Any = None) -> None:
    """Process one record under ``key``, as the task would."""
    record = Record(value=value, event_time=event_time, key=key)
    ctx.current_key_value = key
    operator.process(record, ctx)


def advance_watermark(ctx: StubContext, operator: Operator, timestamp: float) -> None:
    """Mimic the task: fire due event timers, then deliver the watermark."""
    ctx._watermark = timestamp
    due = sorted([t for t in ctx.event_timers if t[0] <= timestamp])
    ctx.event_timers = [t for t in ctx.event_timers if t[0] > timestamp]
    for when, key, payload in due:
        ctx.current_key_value = key
        operator.on_event_timer(when, key, payload, ctx)
    operator.on_watermark(Watermark(timestamp), ctx)


def fire_processing_timers(ctx: StubContext, operator: Operator, up_to: float) -> None:
    """Fire the processing-time timers due by ``up_to``, in time order."""
    due = sorted([t for t in ctx.processing_timers if t[0] <= up_to])
    ctx.processing_timers = [t for t in ctx.processing_timers if t[0] > up_to]
    for when, key, payload in due:
        ctx._now = max(ctx._now, when)
        ctx.current_key_value = key
        operator.on_processing_timer(when, key, payload, ctx)


def emitted_records(ctx: StubContext) -> list[Record]:
    """The records an operator emitted into ``ctx``, in order."""
    return [e for e in ctx.emitted if isinstance(e, Record)]


def emitted_values(ctx: StubContext) -> list[Any]:
    """The values of :func:`emitted_records`."""
    return [r.value for r in emitted_records(ctx)]
