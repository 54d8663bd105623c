"""Shared test utilities: a stub operator context and pipeline helpers."""

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

    # --- identity ---------------------------------------------------------
    @property
    def task_name(self) -> str:
        return "stub[0]"

    @property
    def subtask_index(self) -> int:
        return 0

    @property
    def parallelism(self) -> int:
        return 1

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

    def operator_state(self, name: str, default: Any = None) -> Any:
        return getattr(self, "_op_state", {}).get(name, default)

    def set_operator_state(self, name: str, value: Any) -> None:
        if not hasattr(self, "_op_state"):
            self._op_state = {}
        self._op_state[name] = value

    def add_cost(self, seconds: float) -> None:
        pass

    # --- driving helpers -----------------------------------------------------
    def feed(self, operator: Operator, value: Any, event_time: float | None = None, key: Any = None) -> None:
        record = Record(value=value, event_time=event_time, key=key)
        self.current_key_value = key
        operator.process(record, self)

    def advance_watermark(self, operator: Operator, timestamp: float) -> None:
        """Mimic the task: fire due event timers, then deliver the watermark."""
        self._watermark = timestamp
        due = sorted([t for t in self.event_timers if t[0] <= timestamp])
        self.event_timers = [t for t in self.event_timers if t[0] > timestamp]
        for when, key, payload in due:
            self.current_key_value = key
            operator.on_event_timer(when, key, payload, self)
        operator.on_watermark(Watermark(timestamp), self)

    def fire_processing_timers(self, operator: Operator, up_to: float) -> None:
        due = sorted([t for t in self.processing_timers if t[0] <= up_to])
        self.processing_timers = [t for t in self.processing_timers if t[0] > up_to]
        for when, key, payload in due:
            self._now = max(self._now, when)
            self.current_key_value = key
            operator.on_processing_timer(when, key, payload, self)

    def records(self) -> list[Record]:
        return [e for e in self.emitted if isinstance(e, Record)]

    def record_values(self) -> list[Any]:
        return [r.value for r in self.records()]
