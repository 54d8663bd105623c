"""Fluent windowing surface: ``keyed.window(assigner).aggregate(...)``."""

from __future__ import annotations

from typing import Any, Callable

from repro.core.datastream import DataStream, KeyedStream
from repro.windows.assigners import WindowAssigner
from repro.windows.evictors import Evictor
from repro.windows.operator import (
    AggregateFunction,
    ProcessWindowFunction,
    WindowFunction,
    WindowOperator,
)
from repro.windows.triggers import Trigger


class WindowedStream:
    """A keyed stream with a window assigner attached."""

    def __init__(
        self,
        keyed: KeyedStream,
        assigner: WindowAssigner,
        trigger: Trigger | None = None,
        evictor: Evictor | None = None,
        allowed_lateness: float = 0.0,
    ) -> None:
        self._keyed = keyed
        self._assigner = assigner
        self._trigger = trigger
        self._evictor = evictor
        self._allowed_lateness = allowed_lateness

    def _apply(self, function: WindowFunction, name: str, retract: bool = False, **kwargs: Any) -> DataStream:
        assigner = self._assigner
        trigger = self._trigger
        evictor = self._evictor
        lateness = self._allowed_lateness

        def factory() -> WindowOperator:
            return WindowOperator(
                assigner,
                function,
                trigger=trigger,
                evictor=evictor,
                allowed_lateness=lateness,
                retract_refinements=retract,
                name=name,
            )

        return self._keyed._connect(name, factory, **kwargs)

    def aggregate(
        self,
        create: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        result: Callable[[Any], Any] = lambda acc: acc,
        merge: Callable[[Any, Any], Any] | None = None,
        name: str = "window-agg",
        retract: bool = False,
        add_batch: Callable[[Any, list], Any] | None = None,
        **kwargs: Any,
    ) -> DataStream:
        """Incremental windowed aggregate with (create, add, result[, merge]).

        ``add_batch(acc, values)``, when given, lets the columnar path fold a
        whole in-order run at once; it must return exactly what sequential
        ``add`` calls would.
        """
        return self._apply(
            AggregateFunction(create, add, result, merge, add_batch=add_batch),
            name,
            retract=retract,
            **kwargs,
        )

    def count(self, name: str = "window-count", **kwargs: Any) -> DataStream:
        """Windowed element count (session-mergeable)."""
        return self.aggregate(
            lambda: 0,
            lambda acc, _v: acc + 1,
            merge=lambda a, b: a + b,
            add_batch=lambda acc, values: acc + len(values),
            name=name,
            **kwargs,
        )

    def apply(self, fn: Callable[[Any, Any, list[Any]], Any], name: str = "window-apply", **kwargs: Any) -> DataStream:
        """Buffered window function ``fn(key, window, values)``."""
        return self._apply(ProcessWindowFunction(fn), name, **kwargs)
