"""The keyed window operator: assigner + trigger + evictor + function.

Handles merging (session) windows, allowed lateness with refinements and
retractions, speculative early firing, punctuation-driven closing, and a
"late" side output — i.e. the full §2.1/§2.2 window machinery on top of
keyed state and event-time timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.events import Punctuation, Record, RecordBatch, Watermark
from repro.core.operators.base import Operator, OperatorContext
from repro.state.api import MapStateDescriptor
from repro.windows.assigners import (
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
    WindowAssigner,
)
from repro.windows.core import TimeWindow
from repro.windows.evictors import Evictor
from repro.windows.triggers import EventTimeTrigger, Trigger, TriggerResult

LATE_OUTPUT_TAG = "late"

_INF = float("inf")
_NEG_INF = float("-inf")
_CONTINUE = TriggerResult.CONTINUE
_FIRE = TriggerResult.FIRE
_FIRE_AND_PURGE = TriggerResult.FIRE_AND_PURGE
_new_row = tuple.__new__


@dataclass(frozen=True)
class WindowResult:
    """What the window operator emits downstream."""

    key: Any
    start: float
    end: float
    value: Any


class WindowFunction:
    """How buffered/accumulated contents become a result."""

    #: incremental functions keep an accumulator; buffered keep all elements
    incremental = True

    def create(self) -> Any:
        """A fresh accumulator (or buffer)."""
        raise NotImplementedError

    def add(self, acc: Any, value: Any) -> Any:
        """Fold one element into the accumulator."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        """Combine two accumulators (session-window merging)."""
        raise NotImplementedError("this window function cannot merge sessions")

    def result(self, key: Any, window: Any, acc: Any) -> Any:
        """Produce the window's output from the accumulator."""
        raise NotImplementedError


class AggregateFunction(WindowFunction):
    incremental = True

    def __init__(
        self,
        create: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        result: Callable[[Any], Any] = lambda acc: acc,
        merge: Callable[[Any, Any], Any] | None = None,
        add_batch: Callable[[Any, list], Any] | None = None,
    ) -> None:
        self._create = create
        self._add = add
        self._result = result
        self._merge = merge
        #: optional vectorized fold: ``add_batch(acc, values) -> acc`` over a
        #: whole in-order run of window contents. MUST return exactly what
        #: folding ``add`` sequentially would (counts, int sums, min/max —
        #: not float sums, whose pairwise reduction changes the last ulp),
        #: because the columnar path uses it wherever the scalar path folds.
        self.add_batch = add_batch

    def create(self) -> Any:
        return self._create()

    def add(self, acc: Any, value: Any) -> Any:
        return self._add(acc, value)

    def merge(self, a: Any, b: Any) -> Any:
        if self._merge is None:
            raise NotImplementedError(
                "session windows with an incremental aggregate need merge="
            )
        return self._merge(a, b)

    def result(self, key: Any, window: Any, acc: Any) -> Any:
        return self._result(acc)


class ProcessWindowFunction(WindowFunction):
    """Buffers all elements; ``fn(key, window, values) -> result``."""

    incremental = False

    def __init__(self, fn: Callable[[Any, Any, list[Any]], Any]) -> None:
        self._fn = fn

    def create(self) -> list[tuple[float, Any]]:
        return []

    def add(self, acc: list, value: tuple[float, Any]) -> list:
        acc.append(value)
        return acc

    def merge(self, a: list, b: list) -> list:
        return sorted(a + b, key=lambda tv: tv[0])

    def result(self, key: Any, window: Any, acc: list) -> Any:
        return self._fn(key, window, [v for _t, v in acc])


class WindowOperator(Operator):
    """Keyed windowing with the full trigger/evictor/lateness lifecycle.

    The per-record and per-fire bodies reach the state backend directly:
    ``ctx.state`` hands back a ``(backend, descriptor, key)`` row, and each
    body calls ``backend.get/put/delete`` in exactly the order and number
    the :class:`~repro.state.api.MapState` methods would — an add is a
    ``get`` (``MapState.get``) then a ``get`` and a ``put``
    (``MapState.put``); a fire's update is a ``get`` then a ``put``, or a
    ``delete`` once the map empties (``MapState.remove``) — so access
    counts, the cost model and change tracking see the same accesses
    without the handle's frames. The colder paths (session merging,
    cleanup timers, early timers, punctuations, flush) keep the handle.
    """

    def __init__(
        self,
        assigner: WindowAssigner,
        function: WindowFunction,
        trigger: Trigger | None = None,
        evictor: Evictor | None = None,
        allowed_lateness: float = 0.0,
        emit_window_results: bool = True,
        retract_refinements: bool = False,
        name: str = "window",
    ) -> None:
        self.assigner = assigner
        self.function = function
        self.trigger = trigger or assigner.default_trigger()
        self.evictor = evictor
        self.allowed_lateness = allowed_lateness
        self.emit_window_results = emit_window_results
        self.retract_refinements = retract_refinements
        self._name = name
        self._descriptor = MapStateDescriptor(f"{name}-contents")
        if evictor is not None and function.incremental:
            raise ValueError("evictors require a buffering (process) window function")
        self.late_drops = 0
        #: the trigger's per-element hook; None where it is the base one,
        #: which always answers CONTINUE
        self._on_element = (
            None if type(self.trigger).on_element is Trigger.on_element else self.trigger.on_element
        )
        #: an :class:`AggregateFunction`'s user callables, called directly;
        #: ``_result`` is None for other functions (``function.result`` runs)
        plain = type(function) is AggregateFunction
        self._create = function._create if plain else function.create
        self._add = function._add if plain else function.add
        self._result = function._result if plain else None
        #: the plain watermark trigger, whose event-time decision
        #: ``on_event_timer`` makes inline (pinned to
        #: ``EventTimeTrigger.on_event_time`` by the window operator tests)
        self._watermark_trigger = type(self.trigger) is EventTimeTrigger
        #: static half of the columnar gate: fixed time windows, the plain
        #: watermark trigger, no evictor. (Count/early/punctuation triggers
        #: observe each element, merging windows reorder state — those keep
        #: exact scalar semantics via the explode/rebuild fallback.)
        self._batch_fast_path = (
            evictor is None
            and not assigner.is_merging
            and isinstance(assigner, (TumblingEventTimeWindows, SlidingEventTimeWindows))
            and self._watermark_trigger
        )

    @property
    def name(self) -> str:
        return self._name

    # ------------------------------------------------------------------
    def process(self, record: Record, ctx: OperatorContext) -> None:
        value = record.value
        event_time = record.event_time
        if event_time is None:
            event_time = ctx.processing_time()
        watermark = ctx.current_watermark()
        windows = self.assigner.assign(value, event_time)
        row = ctx.state(self._descriptor)
        backend, descriptor, key = row
        if self.assigner.is_merging:
            windows = [self._merge_windows(windows[0], row, ctx)]
        lateness = self.allowed_lateness
        incremental = self.function.incremental
        get, put, add = backend.get, backend.put, self._add
        for window in windows:
            end = window.end
            if end != _INF and watermark >= end + lateness:
                self.late_drops += 1
                ctx.emit_to(LATE_OUTPUT_TAG, record)
                continue
            stored = get(descriptor, key)
            entry = stored.get(window) if stored else None
            new_window = entry is None
            if new_window:
                entry = {"acc": self._create(), "count": 0, "max_ts": event_time, "last": None}
            entry["acc"] = add(entry["acc"], value if incremental else (event_time, value))
            count = entry["count"] = entry["count"] + 1
            if event_time > entry["max_ts"]:
                entry["max_ts"] = event_time
            contents = get(descriptor, key)
            if not contents:
                contents = {window: entry}
            elif new_window or contents is not stored:
                contents[window] = entry
            # (else this is the map read first, which holds ``entry`` under
            # ``window`` already: storing it again would only hash again)
            put(descriptor, key, contents)
            if new_window and end != _INF:
                ctx.register_event_timer(end, ("fire", window))
                if lateness > 0:
                    ctx.register_event_timer(end + lateness, ("cleanup", window))
                if self.trigger.early_interval is not None:
                    ctx.register_processing_timer(
                        ctx.processing_time() + self.trigger.early_interval, ("early", window)
                    )
            on_element = self._on_element
            result = _CONTINUE if on_element is None else on_element(window, event_time, count, watermark)
            if result is _CONTINUE and end != _INF and watermark >= end:
                # The window already fired; this is an allowed-lateness
                # update — emit a refinement immediately.
                result = _FIRE
            if result is not _CONTINUE:
                self._fire(row, window, ctx, result is _FIRE_AND_PURGE)

    def process_batch(self, batch: RecordBatch, ctx: OperatorContext) -> None:
        """Vectorized window accumulation for the common shape.

        Groups the batch's rows by (key, window) so each group pays one
        state read, one state write, one max/count update, and — for
        functions with an ``add_batch`` kernel — one fold call, instead of
        per-record everything. Timer registration order matches the scalar
        path (groups form in first-touch order, windows per row in assigner
        order), and the watermark is constant across the batch just as it
        is across a scalar run with no interleaved control elements, so
        firing order and results are byte-identical.

        Any row in the late band (``watermark >= window.end``, i.e. expired
        drops or allowed-lateness refinements that the scalar path handles
        with per-record emissions) sends the whole batch down the scalar
        fallback — exactness over speed on the rare path.
        """
        n = len(batch)
        if not self._batch_fast_path or n == 0:
            super().process_batch(batch, ctx)
            return
        event_times = batch.event_times
        if event_times is None or any(t is None for t in event_times):
            super().process_batch(batch, ctx)
            return
        watermark = ctx.current_watermark()
        values = batch.values
        keys = batch.keys
        #: each row's windows are only read: the assigner may hand the same
        #: list to every row of one slide
        assign = self.assigner.assign
        #: (key, window) -> [window, key, row_indices]; insertion order is
        #: scalar first-touch order
        groups: dict[Any, list] = {}
        for i in range(n):
            event_time = event_times[i]
            key = keys[i] if keys is not None else None
            for window in assign(values[i], event_time):
                if watermark >= window.end:
                    super().process_batch(batch, ctx)
                    return
                group_key = (key, window.start, window.end)
                group = groups.get(group_key)
                if group is None:
                    groups[group_key] = [window, key, [i]]
                else:
                    group[2].append(i)
        incremental = self.function.incremental
        create = self._create
        add = self._add
        add_batch = getattr(self.function, "add_batch", None)
        lateness = self.allowed_lateness
        early_interval = self.trigger.early_interval
        for window, key, rows in groups.values():
            ctx.set_current_key(key)
            backend, descriptor, state_key = ctx.state(self._descriptor)
            entry = (backend.get(descriptor, state_key) or {}).get(window)
            new_window = entry is None
            if entry is None:
                entry = {
                    "acc": create(),
                    "count": 0,
                    "max_ts": event_times[rows[0]],
                    "last": None,
                }
            acc = entry["acc"]
            if not incremental:
                for i in rows:
                    acc = add(acc, (event_times[i], values[i]))
            elif add_batch is not None and len(rows) > 1:
                acc = add_batch(acc, [values[i] for i in rows])
            else:
                for i in rows:
                    acc = add(acc, values[i])
            entry["acc"] = acc
            entry["count"] += len(rows)
            max_ts = entry["max_ts"]
            for i in rows:
                if event_times[i] > max_ts:
                    max_ts = event_times[i]
            entry["max_ts"] = max_ts
            contents = backend.get(descriptor, state_key) or {}
            contents[window] = entry
            backend.put(descriptor, state_key, contents)
            if new_window and window.end != _INF:
                ctx.register_event_timer(window.end, ("fire", window))
                if lateness > 0:
                    ctx.register_event_timer(window.end + lateness, ("cleanup", window))
                if early_interval is not None:
                    ctx.register_processing_timer(
                        ctx.processing_time() + early_interval, ("early", window)
                    )

    def _merge_windows(self, new_window: TimeWindow, state: Any, ctx: OperatorContext) -> TimeWindow:
        """Session merge: coalesce every stored window intersecting the new one."""
        merged = new_window
        absorbed: list[TimeWindow] = []
        grew = True
        while grew:
            grew = False
            for window, _entry in state.items():
                if window in absorbed:
                    continue
                # Sessions merge when they overlap OR touch (inclusive
                # bounds): an event exactly `gap` after the last one extends
                # the session. Growth can cascade, so scan to a fixpoint.
                touches = (
                    isinstance(window, TimeWindow)
                    and window.start <= merged.end
                    and merged.start <= window.end
                )
                if touches:
                    merged = merged.cover(window)
                    absorbed.append(window)
                    grew = True
        if not absorbed:
            return new_window
        acc = self._create()
        count = 0
        max_ts = merged.start
        for window in absorbed:
            entry = state.get(window)
            acc = self.function.merge(acc, entry["acc"])
            count += entry["count"]
            max_ts = max(max_ts, entry["max_ts"])
            state.remove(window)
        state.put(merged, {"acc": acc, "count": count, "max_ts": max_ts, "last": None})
        ctx.register_event_timer(merged.end, ("fire", merged))
        if self.allowed_lateness > 0:
            ctx.register_event_timer(merged.end + self.allowed_lateness, ("cleanup", merged))
        return merged

    # ------------------------------------------------------------------
    def on_event_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        kind, window = payload
        row = ctx.state(self._descriptor)
        backend, descriptor, state_key = row
        stored = backend.get(descriptor, state_key)
        if not stored or stored.get(window) is None:
            return  # merged away or already purged
        if kind == "fire":
            if self._watermark_trigger:
                # EventTimeTrigger.on_event_time without its frame: at or
                # past the end, fire and purge
                if timestamp >= window.end:
                    self._fire(row, window, ctx, self.allowed_lateness == 0)
                return
            result = self.trigger.on_event_time(timestamp, window)
            if result is not _CONTINUE:
                self._fire(row, window, ctx, result is _FIRE_AND_PURGE and self.allowed_lateness == 0)
        elif kind == "cleanup":
            row.remove(window)

    def on_processing_timer(self, timestamp: float, key: Any, payload: Any, ctx: OperatorContext) -> None:
        kind, window = payload
        if kind != "early":
            return
        state = ctx.state(self._descriptor)
        if state.get(window) is None:
            return
        if self.trigger.on_early_timer(window) is not _CONTINUE:
            self._fire(state, window, ctx, False)
        if self.trigger.early_interval is not None:
            ctx.register_processing_timer(timestamp + self.trigger.early_interval, ("early", window))

    def on_punctuation(self, punctuation: Punctuation, ctx: OperatorContext) -> None:
        """Offer the punctuation to every live window's trigger, then forward it."""
        original_key = ctx.current_key
        for key in ctx.state_keys(self._descriptor):
            ctx.set_current_key(key)
            state = ctx.state(self._descriptor)
            for window, _entry in state.items():
                result = self.trigger.on_punctuation(punctuation, window)
                if result is not _CONTINUE:
                    self._fire(state, window, ctx, result is _FIRE_AND_PURGE)
        ctx.set_current_key(original_key)
        ctx.emit(punctuation)

    # ------------------------------------------------------------------
    def _fire(self, row: Any, window: Any, ctx: OperatorContext, purge: bool) -> None:
        """Emit ``window``'s result for the key of ``row`` (the state row
        ``ctx.state`` returned), then purge the window or keep it with the
        result remembered for a later retraction."""
        backend, descriptor, key = row
        stored = backend.get(descriptor, key)
        entry = stored.get(window) if stored else None
        if entry is None or entry["count"] == 0:
            return
        acc = entry["acc"]
        if self.evictor is not None:
            kept = self.evictor.evict(list(acc), window)
            acc = kept
            entry["acc"] = kept
        result = self._result
        value = self.function.result(key, window, acc) if result is None else result(acc)
        start = getattr(window, "start", _NEG_INF)
        end = getattr(window, "end", _INF)
        event_time = end if end != _INF else entry["max_ts"]
        output = WindowResult(key, start, end, value) if self.emit_window_results else value
        if self.retract_refinements and entry.get("last") is not None:
            ctx.emit(_new_row(Record, (entry["last"], event_time, key, -1, None, None)))
        ctx.emit(_new_row(Record, (output, event_time, key, 1, None, None)))
        contents = backend.get(descriptor, key) or {}
        if purge:
            contents.pop(window, None)
        else:
            entry["last"] = output
            if contents is not stored:
                contents[window] = entry
        if contents:
            backend.put(descriptor, key, contents)
        else:
            backend.delete(descriptor, key)

    def flush(self, ctx: OperatorContext) -> None:
        # Bounded input: the MAX watermark has already fired all event
        # timers; anything left has an infinite end (global/count windows).
        for key in ctx.state_keys(self._descriptor):
            ctx.set_current_key(key)
            state = ctx.state(self._descriptor)
            for window, entry in state.items():
                if entry["count"] > 0 and getattr(window, "end", _INF) == _INF:
                    self._fire(state, window, ctx, True)
