"""Sliding-window aggregation algorithms ("No pane, no gain", survey §1/§2.1).

Three interchangeable engines compute aggregates over a sliding window of
``size`` seconds evaluated at each ``slide`` boundary:

* :class:`NaiveSlidingAggregator` — recompute the full fold per evaluation,
  O(n) per window (what a system without sharing does);
* :class:`PaneSlidingAggregator` — Li et al.'s panes: partial aggregates per
  slide-sized pane, O(size/slide) combines per evaluation and one partial
  update per element;
* :class:`TwoStacksSlidingAggregator` — amortized O(1) insert/evict for any
  associative operator via the two-stacks queue-aggregation trick.

All three produce identical results for associative operators (property
tested); their cost separation as the size/slide ratio grows is experiment
E3.

Boundary convention: events whose timestamp falls exactly on a slide
boundary (within float representation error) may be attributed to either
adjacent window depending on the engine; keep timestamps off exact
boundaries (or use integral slide values) when bit-exact agreement
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class AggregateOp:
    """An associative combine with identity (a commutative monoid is not
    required; two-stacks only needs associativity)."""

    combine: Callable[[Any, Any], Any]
    identity: Any
    lift: Callable[[Any], Any] = staticmethod(lambda v: v)

    def fold(self, values: list[Any]) -> Any:
        """Fold a list through lift + combine (reference implementation)."""
        acc = self.identity
        for value in values:
            acc = self.combine(acc, self.lift(value))
        return acc


SUM = AggregateOp(lambda a, b: a + b, 0.0)
COUNT = AggregateOp(lambda a, b: a + b, 0, lift=lambda _v: 1)
MAX = AggregateOp(lambda a, b: a if a >= b else b, float("-inf"))
MIN = AggregateOp(lambda a, b: a if a <= b else b, float("inf"))


class SlidingAggregator:
    """Interface: feed timestamped values, query the window ending at ``end``."""

    def __init__(self, size: float, slide: float, op: AggregateOp) -> None:
        if slide > size:
            raise ValueError("slide must not exceed size")
        self.size = size
        self.slide = slide
        self.op = op
        self.operations = 0  # combine-count, the cost metric for E3

    def insert(self, timestamp: float, value: Any) -> None:
        """Feed one timestamped value into the aggregator."""
        raise NotImplementedError

    def result_at(self, end: float) -> Any:
        """Aggregate over ``[end - size, end)``. ``end`` must be a slide
        boundary and queries must be non-decreasing in ``end``."""
        raise NotImplementedError


class NaiveSlidingAggregator(SlidingAggregator):
    """Buffer everything; refold the live window on every evaluation."""

    def __init__(self, size: float, slide: float, op: AggregateOp) -> None:
        super().__init__(size, slide, op)
        self._buffer: list[tuple[float, Any]] = []

    def insert(self, timestamp: float, value: Any) -> None:
        self._buffer.append((timestamp, value))

    def result_at(self, end: float) -> Any:
        start = end - self.size
        # Evict elements that can never appear again (queries are monotone).
        self._buffer = [(t, v) for t, v in self._buffer if t >= start]
        acc = self.op.identity
        for timestamp, value in self._buffer:
            if start <= timestamp < end:
                acc = self.op.combine(acc, self.op.lift(value))
                self.operations += 1
        return acc


class PaneSlidingAggregator(SlidingAggregator):
    """Partial aggregate per slide-aligned pane; final = combine of panes.

    Panes are keyed by *integer* index (timestamp // slide) — float keys
    accumulate representation error across additions and silently miss
    lookups for slides like 0.1.
    """

    def __init__(self, size: float, slide: float, op: AggregateOp) -> None:
        super().__init__(size, slide, op)
        if not math.isclose(size / slide, round(size / slide)):
            raise ValueError("panes require size to be a multiple of slide")
        self._ratio = round(size / slide)
        self._panes: dict[int, Any] = {}

    def _pane_index(self, timestamp: float) -> int:
        return math.floor(timestamp / self.slide)

    def insert(self, timestamp: float, value: Any) -> None:
        pane = self._pane_index(timestamp)
        current = self._panes.get(pane, self.op.identity)
        self._panes[pane] = self.op.combine(current, self.op.lift(value))
        self.operations += 1

    def result_at(self, end: float) -> Any:
        end_index = round(end / self.slide)
        start_index = end_index - self._ratio
        for pane in [p for p in self._panes if p < start_index]:
            del self._panes[pane]
        acc = self.op.identity
        for pane in range(start_index, end_index):
            partial = self._panes.get(pane)
            if partial is not None:
                acc = self.op.combine(acc, partial)
                self.operations += 1
        return acc


class TwoStacksSlidingAggregator(SlidingAggregator):
    """Queue aggregation with two stacks.

    The *back* stack accumulates inserts with a running prefix aggregate;
    when the front stack runs dry during eviction, the back stack is flipped
    onto it, computing suffix aggregates. The live aggregate is then
    ``combine(front_top, back_running)`` — amortized O(1) combines per
    element regardless of the size/slide ratio.
    """

    def __init__(self, size: float, slide: float, op: AggregateOp) -> None:
        super().__init__(size, slide, op)
        self._front: list[tuple[float, Any, Any]] = []  # (ts, value, suffix_agg)
        self._back: list[tuple[float, Any]] = []  # (ts, value)
        self._back_agg = op.identity

    def insert(self, timestamp: float, value: Any) -> None:
        lifted = self.op.lift(value)
        self._back.append((timestamp, lifted))
        self._back_agg = self.op.combine(self._back_agg, lifted)
        self.operations += 1

    def _flip(self) -> None:
        suffix = self.op.identity
        while self._back:
            timestamp, lifted = self._back.pop()
            suffix = self.op.combine(lifted, suffix)
            self.operations += 1
            self._front.append((timestamp, lifted, suffix))
        self._back_agg = self.op.identity

    def _evict_older_than(self, start: float) -> None:
        while True:
            if not self._front:
                if not self._back or self._back[0][0] >= start:
                    return
                self._flip()
            while self._front and self._front[-1][0] < start:
                self._front.pop()
            if self._front or not self._back or self._back[0][0] >= start:
                return

    def result_at(self, end: float) -> Any:
        self._evict_older_than(end - self.size)
        front_agg = self._front[-1][2] if self._front else self.op.identity
        self.operations += 1
        return self.op.combine(front_agg, self._back_agg)


def run_slider(
    aggregator: SlidingAggregator,
    events: list[tuple[float, Any]],
    horizon: float | None = None,
) -> list[tuple[float, Any]]:
    """Drive any aggregator over in-order events, evaluating at every slide
    boundary; returns ``[(window_end, aggregate), ...]`` — the shared harness
    for correctness tests and for the E3 benchmark."""
    results: list[tuple[float, Any]] = []
    slide = aggregator.slide
    next_end = slide
    last_time = 0.0
    for timestamp, value in events:
        while next_end <= timestamp:
            results.append((next_end, aggregator.result_at(next_end)))
            next_end += slide
        aggregator.insert(timestamp, value)
        last_time = max(last_time, timestamp)
    horizon = horizon if horizon is not None else last_time + slide
    while next_end <= horizon:
        results.append((next_end, aggregator.result_at(next_end)))
        next_end += slide
    return results
