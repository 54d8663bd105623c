"""Window assigners: which windows does each element belong to.

Covers the classic catalogue the early query languages standardized around
(survey §2.1): tumbling, sliding (RANGE/SLIDE), session (merging), global
and count windows.
"""

from __future__ import annotations

import math
from typing import Any

from repro.errors import GraphError
from repro.windows.core import GLOBAL_WINDOW, GlobalWindow, TimeWindow

#: slides whose windows the sliding assigner keeps for reuse; the memo is
#: emptied when it holds this many (event time moves on, old slides go cold)
MEMO_SLIDES = 64


class WindowAssigner:
    """Maps (value, event_time) to a list of windows.

    The list may be one the assigner returned before and returns again (the
    sliding assigner hands every record of one slide the same list): callers
    read it and must not mutate it.
    """

    #: merging assigners (sessions) require merge support in the operator
    is_merging = False

    def assign(self, value: Any, event_time: float) -> list[Any]:
        """Windows containing an element with this value/event time."""
        raise NotImplementedError

    def default_trigger(self) -> Any:
        """The trigger used when none is supplied."""
        from repro.windows.triggers import EventTimeTrigger

        return EventTimeTrigger()


class TumblingEventTimeWindows(WindowAssigner):
    """Fixed, non-overlapping windows of ``size`` seconds."""

    def __init__(self, size: float, offset: float = 0.0) -> None:
        if size <= 0:
            raise GraphError(f"window size must be positive, got {size}")
        self.size = size
        self.offset = offset % size

    def assign(self, value: Any, event_time: float) -> list[TimeWindow]:
        start = math.floor((event_time - self.offset) / self.size) * self.size + self.offset
        return [TimeWindow(start, start + self.size)]


class SlidingEventTimeWindows(WindowAssigner):
    """Overlapping windows of ``size`` seconds every ``slide`` seconds.

    Each element lands in ``size / slide`` windows — the aggregation-sharing
    experiments (E3) sweep exactly that ratio.
    """

    def __init__(self, size: float, slide: float, offset: float = 0.0) -> None:
        if size <= 0 or slide <= 0:
            raise GraphError("window size and slide must be positive")
        if slide > size:
            raise GraphError(f"slide {slide} larger than size {size}: use tumbling windows")
        self.size = size
        self.slide = slide
        self.offset = offset % slide
        #: slide index -> (its windows, their lowest start, the start the
        #: loop tested last and stopped at)
        self._memo: dict[int, tuple[list[TimeWindow], float, float]] = {}

    def assign(self, value: Any, event_time: float) -> list[TimeWindow]:
        """The windows starting at ``index * slide + offset`` and each
        ``slide`` lower while a start is above ``event_time - size``. The
        starts follow from the slide index alone, so a list built for this
        index is this record's list exactly when the loop would stop at the
        same place: its lowest start above the bound, the next one at or
        below it."""
        index = math.floor((event_time - self.offset) / self.slide)
        bound = event_time - self.size
        hit = self._memo.get(index)
        if hit is not None and hit[1] > bound and hit[2] <= bound:
            return hit[0]
        windows = []
        start = index * self.slide + self.offset
        while start > bound:
            windows.append(TimeWindow(start, start + self.size))
            start -= self.slide
        if windows:
            memo = self._memo
            if len(memo) >= MEMO_SLIDES:
                memo.clear()
            memo[index] = (windows, windows[-1].start, start)
        return windows


class EventTimeSessionWindows(WindowAssigner):
    """Gap-based sessions: each element opens ``[t, t + gap)``; overlapping
    windows of the same key are merged by the operator."""

    is_merging = True

    def __init__(self, gap: float) -> None:
        if gap <= 0:
            raise GraphError(f"session gap must be positive, got {gap}")
        self.gap = gap

    def assign(self, value: Any, event_time: float) -> list[TimeWindow]:
        return [TimeWindow(event_time, event_time + self.gap)]


class GlobalWindows(WindowAssigner):
    """All elements in one window; pair with a count/custom trigger."""

    def assign(self, value: Any, event_time: float) -> list[GlobalWindow]:
        return [GLOBAL_WINDOW]

    def default_trigger(self) -> Any:
        """Global windows never fire without an explicit trigger."""
        from repro.windows.triggers import NeverTrigger

        return NeverTrigger()
