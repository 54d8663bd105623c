"""Window types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class TimeWindow:
    """A half-open event-time interval ``[start, end)``.

    A window is complete once the watermark reaches ``end``: the watermark
    asserts no records with event time ≤ end are coming, which covers every
    record this window could contain.
    """

    start: float
    end: float

    def contains(self, timestamp: float) -> bool:
        """Whether the timestamp falls in [start, end)."""
        return self.start <= timestamp < self.end

    def intersects(self, other: "TimeWindow") -> bool:
        """Whether two half-open windows overlap."""
        return self.start < other.end and other.start < self.end

    def cover(self, other: "TimeWindow") -> "TimeWindow":
        """The smallest window containing both (session merging)."""
        return TimeWindow(min(self.start, other.start), max(self.end, other.end))

    def __repr__(self) -> str:
        return f"[{self.start:g},{self.end:g})"


@dataclass(frozen=True, order=True)
class CountWindow:
    """A window identified by ordinal, used with count triggers."""

    index: int

    @property
    def end(self) -> float:
        return float("inf")

    def __repr__(self) -> str:
        return f"count#{self.index}"


@dataclass(frozen=True)
class GlobalWindow:
    """The single all-encompassing window (needs a custom trigger)."""

    @property
    def end(self) -> float:
        return float("inf")

    def __repr__(self) -> str:
        return "global"


GLOBAL_WINDOW = GlobalWindow()
