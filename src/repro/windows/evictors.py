"""Evictors: trim window buffers before the window function runs."""

from __future__ import annotations

from typing import Any


class Evictor:
    """Given the buffered ``(event_time, value)`` pairs, return the pairs to
    keep (in order)."""

    def evict(self, elements: list[tuple[float, Any]], window: Any) -> list[tuple[float, Any]]:
        """Trim the buffered (event_time, value) pairs before the window function runs."""
        raise NotImplementedError


class CountEvictor(Evictor):
    """Keep only the last ``count`` elements."""

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count

    def evict(self, elements: list[tuple[float, Any]], window: Any) -> list[tuple[float, Any]]:
        return elements[-self.count :]
