"""A task's input protocol in one part: which input channels are open, how
their watermarks merge, and whether a checkpoint barrier round is covered
(§3.1/§3.2 aligned barriers, §3.3 reconfiguration). It knows no kernel,
mailbox or operator, so it can be driven and checked on its own.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import CheckpointBarrier
from repro.progress.watermarks import WatermarkMerger

_NEVER = float("inf")


class TaskInputs:
    """The input channels of one task and its barrier-alignment round.

    A channel is *data* or *feedback*; feedback channels close async loops
    and carry no watermarks, barriers or end-of-stream. A data channel is
    open until it *closes*: by its end-of-stream, or by retirement (a
    scale-in detached its sender), which outlives a revive because no sender
    is left to end the channel again.

    A round belongs to one checkpoint: its barrier, the channels the barrier
    arrived on (``seen``), those blocked behind it and what they held back
    (``buffer``). It is covered once every data channel delivered the
    barrier or closed no later than the barrier was injected; a channel that
    closes after the injection lost the barrier in flight, since a live
    upstream forwards it ahead of its end-of-stream. With ``aligned`` off
    (at-least-once) no channel is ever blocked.
    """

    def __init__(self) -> None:
        self.count = 0
        #: feedback channel indices (a set the task aliases: never rebound)
        self.feedback: set[int] = set()
        #: deliveries seen on feedback channels (the loop drain probe's counter)
        self.feedback_deliveries = 0
        self.aligned = True
        #: data channel -> virtual time it closed
        self._closed: dict[int, float] = {}
        self._retired: set[int] = set()
        self._merger = WatermarkMerger(0)
        self._slots: dict[int, int] = {}
        #: the barrier of the round in progress (None outside a round)
        self.round: CheckpointBarrier | None = None
        self.seen: set[int] = set()
        #: channels blocked by the round (a set the task aliases: never rebound)
        self.blocked: set[int] = set()
        self.buffer: list[Any] = []

    def register(self, feedback: bool = False) -> int:
        """Open the next input channel; returns its index."""
        index = self.count
        self.count += 1
        if feedback:
            self.feedback.add(index)
        else:
            self._slots[index] = self._merger.add_channel(float("-inf"))
        return index

    def close(self, channel: int, now: float, retire: bool = False) -> float | None:
        """``channel`` ended at ``now``, or, with ``retire``, was detached,
        which also drops its merger slot: returns the merged watermark when
        that advanced it."""
        if retire:
            if channel in self._retired:
                return None
            self._retired.add(channel)
            self.feedback.discard(channel)
        elif channel in self.feedback or not 0 <= channel < self.count:
            return None
        self._closed.setdefault(channel, now)
        slot = self._slots.pop(channel, None) if retire else None
        return None if slot is None else self._merger.retire_channel(slot)

    def advance(self, channel: int, timestamp: float, current: float) -> float | None:
        """A watermark (or heartbeat) on ``channel``: returns the new merged
        watermark, or None. A local injection (no merger slot, not feedback)
        advances the task's ``current`` directly."""
        slot = self._slots.get(channel)
        if slot is not None:
            return self._merger.update(slot, timestamp)
        if channel in self.feedback:
            return None
        return timestamp if timestamp > current else None

    def barrier(self, channel: int, barrier: CheckpointBarrier) -> bool:
        """``barrier`` arrived on data ``channel``: True when its round is
        covered. A different round in progress must be released first."""
        if self.round is None:
            self.round = barrier
        self.seen.add(channel)
        if self.aligned and self.count - len(self.feedback) > 1:
            self.blocked.add(channel)
        return self.covered(barrier)

    def covered(self, barrier: CheckpointBarrier) -> bool:
        """True when no data channel still owes ``barrier``."""
        closed, injected = self._closed, barrier.timestamp
        for channel in range(self.count):
            if channel in self.seen or channel in self.feedback:
                continue
            if closed.get(channel, _NEVER) > injected:
                return False
        return True

    def release(self) -> list[Any]:
        """End the round (completed, cancelled or superseded); returns what
        it held back, in arrival order."""
        held, self.buffer = self.buffer, []
        self.round = None
        self.seen = set()
        self.blocked.clear()
        return held

    def revive(self, now: float) -> None:
        """A new incarnation: no round, ended channels reopen, retired ones
        stay closed as of ``now`` and the merger starts over."""
        self.release()
        self._closed = dict.fromkeys(self._retired, now)
        self._merger = WatermarkMerger(0)
        self._slots = {c: self._merger.add_channel(float("-inf")) for c in sorted(self._slots)}

    @property
    def exhausted(self) -> bool:
        """Every data channel is closed (and there is at least one)."""
        data = self.count - len(self.feedback)
        return data > 0 and len(self._closed) == data
