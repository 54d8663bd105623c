"""Virtual clocks for the discrete-event simulation kernel.

All latency and recovery-time measurements in the framework are expressed in
*virtual seconds* so that experiments are deterministic and independent of
host load. The clock only moves when the kernel dispatches an event.
"""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """A monotonically non-decreasing simulated clock.

    The kernel owns the clock and advances it to the timestamp of each
    dispatched event. User code reads it via :meth:`now`. On its dispatch
    path the kernel stores ``_now`` directly — heap order already guarantees
    what :meth:`advance_to` checks — and uses :meth:`advance_to` everywhere
    else.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> None:
        """Move the clock forward to ``timestamp``.

        Raises:
            SimulationError: if ``timestamp`` precedes the current time,
                which would mean the event queue delivered events out of
                order (a kernel bug, never a user error).
        """
        if timestamp < self._now - 1e-12:
            raise SimulationError(
                f"time travel: clock at {self._now}, event at {timestamp}"
            )
        self._now = max(self._now, float(timestamp))

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"


class ProcessingTimeService:
    """Read-only view of the virtual clock handed to operators.

    Operators use it for processing-time semantics (timers, heartbeats,
    latency stamps) without being able to advance time themselves.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock

    def current_processing_time(self) -> float:
        """Current virtual processing time in seconds."""
        return self._clock.now()
