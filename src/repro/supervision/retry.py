"""Transient-fault retry policy for external systems.

Stream jobs talk to systems the supervisor does not control — here, the
transactional sinks — and those fail *transiently* (timeouts, throttles,
leader elections) far more often than they fail for good. This module
provides:

* :class:`ScriptedOutage` — a deterministic transient-failure plan, pluggable
  into ``TransactionalSink.commit_fault_hook``;
* :class:`RetryPolicy` — bounded exponential backoff with a cumulative
  timeout budget.

``Engine._commit_sink`` applies the policy: each retry is a kernel timer,
so the backoff advances virtual time, and a commit that gives up leaves
its epochs to the next successful commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import TransientFault


class ScriptedOutage:
    """Deterministic transient-failure plan for an external system.

    Fails the next ``fail_next`` operations (count-based), and/or every
    operation while ``now() < until`` (time-based, given a clock). Install
    via :meth:`as_hook` on any component exposing a fault hook.
    """

    def __init__(
        self,
        fail_next: int = 0,
        until: float | None = None,
        now: Callable[[], float] | None = None,
    ) -> None:
        self.remaining = fail_next
        self.until = until
        self._now = now
        self.faults_injected = 0

    def should_fail(self) -> bool:
        """Consume one failure decision (count-based plans decrement)."""
        if self.until is not None and self._now is not None and self._now() < self.until:
            self.faults_injected += 1
            return True
        if self.remaining > 0:
            self.remaining -= 1
            self.faults_injected += 1
            return True
        return False

    def as_hook(self) -> Callable[[Any], None]:
        """A fault hook raising :class:`TransientFault` per this plan."""

        def hook(op: Any) -> None:
            if self.should_fail():
                raise TransientFault(f"scripted outage: {op!r} failed transiently")

        return hook


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: at most ``max_attempts`` tries, delays
    ``base_delay * multiplier^(attempt-1)`` capped at ``max_delay``, with a
    cumulative ``timeout`` budget across one operation's retries."""

    max_attempts: int = 4
    base_delay: float = 1e-3
    multiplier: float = 2.0
    max_delay: float = 0.05
    timeout: float | None = None

    def delay_for(self, attempt: int, elapsed: float = 0.0) -> float | None:
        """Backoff before the retry following failed attempt #``attempt``
        (1-based), given the ``elapsed`` backoff this operation has already
        spent; ``None`` = give up (attempts or timeout budget spent)."""
        if attempt >= self.max_attempts:
            return None
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.timeout is not None and elapsed + delay > self.timeout:
            return None
        return delay
