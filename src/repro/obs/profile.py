"""Profiling hooks: flame-style aggregation of virtual CPU per operator.

The kernel's cost model already charges every element a virtual duration
(processing cost + timers + state latency + ``ctx.add_cost``); the profiler
attributes those charges to semicolon-joined flame paths
(``task;lane[;label...]``) so hot operators — and hot phases *inside* an
operator, via :class:`ProfileScope` — show up in one aggregation.

All quantities are virtual seconds, so profiles are deterministic and
comparable across runs.
"""

from __future__ import annotations

from typing import Any


class Profiler:
    """Accumulates virtual-seconds by flame path."""

    #: lanes the task run loop charges per element; it adds them into
    #: ``samples`` in place, under :meth:`charge`'s positive-only rule
    LANES = ("process", "timers", "state", "extra")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: flame path ("task;lane" or "task;process;label;...") → virtual s
        self.samples: dict[str, float] = {}

    # ------------------------------------------------------------------
    def charge(self, path: str, seconds: float) -> None:
        """Attribute ``seconds`` of virtual CPU to a flame path."""
        if seconds <= 0.0:
            return
        self.samples[path] = self.samples.get(path, 0.0) + seconds

    # ------------------------------------------------------------------
    def flame(self, operator: str | None = None) -> dict[str, float]:
        """Flame-style view: path → inclusive virtual seconds, sorted.

        ``operator`` filters to paths whose root frame starts with it
        (subtask suffixes included).
        """
        items = sorted(self.samples.items())
        if operator is None:
            return dict(items)
        return {
            path: seconds
            for path, seconds in items
            if path.split(";", 1)[0].startswith(operator)
        }

    def total(self, operator: str | None = None) -> float:
        """Total virtual seconds charged (lane-level only, so nested
        ProfileScope paths are not double counted)."""
        return sum(
            seconds
            for path, seconds in self.flame(operator).items()
            if len(path.split(";")) == 2
        )

    def __repr__(self) -> str:
        return f"Profiler(enabled={self.enabled}, paths={len(self.samples)})"


class ProfileScope:
    """Context manager charging ``ctx.add_cost`` time to a flame sub-path.

    Usage inside an operator::

        with ctx.profile("lookup"):
            ctx.add_cost(2e-4)   # charged to "task;process;lookup"

    The scope measures the *extra cost* accumulated while it is open —
    inclusive of nested scopes, matching flame-graph semantics — and runs
    entirely in virtual time.
    """

    __slots__ = ("_profiler", "_owner_ctx", "_task_name", "_label", "_baseline")

    def __init__(self, profiler: Profiler, task_name: str, ctx: Any, label: str) -> None:
        self._profiler = profiler
        self._owner_ctx = ctx
        self._task_name = task_name
        self._label = label

    def __enter__(self) -> "ProfileScope":
        stack = getattr(self._owner_ctx, "_profile_stack", None)
        if stack is None:
            stack = []
            self._owner_ctx._profile_stack = stack
        stack.append(self._label)
        self._baseline = self._owner_ctx.extra_cost
        return self

    def __exit__(self, *exc: Any) -> bool:
        delta = self._owner_ctx.extra_cost - self._baseline
        stack = self._owner_ctx._profile_stack
        path = ";".join([self._task_name, "process", *stack])
        stack.pop()
        self._profiler.charge(path, delta)
        return False


class NullProfileScope:
    """No-op scope returned when profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullProfileScope":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_PROFILE_SCOPE = NullProfileScope()
