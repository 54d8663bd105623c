"""Configuration for the multi-tenant job fabric."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FabricError


@dataclass
class FabricConfig:
    """Knobs for :class:`~repro.fabric.JobFabric`.

    Attributes:
        slots: size of the shared slot pool — how many tenants run
            concurrently. Tenants beyond the pool wait their turn under
            deficit round-robin; with ``slots >= tenants`` no tenant is
            ever suspended (the no-contention fast path).
        quantum: virtual seconds of run time one weight unit buys per
            scheduling round. A tenant with weight ``w`` runs for
            ``quantum * w`` (plus any deficit carried from rounds it could
            not use) before it is preempted in favour of a waiter.
        horizon: virtual-time bound for :meth:`JobFabric.run` — bounded
            jobs drain long before this.
        max_events: kernel dispatch safety valve (livelock guard);
            ``None`` = unlimited.
    """

    slots: int = 4
    quantum: float = 0.5
    horizon: float = 1e9
    max_events: int | None = None

    def validate(self) -> None:
        """Raise :class:`FabricError` on out-of-range knob values."""
        if self.slots < 1:
            raise FabricError(f"fabric needs at least one slot, got {self.slots}")
        if self.quantum <= 0:
            raise FabricError(f"quantum must be positive, got {self.quantum}")
