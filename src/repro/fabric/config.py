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
        compact_threshold: kernel lazy-compaction trigger — rebuild the
            event heap when dead events exceed this fraction of it.
        compact_min_dead: absolute dead-event floor below which the heap
            is never compacted (avoids thrashing on small queues).
    """

    slots: int = 4
    quantum: float = 0.5
    horizon: float = 1e9
    max_events: int | None = None
    compact_threshold: float = 0.5
    compact_min_dead: int = 256

    def validate(self) -> None:
        """Raise :class:`FabricError` on out-of-range knob values."""
        if self.slots < 1:
            raise FabricError(f"fabric needs at least one slot, got {self.slots}")
        if self.quantum <= 0:
            raise FabricError(f"quantum must be positive, got {self.quantum}")
        if not 0.0 < self.compact_threshold <= 1.0:
            raise FabricError(
                f"compact_threshold must be in (0, 1], got {self.compact_threshold}"
            )
