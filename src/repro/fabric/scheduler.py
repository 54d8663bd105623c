"""Deficit round-robin slot scheduling over kernel job namespaces.

The scheduler multiplexes N tenant jobs over S slots on one shared kernel.
A slot is not a thread — it is *permission to dispatch*: an admitted
tenant's events flow normally; a suspended tenant's events are parked by
the kernel as their timestamps arrive and replayed on resume. Scheduling
itself is event-driven: each admission arms one fabric-tagged slice-end
check, so scheduler overhead is O(preemptions), not O(events).

Fairness is deficit round-robin (DRR) over *virtual run time*: admission
credits a tenant ``quantum x weight`` seconds of deficit; the slice-end
check debits what the slice consumed and rotates the tenant to the back of
the wait queue when waiters exist. Weights therefore buy proportionally
longer slices, and a tenant preempted early (e.g. by a teardown-triggered
refill) carries its unused deficit into its next slice.

The no-contention fast path: once live tenants fit the slot pool no check
is ever armed again, so a fabric of K <= S jobs schedules with zero
suspensions and zero added events — identical dispatch to K solo kernels.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.errors import FabricError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine
    from repro.sim.kernel import Kernel

#: event namespace of the fabric's own machinery (slice checks, hub
#: emission); never suspended, never torn down
FABRIC_TAG = "__fabric__"


class Tenant:
    """One admitted job: identity, scheduling state, and accounting."""

    __slots__ = (
        "name",
        "engine",
        "weight",
        "runtime_quota",
        "state",
        "deficit",
        "admitted_at",
        "consumed",
        "slices",
        "check_event",
        "started",
        "teardown_seconds",
        "events_condemned",
    )

    def __init__(
        self,
        name: str,
        engine: "Engine",
        weight: float = 1.0,
        runtime_quota: float | None = None,
    ) -> None:
        self.name = name
        self.engine = engine
        self.weight = weight
        self.runtime_quota = runtime_quota
        #: waiting | running | done | failed
        self.state = "waiting"
        self.deficit = 0.0
        self.admitted_at = 0.0
        #: total virtual seconds this tenant has held a slot
        self.consumed = 0.0
        #: number of slices granted
        self.slices = 0
        #: the armed slice-end check, for Kernel.cancel
        self.check_event: list | None = None
        self.started = False
        #: wall-clock cost of the O(1) namespace teardown (measured)
        self.teardown_seconds = 0.0
        #: kernel events condemned by the teardown
        self.events_condemned = 0

    @property
    def tag(self) -> str:
        """The tenant's kernel event namespace."""
        return self.engine.job_tag

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def __repr__(self) -> str:
        return f"Tenant({self.name!r}, state={self.state}, consumed={self.consumed:.3f})"


class SlotScheduler:
    """Fair-share (DRR) multiplexer of tenants over a fixed slot pool."""

    def __init__(
        self,
        kernel: "Kernel",
        slots: int,
        quantum: float,
        on_quota_exceeded: Callable[[Tenant], None] | None = None,
    ) -> None:
        if slots < 1:
            raise FabricError(f"need at least one slot, got {slots}")
        self.kernel = kernel
        self.slots = slots
        self.quantum = quantum
        self._on_quota_exceeded = on_quota_exceeded
        self._waiting: deque[Tenant] = deque()
        self._running: list[Tenant] = []
        #: tenants not yet terminal: ``add`` counts one in, ``release`` out
        self._live = 0
        # deterministic accounting (safe for metric snapshots)
        self.admissions = 0
        self.preemptions = 0
        self.quota_evictions = 0

    # ------------------------------------------------------------------
    def add(self, tenant: Tenant) -> None:
        """Register a tenant; it runs when a slot frees up."""
        self._live += 1
        self._waiting.append(tenant)

    @property
    def live_tenants(self) -> int:
        return self._live

    @property
    def contended(self) -> bool:
        """True while more live tenants exist than slots."""
        return self.live_tenants > self.slots

    # ------------------------------------------------------------------
    def fill_slots(self) -> int:
        """Admit waiters into free slots; returns how many were admitted."""
        admitted = 0
        while len(self._running) < self.slots and self._waiting:
            tenant = self._waiting.popleft()
            if tenant.terminal:
                continue
            self._admit(tenant)
            admitted += 1
        return admitted

    def _admit(self, tenant: Tenant) -> None:
        tenant.deficit += self.quantum * tenant.weight
        tenant.admitted_at = self.kernel.now()
        tenant.state = "running"
        tenant.slices += 1
        self._running.append(tenant)
        self.admissions += 1
        if tenant.started:
            self.kernel.resume_job(tenant.tag)
        else:
            tenant.started = True
            # Engine.start() runs inside its own job scope (the engine is a
            # shared-kernel tenant), so the whole event tree is tagged.
            tenant.engine.start()
        if self.contended or tenant.runtime_quota is not None:
            # Arm the slice-end check in the fabric's namespace: scheduling
            # machinery must keep firing while the tenant is suspended.
            # Quota-capped tenants are always checked — the cap holds even
            # with free slots.
            self._arm_check(tenant)

    def _arm_check(self, tenant: Tenant) -> None:
        with self.kernel.job_scope(FABRIC_TAG):
            tenant.check_event = self.kernel.call_after(
                tenant.deficit, lambda t=tenant: self._slice_check(t)
            )

    def _slice_check(self, tenant: Tenant) -> None:
        tenant.check_event = None
        if tenant.state != "running":
            return
        consumed = self.kernel.now() - tenant.admitted_at
        tenant.consumed += consumed
        tenant.deficit = max(0.0, tenant.deficit - consumed)
        tenant.admitted_at = self.kernel.now()
        if (
            tenant.runtime_quota is not None
            and tenant.consumed >= tenant.runtime_quota
            and self._on_quota_exceeded is not None
        ):
            self.quota_evictions += 1
            self._on_quota_exceeded(tenant)
            return
        if not self.contended:
            # Everyone fits now: no preemption needed again. Keep checking
            # only while a runtime quota still has to be enforced.
            if tenant.runtime_quota is not None:
                tenant.deficit += self.quantum * tenant.weight
                tenant.slices += 1
                self._arm_check(tenant)
            return
        waiter = next((t for t in self._waiting if not t.terminal), None)
        if waiter is None:
            # Slots are the bottleneck but nobody is waiting right now;
            # grant another quantum and keep going.
            tenant.deficit += self.quantum * tenant.weight
            tenant.slices += 1
            self._arm_check(tenant)
            return
        # Rotate: park this tenant's events, hand the slot to the waiter.
        self.preemptions += 1
        self.kernel.suspend_job(tenant.tag)
        tenant.state = "waiting"
        self._running.remove(tenant)
        self._waiting.append(tenant)
        self.fill_slots()

    # ------------------------------------------------------------------
    def release(self, tenant: Tenant, failed: bool) -> None:
        """A tenant reached a terminal state: free its slot and refill."""
        if tenant.terminal:
            return
        if tenant.state == "running":
            tenant.consumed += self.kernel.now() - tenant.admitted_at
        tenant.state = "failed" if failed else "done"
        self._live -= 1
        if tenant.check_event is not None:
            self.kernel.cancel(tenant.check_event)
            tenant.check_event = None
        if tenant in self._running:
            self._running.remove(tenant)
        # Teardown: bump the namespace generation — O(1) in heap size.
        started = time.perf_counter()
        tenant.events_condemned = self.kernel.cancel_job(tenant.tag)
        tenant.teardown_seconds = time.perf_counter() - started
        self.fill_slots()

    def has_runnable_waiters(self) -> bool:
        """True if a non-terminal tenant is still waiting for a slot."""
        return any(not t.terminal for t in self._waiting)
