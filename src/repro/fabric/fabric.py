"""The multi-tenant job fabric: many jobs, one kernel, fixed slots.

``JobFabric`` is the platform layer the paper's "Cloud Apps" column calls
for: it admits N independent :class:`~repro.runtime.engine.Engine` jobs
onto ONE shared kernel and a fixed pool of slots, schedules them
fair-share (deficit round-robin over per-tenant run quanta, weighted), and
guarantees isolation:

* **events** — every tenant's event tree lives in its own kernel
  namespace; suspension parks exactly its events, teardown bulk-cancels
  them in O(1) regardless of heap size;
* **metrics** — one shared registry, per-tenant claimed prefixes; a
  duplicate job name fails admission instead of silently merging;
* **failure** — supervision, checkpoints, and recovery stay per-job: a
  crash-looping tenant burns its own run quanta, not its neighbours';
* **sources** — tenants reading the same stream subscribe to a
  :class:`~repro.fabric.hub.SharedSourceHub`, so the generator is walked
  once instead of N times.

Typical usage::

    fabric = JobFabric(FabricConfig(slots=4))
    for i in range(100):
        env = StreamExecutionEnvironment(name=f"job{i}")
        ... build pipeline ...
        fabric.submit(env, weight=1.0)
    result = fabric.run()
    result.tenant("job7").result.sink("out").results
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import FabricError
from repro.fabric.config import FabricConfig
from repro.fabric.hub import SharedSourceHub, TapWorkload
from repro.fabric.oracle import result_digests
from repro.fabric.query import FabricQueryService
from repro.fabric.scheduler import FABRIC_TAG, SlotScheduler, Tenant
from repro.obs.registry import MetricRegistry
from repro.runtime.engine import Engine, JobResult
from repro.runtime.task import SourceTask
from repro.sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.datastream import StreamExecutionEnvironment
    from repro.io.sources import Workload


class TenantHandle:
    """What :meth:`JobFabric.submit` returns: tenant identity + results."""

    def __init__(self, tenant: Tenant) -> None:
        self._tenant = tenant

    @property
    def name(self) -> str:
        return self._tenant.name

    @property
    def engine(self) -> Engine:
        return self._tenant.engine

    @property
    def state(self) -> str:
        """waiting | running | done | failed"""
        return self._tenant.state

    @property
    def result(self) -> JobResult:
        return JobResult(self._tenant.engine)

    @property
    def consumed(self) -> float:
        """Virtual seconds of slot time this tenant has used."""
        return self._tenant.consumed

    @property
    def slices(self) -> int:
        return self._tenant.slices

    @property
    def teardown_seconds(self) -> float:
        """Measured wall-clock cost of the namespace teardown."""
        return self._tenant.teardown_seconds

    @property
    def events_condemned(self) -> int:
        return self._tenant.events_condemned

    def digests(self) -> dict[str, str]:
        """Isolation-oracle digests of every sink (see fabric.oracle)."""
        return result_digests(self.result)

    def __repr__(self) -> str:
        return f"TenantHandle({self.name!r}, state={self.state})"


class FabricResult:
    """Outcome of :meth:`JobFabric.run`."""

    def __init__(self, fabric: "JobFabric") -> None:
        self._fabric = fabric

    def tenant(self, name: str) -> TenantHandle:
        """Look up one tenant's handle by name."""
        return self._fabric.tenant(name)

    @property
    def tenants(self) -> dict[str, TenantHandle]:
        return dict(self._fabric.tenants)

    @property
    def all_finished(self) -> bool:
        return all(h.state == "done" for h in self._fabric.tenants.values())

    def summary(self) -> dict[str, Any]:
        """Deterministic rollup (teardown timings excluded — wall clock)."""
        scheduler = self._fabric.scheduler
        states: dict[str, int] = {}
        for handle in self._fabric.tenants.values():
            states[handle.state] = states.get(handle.state, 0) + 1
        return {
            "tenants": len(self._fabric.tenants),
            "states": dict(sorted(states.items())),
            "admissions": scheduler.admissions,
            "preemptions": scheduler.preemptions,
            "quota_evictions": scheduler.quota_evictions,
            "kernel_dispatched": self._fabric.kernel.dispatched_events,
            "kernel_compactions": self._fabric.kernel.compactions,
            "duration": self._fabric.kernel.now(),
        }


class JobFabric:
    """Admits tenant jobs onto one shared kernel + slot pool and runs them."""

    def __init__(self, config: FabricConfig | None = None) -> None:
        self.config = config or FabricConfig()
        self.config.validate()
        self.kernel = Kernel(
            compact_threshold=self.config.compact_threshold,
            compact_min_dead=self.config.compact_min_dead,
        )
        #: one registry for every tenant; per-tenant prefixes are claimed at
        #: admission, so colliding job names fail fast
        self.registry = MetricRegistry("fabric")
        self.registry.claim(FABRIC_TAG, owner="fabric")
        self.scheduler = SlotScheduler(
            self.kernel,
            self.config.slots,
            self.config.quantum,
            on_quota_exceeded=self._evict_for_quota,
        )
        self.tenants: dict[str, TenantHandle] = {}
        self.hubs: list[SharedSourceHub] = []
        self.queries = FabricQueryService(self)
        self._ran = False
        scope = self.registry.scoped(f"{FABRIC_TAG}/scheduler/0")
        self._admissions_counter = scope.counter("admissions")
        self._preemptions_counter = scope.counter("preemptions")
        self._completions_counter = scope.counter("completions")
        self._failures_counter = scope.counter("failures")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def shared_source(self, name: str, workload: "Workload") -> SharedSourceHub:
        """Create a hub walking ``workload`` once for all its subscribers."""
        hub = SharedSourceHub(name, workload, self.kernel)
        self.hubs.append(hub)
        return hub

    def submit(
        self,
        env: "StreamExecutionEnvironment",
        *,
        name: str | None = None,
        weight: float = 1.0,
        runtime_quota: float | None = None,
    ) -> TenantHandle:
        """Admit one job. ``name`` defaults to the graph name and must be
        fabric-unique; ``weight`` scales the DRR quantum; ``runtime_quota``
        caps total slot time (virtual seconds) before the job is evicted.
        """
        if self._ran:
            raise FabricError("fabric already ran; submit before run()")
        if weight <= 0:
            raise FabricError(f"tenant weight must be positive, got {weight}")
        tenant_name = name if name is not None else env.graph.name
        if tenant_name in self.tenants:
            raise FabricError(f"duplicate tenant name {tenant_name!r}")
        engine = env.build(kernel=self.kernel, registry=self.registry)
        tenant = Tenant(tenant_name, engine, weight=weight, runtime_quota=runtime_quota)
        self._wire_taps(tenant)
        engine.on_finish_callbacks.append(
            lambda _engine, t=tenant: self._on_terminal(t)
        )
        self.scheduler.add(tenant)
        handle = TenantHandle(tenant)
        self.tenants[tenant_name] = handle
        return handle

    def _wire_taps(self, tenant: Tenant) -> None:
        """Subscribe the tenant's tap-fed sources to their hubs."""
        for task in tenant.engine.tasks.values():
            if not isinstance(task, SourceTask):
                continue
            workload = task.workload
            if not isinstance(workload, TapWorkload):
                continue
            if workload.hub not in self.hubs:
                raise FabricError(
                    f"tenant {tenant.name!r} taps hub {workload.hub.name!r} "
                    "which belongs to a different fabric"
                )
            if tenant.engine.config.checkpoints is not None:
                # A tap-fed source cannot rewind (the hub owns the offset),
                # so checkpoint replay would silently lose data. Refuse.
                raise FabricError(
                    f"tenant {tenant.name!r} combines a shared-source tap "
                    "with checkpointing; tap-fed jobs cannot rewind-replay"
                )
            # The pull loop must idle (the tap yields nothing and would
            # immediately finish the source); records arrive by injection.
            task.paused = True
            workload.hub.attach(tenant.engine.job_tag, task)
            tenant.taps.append((workload.hub, task))

    # ------------------------------------------------------------------
    # lifecycle callbacks
    # ------------------------------------------------------------------
    def _on_terminal(self, tenant: Tenant) -> None:
        failed = tenant.engine.job_failed
        self.scheduler.release(tenant, failed=failed)
        if failed:
            self._failures_counter.inc()
        else:
            self._completions_counter.inc()
        self._admissions_counter.value = self.scheduler.admissions
        self._preemptions_counter.value = self.scheduler.preemptions

    def _evict_for_quota(self, tenant: Tenant) -> None:
        # fail_job fires the finish callback, which releases the slot and
        # tears the namespace down.
        tenant.engine.fail_job(
            f"fabric: runtime quota exceeded ({tenant.consumed:.3f}s "
            f">= {tenant.runtime_quota}s)"
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self) -> FabricResult:
        """Start hubs, fill slots, and drive the shared kernel to drain."""
        if self._ran:
            raise FabricError("fabric already ran")
        self._ran = True
        for hub in self.hubs:
            hub.start()
        self.scheduler.fill_slots()
        # Rotation happens via fabric-tagged slice checks inside kernel.run;
        # the outer loop is a safety net: if the queue drains while tenants
        # still wait with parked events (e.g. every runnable job finished
        # mid-slice), refill and keep going. No admission => no progress
        # possible => stop.
        while True:
            self.kernel.run(until=self.config.horizon, max_events=self.config.max_events)
            if not self.scheduler.has_runnable_waiters():
                break
            if self.scheduler.fill_slots() == 0:
                break
        self._admissions_counter.value = self.scheduler.admissions
        self._preemptions_counter.value = self.scheduler.preemptions
        return FabricResult(self)

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantHandle:
        """Look up one tenant's handle by name (raises on unknown)."""
        handle = self.tenants.get(name)
        if handle is None:
            raise FabricError(f"unknown tenant {name!r}")
        return handle

    def teardown_costs(self) -> dict[str, float]:
        """Measured wall-clock teardown cost per terminal tenant."""
        return {
            name: handle.teardown_seconds
            for name, handle in sorted(self.tenants.items())
            if handle.state in ("done", "failed")
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        """Shared-registry snapshot (deterministic)."""
        return self.registry.snapshot(self.kernel.now())

    def __repr__(self) -> str:
        return (
            f"JobFabric(tenants={len(self.tenants)}, slots={self.config.slots}, "
            f"now={self.kernel.now():.3f})"
        )


def submit_many(
    fabric: JobFabric,
    envs: Iterable["StreamExecutionEnvironment"],
    **kwargs: Any,
) -> list[TenantHandle]:
    """Admit a batch of environments with shared submit options."""
    return [fabric.submit(env, **kwargs) for env in envs]
