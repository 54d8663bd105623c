"""Multi-tenant job fabric: thousands of jobs on one kernel.

Public surface:

* :class:`JobFabric` / :class:`FabricConfig` — admit N engines onto one
  shared kernel + slot pool; fair-share DRR scheduling, per-tenant quotas.
* :class:`FabricQueryService` — tenant-routed queryable state + metrics.
* :func:`sink_digest` — the isolation oracle's output digest.
"""

from repro.fabric.config import FabricConfig
from repro.fabric.fabric import FabricResult, JobFabric, TenantHandle
from repro.fabric.oracle import result_digests, sink_digest
from repro.fabric.query import FabricQueryService
from repro.fabric.scheduler import FABRIC_TAG, SlotScheduler, Tenant

__all__ = [
    "FABRIC_TAG",
    "FabricConfig",
    "FabricQueryService",
    "FabricResult",
    "JobFabric",
    "SlotScheduler",
    "Tenant",
    "TenantHandle",
    "result_digests",
    "sink_digest",
]
