"""Fabric-wide queryable state and metrics, addressed by tenant.

Millions of end users querying live state means the query plane must be
tenant-aware: one façade routes each query to the owning tenant's engine
(a per-tenant :class:`~repro.queryable.server.QueryableStateService`,
created lazily), and metric lookups are answered from the shared registry
*filtered to the tenant's claimed prefix* — one tenant can never read
another's instruments through this surface.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.queryable.server import QueryableStateService, QueryResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.fabric import JobFabric
    from repro.state.api import StateDescriptor


class FabricQueryService:
    """Tenant-routed query façade over a whole fabric."""

    def __init__(self, fabric: "JobFabric", query_latency: float = 1e-3) -> None:
        self.fabric = fabric
        self.query_latency = query_latency
        self._services: dict[str, QueryableStateService] = {}

    # ------------------------------------------------------------------
    def _service(self, tenant: str) -> QueryableStateService:
        service = self._services.get(tenant)
        if service is None:
            handle = self.fabric.tenant(tenant)
            service = QueryableStateService(handle.engine, self.query_latency)
            self._services[tenant] = service
        return service

    def query(
        self,
        tenant: str,
        node_name: str,
        descriptor: "StateDescriptor",
        key: Any,
        consistency: str = "snapshot",
        callback: Callable[[QueryResult], None] | None = None,
    ) -> QueryResult | None:
        """Point query against one tenant's live keyed state."""
        return self._service(tenant).query(
            node_name, descriptor, key, consistency=consistency, callback=callback
        )

    # ------------------------------------------------------------------
    def query_metrics(self, tenant: str, fragment: str = "") -> dict[str, Any]:
        """Metric snapshot filtered to the tenant's namespace.

        The shared registry holds every tenant's instruments; the tenant
        prefix is applied *before* the caller's fragment filter, so the
        result can only contain paths under ``<tenant job tag>/``.
        """
        handle = self.fabric.tenant(tenant)
        prefix = f"{handle.engine.job_tag}/"
        found = self.fabric.registry.find(fragment)
        return {path: value for path, value in found.items() if path.startswith(prefix)}
