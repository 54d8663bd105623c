"""Queryable state: external point queries against live pipeline state (§4.2).

Internal state "currently a black box to the user, is becoming the main
point of interest". The service answers point queries against any task's
keyed state with two consistency modes:

* ``snapshot`` — the value is serde-copied at query time (Flink
  point-query / S-Store external access isolation): readers never observe
  later mutations;
* ``direct`` — the live object is returned by reference, which is faster
  but exposes torn reads when the pipeline mutates structures in place
  (experiment E16 demonstrates the anomaly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.keys import subtask_for_key
from repro.errors import QueryableStateError
from repro.runtime.engine import Engine
from repro.state.api import StateDescriptor


_ALL_KEYS = object()


@dataclass
class QueryResult:
    key: Any
    value: Any
    asked_at: float
    answered_at: float
    consistency: str

    @property
    def latency(self) -> float:
        return self.answered_at - self.asked_at


class QueryableStateService:
    """Query façade over a running engine."""

    def __init__(self, engine: Engine, query_latency: float = 1e-3) -> None:
        self.engine = engine
        self.query_latency = query_latency
        self.queries_served = 0

    # ------------------------------------------------------------------
    def _locate(self, node_name: str, descriptor: StateDescriptor, key: Any):
        tasks = self.engine.plan.subtasks(node_name)
        index = subtask_for_key(key, len(tasks))
        return tasks[index]

    def query(
        self,
        node_name: str,
        descriptor: StateDescriptor,
        key: Any,
        consistency: str = "snapshot",
        callback: Callable[[QueryResult], None] | None = None,
    ) -> QueryResult | None:
        """Asynchronous query: the answer materializes ``query_latency``
        later on the engine's clock. With no callback, resolves immediately
        (zero-latency debugging read) and returns the result."""
        if consistency not in ("snapshot", "direct"):
            raise QueryableStateError(f"unknown consistency {consistency!r}")
        asked_at = self.engine.kernel.now()

        def answer() -> QueryResult:
            task = self._locate(node_name, descriptor, key)
            if task.dead:
                raise QueryableStateError(f"task {task.name} is down")
            value = task.state_backend.get(descriptor, key)
            if consistency == "snapshot" and value is not None:
                value = descriptor.serde.copy(value)
            self.queries_served += 1
            return QueryResult(
                key=key,
                value=value,
                asked_at=asked_at,
                answered_at=self.engine.kernel.now(),
                consistency=consistency,
            )

        if callback is None:
            return answer()
        # Resolve inside the engine's event namespace: on a fabric-shared
        # kernel a tenant's query replies belong to that tenant, so tearing
        # it down cancels its in-flight answers too.
        with self.engine._job_scope():
            self.engine.kernel.call_after(self.query_latency, lambda: callback(answer()))
        return None

    # ------------------------------------------------------------------
    def query_txn(self, store_name: str, key: Any = _ALL_KEYS, default: Any = None) -> Any:
        """Point query against a shared transactional store.

        Serves the *committed* view: a transaction's own writes become
        visible the instant its commit completes (read-your-writes across
        the external interface), while uncommitted writes are never
        observable — the undo overlay is applied, so an in-flight txn can't
        leak torn state the way ``direct`` keyed-state reads can. With no
        ``key`` the merged committed table is returned."""
        store = self.engine.txn_stores.get(store_name)
        if store is None:
            raise QueryableStateError(f"unknown transactional store {store_name!r}")
        self.queries_served += 1
        if key is _ALL_KEYS:
            return store.committed_items()
        return store.committed_get(key, default)

    # ------------------------------------------------------------------
    def query_metrics(self, fragment: str | None = None) -> dict[str, Any]:
        """Point-in-time metric snapshot served through the same external
        façade as state queries — metrics are queryable like state (§4.2).
        ``fragment`` filters metric paths by substring."""
        snapshot = self.engine.metrics_snapshot()
        if fragment is not None:
            snapshot["metrics"] = {
                path: value
                for path, value in snapshot["metrics"].items()
                if fragment in path
            }
        self.queries_served += 1
        return snapshot
