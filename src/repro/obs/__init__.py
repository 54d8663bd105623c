"""Kernel-time observability: metric registry, latency markers, tracing,
profiling.

:class:`Observability` is the per-engine bundle wiring the four tentpole
pieces together:

* :class:`~repro.obs.registry.MetricRegistry` — hierarchical counters /
  gauges / reservoir histograms with a deterministic JSON snapshot;
* :class:`~repro.obs.latency.LatencyTracker` — Flink-style latency markers,
  per-operator and source→sink histograms;
* :class:`~repro.obs.trace.Tracer` — sampled record-level span trees that
  survive recovery with an epoch annotation;
* :class:`~repro.obs.profile.Profiler` — flame-style virtual-CPU
  aggregation fed by the kernel's cost model.

The existing ad-hoc metrics (``TaskMetrics``, ``RecoveryMetrics``, channel
counters, backpressure samples) are absorbed as *pull gauges*: the registry
holds closures over the live objects and evaluates them only at snapshot
time, so the hot path pays nothing for the uniform API.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.latency import LatencyTracker, operator_of
from repro.obs.profile import NULL_PROFILE_SCOPE, Profiler, ProfileScope
from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry, MetricScope
from repro.obs.trace import Span, TraceContext, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.channel import PhysicalChannel
    from repro.runtime.config import EngineConfig
    from repro.runtime.metrics import TaskMetrics
    from repro.sim.random import SimRandom

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricScope",
    "LatencyTracker",
    "Observability",
    "Profiler",
    "ProfileScope",
    "NULL_PROFILE_SCOPE",
    "Span",
    "TraceContext",
    "Tracer",
    "operator_of",
]

#: TaskMetrics fields absorbed into the registry as pull gauges
_TASK_METRIC_FIELDS = (
    "records_in",
    "records_out",
    "watermarks_in",
    "timers_fired",
    "busy_time",
    "blocked_time",
    "state_reads",
    "state_writes",
    "dropped",
    "failures",
)


class Observability:
    """Per-engine observability bundle (always present; features gate on
    config so the disabled path costs one ``is None`` test)."""

    def __init__(
        self,
        job: str,
        config: "EngineConfig",
        rng: "SimRandom",
        epoch_fn: Any = lambda: 0,
        registry: MetricRegistry | None = None,
    ) -> None:
        self.job = job
        self.registry = registry if registry is not None else MetricRegistry(job)
        # Reserve this job's path prefix. On a private registry the claim is
        # trivially free; on a fabric-shared registry it is the namespace
        # guard: a second tenant submitted under the same job name raises
        # MetricNamespaceError here instead of silently merging instruments.
        self.registry.claim(job, owner=f"obs-{id(self):x}")
        self.marker_period = config.latency_marker_period
        self.tracer = Tracer(config.trace_sample_rate, rng.fork("trace"), epoch_fn)
        self.profiler = Profiler(enabled=config.profiling_enabled)
        self.latency = LatencyTracker(self.registry, job)
        self._channel_labels: dict[str, int] = {}

    def _scope(self, operator: str, subtask: int = 0) -> MetricScope:
        """This job's ``job/operator/subtask`` scope (registry may be shared,
        so prefixes come from ``self.job``, not ``registry.job``)."""
        return self.registry.scoped(f"{self.job}/{operator}/{subtask}")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_task(self, task: Any) -> None:
        """Bind a task to the bundle and absorb its ``TaskMetrics``."""
        task.attach_obs(self)
        scope = self._scope(operator_of(task.name), task.subtask_index)
        metrics: "TaskMetrics" = task.metrics
        for field_name in _TASK_METRIC_FIELDS:
            scope.gauge(field_name, lambda m=metrics, f=field_name: getattr(m, f))
        # Chain members publish per-member throughput (duck-typed so a
        # reincarnated operator rebinds automatically).
        member_ops = getattr(task.operator, "operators", None)
        if member_ops is not None and hasattr(task.operator, "member_records_in"):
            for index, member in enumerate(member_ops):

                def member_count(t: Any = task, i: int = index) -> int:
                    counts = getattr(t.operator, "member_records_in", None)
                    if counts is None or i >= len(counts):
                        return 0
                    return counts[i]

                scope.gauge(f"chain{index}/{member.name}/records_in", member_count)

    def register_channel(self, channel: "PhysicalChannel") -> None:
        """Publish a physical link's counters as pull gauges."""
        label = f"{channel.sender.name}->{channel.receiver.name}"
        count = self._channel_labels.get(label, 0)
        self._channel_labels[label] = count + 1
        if count:
            label = f"{label}#{count}"
        prefix = f"{self.job}/channels/{label}"
        self.registry.gauge(f"{prefix}/sent", lambda c=channel: c.sent)
        self.registry.gauge(f"{prefix}/delivered", lambda c=channel: c.delivered)
        self.registry.gauge(f"{prefix}/backlog", lambda c=channel: c.backlog_size)

    def register_engine(self, engine: Any) -> None:
        """Engine- and job-level gauges (checkpoints, recovery rollup)."""
        job = self.job
        self.registry.gauge(
            f"{job}/engine/0/checkpoints_completed",
            lambda e=engine: len(e.coordinator.completed),
        )
        self.registry.gauge(
            f"{job}/engine/0/execution_epoch", lambda e=engine: e.execution_epoch
        )
        self.registry.gauge(
            f"{job}/engine/0/kernel_dispatched", lambda e=engine: e.kernel.dispatched_events
        )
        self.registry.gauge(
            f"{job}/engine/0/job_finished", lambda e=engine: int(e.job_finished)
        )
        # Incremental checkpoint internals (chain store present only when
        # ``checkpoints.incremental`` is on). The per-capture histograms
        # (delta_bytes, full_bytes, dirty_keys, persist_seconds) are recorded
        # by the checkpoint coordinator under the same ``job/checkpoint/0``
        # scope as captures happen.
        store = engine.coordinator.store
        if store is not None:
            prefix = f"{job}/checkpoint/0"
            self.registry.gauge(
                f"{prefix}/chain_length_max", lambda s=store: s.max_segment_length()
            )
            self.registry.gauge(f"{prefix}/rebases", lambda s=store: s.rebases)
            self.registry.gauge(f"{prefix}/links_pruned", lambda s=store: s.links_pruned)
        recovery = engine.metrics.recovery
        self.registry.gauge(
            f"{job}/recovery/0/incidents", lambda r=recovery: len(r.incidents)
        )
        self.registry.gauge(
            f"{job}/recovery/0/resolved",
            lambda r=recovery: len(r.resolved_incidents()),
        )
        self.registry.gauge(f"{job}/recovery/0/mean_mttr", recovery.mean_mttr)
        self.registry.gauge(
            f"{job}/recovery/0/cumulative_downtime", recovery.cumulative_downtime
        )
        self.registry.gauge(
            f"{job}/recovery/0/restarts_by_scope",
            lambda r=recovery: dict(sorted(r.restarts_by_scope.items())),
        )
