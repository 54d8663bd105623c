"""Engine configuration.

One dataclass gathers every knob the experiments sweep: cost model, network
model, flow control, checkpointing, and processing guarantees. The
generation profiles (:mod:`repro.generations`) are thin factories over this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core.graph import ChannelSpec
from repro.core.keys import DEFAULT_MAX_PARALLELISM
from repro.errors import GraphError
from repro.state.api import KeyedStateBackend
from repro.state.memory import InMemoryStateBackend


class CheckpointMode(enum.Enum):
    """How barriers interact with channels (survey §3.1/§3.2)."""

    ALIGNED = "aligned"  # exactly-once state: block channels until aligned
    UNALIGNED = "unaligned"  # at-least-once state: never block


class GuaranteeLevel(enum.Enum):
    """End-to-end processing guarantee the job is configured for."""

    AT_MOST_ONCE = "at-most-once"  # no replay: lose in-flight work on failure
    AT_LEAST_ONCE = "at-least-once"  # replay from snapshot, duplicates possible
    EXACTLY_ONCE = "exactly-once"  # aligned snapshots + transactional sinks


@dataclass
class CheckpointConfig:
    interval: float = 1.0
    mode: CheckpointMode = CheckpointMode.ALIGNED
    #: virtual seconds to persist one byte of snapshot to durable storage
    write_cost_per_byte: float = 2e-9
    #: fixed round-trip to durable storage per snapshot
    write_base_cost: float = 5e-3
    #: incremental: wrap every task backend in an
    #: :class:`~repro.checkpoint.incremental.IncrementalSnapshotter` so each
    #: barrier captures only the entries changed since the previous capture;
    #: the engine keeps per-task base+delta chains and recovery replays them
    incremental: bool = False
    #: incremental mode: delta links allowed per chain segment before the
    #: next capture rebases (takes a full snapshot), bounding recovery replay
    max_chain_length: int = 8
    #: incremental mode: completed checkpoints kept restorable; older chain
    #: links are compacted away once a newer base covers the retained set
    retained_checkpoints: int = 2
    #: virtual seconds charged *on the processing path* per entry captured at
    #: a barrier (dirty entries for a delta, all entries for a full snapshot);
    #: 0.0 keeps capture free, isolating the persist-cost term
    capture_cost_per_entry: float = 0.0
    #: abort an in-flight checkpoint that hasn't completed within this many
    #: virtual seconds (None = wait forever). Without a timeout, a lost
    #: barrier wedges the coordinator: the pending checkpoint never
    #: completes, so no further checkpoint is ever triggered.
    timeout: float | None = None


@dataclass
class EngineConfig:
    seed: int = 0
    #: default virtual CPU seconds per element for operators that don't set one
    default_processing_cost: float = 2e-5
    #: cost charged per fired timer
    timer_cost: float = 5e-6
    #: credit-based flow control: per-channel credit capacity applied when an
    #: edge doesn't set one (None = unbounded channels, no backpressure)
    default_channel_capacity: int | None = None
    max_parallelism: int = DEFAULT_MAX_PARALLELISM
    state_backend_factory: Callable[[], KeyedStateBackend] = InMemoryStateBackend
    checkpoints: CheckpointConfig | None = None
    guarantee: GuaranteeLevel = GuaranteeLevel.AT_LEAST_ONCE
    # --- physical optimisations (fast-path dispatch) ----------------------
    #: fuse adjacent forward-partitioned, same-parallelism logical nodes into
    #: one task (Flink-style operator chaining); records cross fused edges as
    #: plain Python calls with no channel at all
    chaining_enabled: bool = False
    # --- columnar execution ------------------------------------------------
    #: when set, sources emit :class:`~repro.core.events.RecordBatch`
    #: columnar batches of up to this many records instead of per-record
    #: elements (None = per-record); batches are the unit of transport (one
    #: channel element, one credit, one dispatch) and of compute (vectorized
    #: operators; scalar fallback for everything else), and close early at
    #: watermarks, markers, barriers, and end of input. Outputs are
    #: byte-identical to the per-record path on the same seed.
    columnar_batch_size: int | None = None
    # --- observability (repro.obs) ----------------------------------------
    #: kernel-time period at which sources emit in-band latency markers
    #: (None = markers off); markers yield per-operator and source→sink
    #: latency histograms in the metric registry
    latency_marker_period: float | None = None
    #: fraction of source records stamped with a TraceContext (0.0 = tracing
    #: off); sampled deterministically from the engine seed
    trace_sample_rate: float = 0.0
    #: attribute the cost model's virtual CPU to flame paths per operator
    profiling_enabled: bool = False

    def __post_init__(self) -> None:
        for name in ("default_channel_capacity", "columnar_batch_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 or None, got {value!r}")

    def channel_for(self, spec: ChannelSpec | None) -> ChannelSpec:
        """Resolve an edge's channel spec against the flow-control default."""
        base = spec or ChannelSpec()
        capacity = base.capacity
        if capacity is None:
            capacity = self.default_channel_capacity
        elif capacity < 1:
            raise GraphError(f"channel capacity must be >= 1, got {capacity!r}")
        return ChannelSpec(latency=base.latency, jitter=base.jitter, capacity=capacity)
