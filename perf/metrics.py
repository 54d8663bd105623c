"""The benchmark's metric catalogue: name, unit, direction, clock, bound.

``BENCHMARK.json`` lists the same names (``perf/tests`` keeps the two in
step). Every host-time metric is calibration-normalised (see
``perf/calibrate.py``); every virtual-time metric and every count repeats
exactly for a fixed seed.
"""

from __future__ import annotations

from perf.trace import LAYER_NAMES

#: end to end: measured untraced, on every workload, never zero.
#: (name, unit, better, clock, regression bound as a share of the parent's median)
END_TO_END: tuple[tuple[str, str, str, str, float], ...] = (
    ("setup_s", "s", "lower", "host", 0.25),
    ("norm_records_per_s", "1/s", "higher", "host", 0.15),
    ("kernel_events_per_record", "1/record", "lower", "count", 0.01),
    ("virt_latency_p50_ms", "ms", "lower", "virtual", 0.05),
    ("virt_latency_p95_ms", "ms", "lower", "virtual", 0.10),
    ("peak_rss_mb", "MB", "lower", "host", 0.05),
)

_LOWER, _HIGHER = "lower", "higher"

#: per layer: (name, unit, better, clock). From the traced run …
_TRACED = tuple(
    metric
    for layer in LAYER_NAMES
    for metric in (
        # user code and operators are the useful work; every other layer's
        # share of host time is framework tax
        (f"{layer}.self_share", "share", _HIGHER if layer in ("udf", "operators") else _LOWER, "host"),
        (f"{layer}.calls_per_record", "1/record", _LOWER, "count"),
        (f"{layer}.norm_self_us_per_record", "us", _LOWER, "host"),
    )
) + (
    ("trace.total_calls_per_record", "1/record", _LOWER, "count"),
    ("trace.overhead_ratio", "ratio", _LOWER, "host"),
)

#: … from public counters after an untraced run …
_COUNTERS = (
    ("sim.events_per_task_input", "ratio", _LOWER, "count"),
    ("sim.norm_us_per_event", "us", _LOWER, "host"),
    ("sim.compactions", "count", _LOWER, "count"),
    ("runtime.channel.sent_per_record", "1/record", _LOWER, "count"),
    ("runtime.task.inputs_per_record", "1/record", _LOWER, "count"),
    ("runtime.task.count", "count", _LOWER, "count"),
    ("runtime.task.busy_share_max", "share", _LOWER, "virtual"),
    ("runtime.task.blocked_share_max", "share", _LOWER, "virtual"),
    ("runtime.task.virt_sustainable_rate", "1/s", _HIGHER, "virtual"),
    ("state.reads_per_record", "1/record", _LOWER, "count"),
    ("state.writes_per_record", "1/record", _LOWER, "count"),
    ("checkpoint.completed", "count", _HIGHER, "count"),
    ("checkpoint.bytes_total", "B", _LOWER, "count"),
    ("checkpoint.bytes_per_checkpoint", "B", _LOWER, "count"),
    ("checkpoint.persist_virt_ms_p50", "ms", _LOWER, "virtual"),
    ("checkpoint.restore_bytes", "B", _LOWER, "count"),
    ("checkpoint.records_replayed", "count", _LOWER, "count"),
    ("checkpoint.recovery_virt_ms", "ms", _LOWER, "virtual"),
    ("obs.markers_emitted", "count", _HIGHER, "count"),
    ("obs.metrics_registered", "count", _LOWER, "count"),
    ("txn.commits", "count", _HIGHER, "count"),
    ("txn.aborts", "count", _LOWER, "count"),
    ("txn.retries", "count", _LOWER, "count"),
    ("txn.lock_wait_virt_ms_p99", "ms", _LOWER, "virtual"),
    ("fabric.admissions", "count", _LOWER, "count"),
    ("fabric.preemptions", "count", _LOWER, "count"),
    ("fabric.quota_evictions", "count", _HIGHER, "count"),
    ("fabric.norm_teardown_us_p50", "us", _LOWER, "host"),
    ("io.sink_records", "count", _HIGHER, "count"),
    ("io.virt_drain_ms", "ms", _LOWER, "virtual"),
    # genuinely per-query cells: record latency where results carry their
    # source record, event-time lag for window/CEP results
    ("io.virt_latency_p99_ms.q1", "ms", _LOWER, "virtual"),
    ("io.virt_latency_p99_ms.q4", "ms", _LOWER, "virtual"),
    ("io.virt_latency_p99_ms.q5", "ms", _LOWER, "virtual"),
    ("io.virt_latency_p99_ms.running", "ms", _LOWER, "virtual"),
    ("io.virt_latency_p99_ms.out", "ms", _LOWER, "virtual"),
    ("io.virt_event_lag_p99_ms.q2", "ms", _LOWER, "virtual"),
    ("io.virt_event_lag_p99_ms.q3", "ms", _LOWER, "virtual"),
    ("io.virt_event_lag_p99_ms.win", "ms", _LOWER, "virtual"),
)

#: … and from the isolated probes.
_PROBES = tuple(
    (name, "us", _LOWER, "host")
    for name in (
        "sim.probe.heap_us_per_event",
        "sim.probe.soon_us_per_event",
        "sim.probe.tagged_us_per_event",
        "sim.probe.cancel_job_us",
        "state.probe.put_us",
        "state.probe.get_us",
        "state.probe.snapshot_us_per_entry",
        "state.probe.restore_us_per_entry",
        "checkpoint.probe.delta_us_per_dirty_entry",
        "checkpoint.probe.restore_chain_us_per_entry",
        "obs.probe.histogram_record_us",
        "obs.probe.snapshot_us_per_metric",
        "core.probe.batch_roundtrip_us_per_row",
    )
)

PER_LAYER: tuple[tuple[str, str, str, str], ...] = _TRACED + _COUNTERS + _PROBES

UNITS = {spec[0]: spec[1] for spec in END_TO_END + PER_LAYER}
CLOCKS = {spec[0]: spec[3] for spec in END_TO_END + PER_LAYER}


def as_result_metrics(values: dict[str, float], names: tuple) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly ``names``; a per-layer metric
    that does not exist on a workload reads 0."""
    unknown = set(values) - {spec[0] for spec in names}
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        spec[0]: {"value": values.get(spec[0], 0.0), "unit": spec[1]} for spec in names
    }
