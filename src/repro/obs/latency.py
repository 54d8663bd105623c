"""Flink-style latency markers: in-band probes measuring end-to-end delay.

Sources emit a :class:`~repro.core.events.LatencyMarker` every
``latency_marker_period`` kernel seconds. Markers travel *in band*: they go
through the same output buffers, credit accounting, and channel FIFOs as
records, so they are never reordered past data and they absorb every stall
a record would — alignment blocking, backpressure parking, batching delay.
Tasks intercept markers before the operator (windows and state never see
them), record ``now - emitted_at`` into a per-operator histogram, and
forward them downstream; a terminal task (no output gates) also records the
source→sink histogram. Markers are broadcast at fan-out like other control
elements, so every parallel path is measured.

All latencies are kernel-time floats, making the histograms — and therefore
metric snapshots — byte-identical across same-seed runs.
"""

from __future__ import annotations

from repro.obs.registry import Counter, Histogram, MetricRegistry


def operator_of(task_name: str) -> str:
    """Logical operator name of a subtask (``"map[1]"`` → ``"map"``)."""
    return task_name.rsplit("[", 1)[0]


class LatencyTracker:
    """Publishes marker histograms into the job's metric registry.

    The job prefix is explicit (not taken from the registry) so the
    registry can be shared across fabric tenants.
    """

    def __init__(self, registry: MetricRegistry, job: str | None = None) -> None:
        self.registry = registry
        self.job = job if job is not None else registry.job
        #: (source operator, sink operator) → source→sink histogram
        self._e2e: dict[tuple[str, str], Histogram] = {}

    def _scope(self, task_name: str, subtask: int):
        return self.registry.scoped(f"{self.job}/{operator_of(task_name)}/{subtask}")

    # ------------------------------------------------------------------
    def emitted_counter(self, task_name: str, subtask: int) -> Counter:
        """A source's ``latency_markers_emitted`` counter (drives the period
        property test); the source binds it on its first marker."""
        return self._scope(task_name, subtask).counter("latency_markers_emitted")

    def operator_histogram(self, task_name: str, subtask: int) -> Histogram:
        """A task's per-operator ``latency_from_source`` histogram; the task
        binds it on its first marker and records every later one into it."""
        return self._scope(task_name, subtask).histogram("latency_from_source")

    def record_e2e(self, source_id: str, sink_task: str, latency: float) -> None:
        """A terminal task (a sink) received a marker: record the
        source→sink latency."""
        key = (operator_of(source_id), operator_of(sink_task))
        histogram = self._e2e.get(key)
        if histogram is None:
            histogram = self.registry.histogram(f"{self.job}/e2e/{key[0]}->{key[1]}/latency")
            self._e2e[key] = histogram
        histogram.record(latency)

    # ------------------------------------------------------------------
    def e2e_histograms(self) -> dict[str, Histogram]:
        """Source→sink histograms keyed ``"source->sink"`` (benchmarks)."""
        return {f"{src}->{dst}": hist for (src, dst), hist in sorted(self._e2e.items())}

    def __repr__(self) -> str:
        return f"LatencyTracker(e2e_paths={len(self._e2e)})"
