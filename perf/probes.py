"""Isolated layer probes: direct calls into one layer's public functions.

Each probe times a fixed number of operations on one layer with nothing
else running, between two calibration runs, and reports
calibration-normalised microseconds per operation. They answer "did this
layer's primitive get cheaper" without a whole job around it; whether that
matters end to end is what the workloads are for.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Callable

from repro.checkpoint import IncrementalSnapshotter, restore_chain
from repro.core import Record, RecordBatch
from repro.obs.registry import MetricRegistry
from repro.sim import Kernel
from repro.state import InMemoryStateBackend, ValueStateDescriptor

from perf.calibrate import calibrate, host_factor

_DESC = ValueStateDescriptor("acc")
_PAYLOAD = "x" * 32
#: calibration loops before and after the probes (≈0.2 s each side)
_CAL_LOOPS = 25


def _noop() -> None:
    return None


def _timed(fn: Callable[[], Any]) -> float:
    gc.collect()
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _best(make: Callable[[], Callable[[], Any]], rounds: int = 3) -> float:
    """Fastest of ``rounds`` timed calls, each on fresh state from ``make``."""
    return min(_timed(make()) for _ in range(rounds))


# --- sim ---------------------------------------------------------------
def _heap_events(n: int, tag: str | None = None) -> Callable[[], Callable[[], Any]]:
    def make() -> Callable[[], Any]:
        kernel = Kernel()

        def body() -> None:
            for i in range(n):
                kernel.call_at((i * 7919 % 1009) * 1e-3, _noop)
            kernel.run()

        if tag is None:
            return body

        def tagged() -> None:
            with kernel.job_scope(tag):
                body()

        return tagged

    return make


def _soon_events(n: int) -> Callable[[], Callable[[], Any]]:
    def make() -> Callable[[], Any]:
        kernel = Kernel(same_time_bucket=True)
        remaining = [n]

        def step() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                kernel.call_soon(step)

        def body() -> None:
            kernel.call_soon(step)
            kernel.run()

        return body

    return make


def _cancel_job() -> Callable[[], Callable[[], Any]]:
    def make() -> Callable[[], Any]:
        kernel = Kernel(compact_min_dead=1 << 30)
        for job in range(20):
            with kernel.job_scope(f"job{job}"):
                for i in range(500):
                    kernel.call_at(1.0 + i, _noop)
        return lambda: kernel.cancel_job("job10")

    return make


# --- state / checkpoint ------------------------------------------------
def _populated(n: int, snapshotter: bool = False) -> Any:
    backend: Any = InMemoryStateBackend()
    if snapshotter:
        backend = IncrementalSnapshotter(backend)
    backend.register(_DESC)
    for key in range(n):
        backend.put(_DESC, key, (key, _PAYLOAD))
    return backend


def _state_probes(n: int) -> dict[str, float]:
    def make_put() -> Callable[[], Any]:
        backend = InMemoryStateBackend()
        backend.register(_DESC)

        def body() -> None:
            for key in range(n):
                backend.put(_DESC, key, (key, _PAYLOAD))

        return body

    def make_get() -> Callable[[], Any]:
        backend = _populated(n)

        def body() -> None:
            for key in range(n):
                backend.get(_DESC, key)

        return body

    snapshot = _populated(n).snapshot()

    def make_restore() -> Callable[[], Any]:
        backend = InMemoryStateBackend()
        backend.register(_DESC)
        return lambda: backend.restore(snapshot)

    return {
        "state.probe.put_us": _best(make_put) / n,
        "state.probe.get_us": _best(make_get) / n,
        "state.probe.snapshot_us_per_entry": _best(lambda: _populated(n).snapshot) / n,
        "state.probe.restore_us_per_entry": _best(make_restore) / n,
    }


def _checkpoint_probes(n: int, churn: float = 0.10, links: int = 4) -> dict[str, float]:
    dirty = int(n * churn)

    def touch(snapshotter: Any, version: int) -> None:
        for key in range(dirty):
            snapshotter.put(_DESC, key, (key, _PAYLOAD, version))

    def make_delta() -> Callable[[], Any]:
        snapshotter = _populated(n, snapshotter=True)
        snapshotter.full_snapshot()
        touch(snapshotter, 1)
        return snapshotter.delta_snapshot

    snapshotter = _populated(n, snapshotter=True)
    chain = [snapshotter.full_snapshot()]
    for version in range(1, links + 1):
        touch(snapshotter, version)
        chain.append(snapshotter.delta_snapshot())
    entries = sum(link.entry_count() for link in chain)

    def make_restore() -> Callable[[], Any]:
        target = InMemoryStateBackend()
        target.register(_DESC)
        return lambda: restore_chain(target, chain)

    return {
        "checkpoint.probe.delta_us_per_dirty_entry": _best(make_delta) / dirty,
        "checkpoint.probe.restore_chain_us_per_entry": _best(make_restore) / entries,
    }


# --- obs / core --------------------------------------------------------
def _obs_probes(n: int, metrics: int = 2000) -> dict[str, float]:
    def make_record() -> Callable[[], Any]:
        histogram = MetricRegistry("probe").histogram("probe/0/latency")

        def body() -> None:
            for i in range(n):
                histogram.record(i * 1e-6)

        return body

    def make_snapshot() -> Callable[[], Any]:
        registry = MetricRegistry("probe")
        for i in range(metrics):
            registry.counter(f"probe/{i}/count").inc(i)
        return lambda: registry.snapshot(0.0)

    return {
        "obs.probe.histogram_record_us": _best(make_record) / n,
        "obs.probe.snapshot_us_per_metric": _best(make_snapshot) / metrics,
    }


def _core_probes(batches: int, rows: int = 64) -> dict[str, float]:
    records = [Record(value=i, event_time=i * 1e-3, ingest_time=i * 1e-3) for i in range(rows)]
    mask = [i % 2 == 0 for i in range(rows)]

    def make() -> Callable[[], Any]:
        def body() -> None:
            for _ in range(batches):
                for _record in RecordBatch.from_records(records).select_mask(mask).records():
                    pass

        return body

    return {"core.probe.batch_roundtrip_us_per_row": _best(make) / (batches * rows)}


def run_probes(scale: float = 1.0) -> dict[str, Any]:
    """Every probe metric in calibration-normalised µs per operation, plus
    the host score the normalisation used."""
    n = max(1000, int(40_000 * scale))
    before = calibrate(_CAL_LOOPS)
    raw = {
        "sim.probe.heap_us_per_event": _best(_heap_events(n)) / n,
        "sim.probe.soon_us_per_event": _best(_soon_events(n)) / n,
        "sim.probe.tagged_us_per_event": _best(_heap_events(n, tag="tenant")) / n,
        "sim.probe.cancel_job_us": _best(_cancel_job(), rounds=7),
        **_state_probes(n),
        **_checkpoint_probes(n),
        **_obs_probes(n),
        **_core_probes(max(20, n // 64)),
    }
    factor = host_factor(statistics.mean((before, calibrate(_CAL_LOOPS))))
    return {
        "metrics": {name: seconds * 1e6 / factor for name, seconds in raw.items()},
        "host_score": 1.0 / factor,
    }
