"""Whole-pipeline columnar execution: wall-clock throughput.

The tentpole headline for the columnar transport: the same windowed
aggregation pipeline (sensor source -> vectorized filter -> key_by ->
tumbling event-time count -> sink) run three ways —

* ``seed``      — the unoptimised dispatch path (per-element heap events);
* ``fastpath``  — PR-1's chaining + same-time bucket + batched delivery,
  still one Python-level dispatch per record;
* ``columnar``  — record-batches as the unit of transport *and* compute:
  the source emits :class:`~repro.core.events.RecordBatch`, operators run
  vectorized, the window operator folds whole per-(key, window) groups.

Every configuration must produce byte-identical results (the columnar
path is an optimisation, not a semantics change); the speedup assertions
pin the claim that amortising per-record overhead across batches is worth
close to an order of magnitude on this workload. Rows land in
``BENCH_throughput.json`` next to the fast-path section.
"""

import os
import time

from conftest import best_of, fmt, merge_bench_json, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import EngineConfig
from repro.windows.assigners import TumblingEventTimeWindows

EVENTS = 12000
WINDOW = 0.05
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_throughput.json")

#: the columnar-vs-seed gate: 0.7 of the measured ratio (9.0-9.9x in six runs
#: in the dev container), so a regression of about 30 % in the columnar path
#: fails. The denominator is the per-record dispatch path: a change that makes
#: that path cheaper lowers the ratio without columnar losing anything (10x
#: of a measured 14x before the kernel/run-loop cut) — re-derive the gate from
#: a fresh measurement then, keeping the 0.7.
MIN_COLUMNAR_SPEEDUP = 6.5

CONFIGS = {
    "seed": dict(chaining_enabled=False, channel_batch_size=1, same_time_bucket=False),
    "fastpath": dict(chaining_enabled=True, channel_batch_size=16, same_time_bucket=True),
    "columnar": dict(
        chaining_enabled=True,
        channel_batch_size=16,
        same_time_bucket=True,
        columnar_enabled=True,
        columnar_batch_size=256,
    ),
}


def run_pipeline(flags):
    """Windowed aggregation: filter -> key_by -> tumbling count -> sink."""
    import numpy as np

    env = StreamExecutionEnvironment(EngineConfig(seed=31, **flags), name="columnar")
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=EVENTS, rate=20000.0, key_count=16, seed=31),
            watermarks=BoundedOutOfOrderness(0.01),
        )
        .filter(
            lambda v: v["reading"] > -40.0,
            name="plausible",
            batch_predicate=lambda vs: np.asarray([v["reading"] for v in vs]) > -40.0,
        )
        .key_by(field_selector("key"), name="by-sensor")
        .window(TumblingEventTimeWindows(WINDOW))
        .count(name="per-sensor-count")
        .sink(sink, parallelism=1)
    )
    engine = env.build()
    started = time.perf_counter()
    env.execute()
    elapsed = time.perf_counter() - started
    return {
        "tasks": len(engine.tasks),
        "dispatched_events": engine.kernel.dispatched_events,
        "results": [(r.value, r.event_time, r.key, r.sign) for r in sink.results],
        "wall_seconds": elapsed,
        "records_per_sec": EVENTS / elapsed,
    }


#: best-of-N rounds per configuration. The columnar run is ~10x shorter
#: than the others, so a single scheduler hiccup costs it proportionally
#: more; extra rounds are cheap there and keep the speedup ratio out of
#: the noise.
ROUNDS = {"seed": 2, "fastpath": 2, "columnar": 5}


def run_all():
    return {
        name: best_of(
            lambda flags=flags: run_pipeline(flags),
            rounds=ROUNDS[name],
            metric=lambda r: r["records_per_sec"],
        )
        for name, flags in CONFIGS.items()
    }


def test_throughput_columnar(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    baseline = results["seed"]
    rows = []
    for name, r in results.items():
        rows.append([
            name,
            r["tasks"],
            r["dispatched_events"],
            fmt(r["wall_seconds"] * 1e3, 1) + "ms",
            fmt(r["records_per_sec"] / 1e3, 1) + "k/s",
            fmt(r["records_per_sec"] / baseline["records_per_sec"], 2) + "x",
        ])
    print_table(
        "columnar execution: wall-clock throughput, windowed aggregation",
        ["config", "tasks", "kernel events", "wall", "records/s", "speedup"],
        rows,
    )

    # The equivalence guarantee: byte-identical (value, event_time, key,
    # sign) sequences out of every configuration — columnar included.
    assert baseline["results"], "pipeline produced no window results"
    for name, r in results.items():
        assert r["results"] == baseline["results"], f"{name} diverged from seed output"

    columnar_speedup = results["columnar"]["records_per_sec"] / baseline["records_per_sec"]
    fastpath_speedup = results["fastpath"]["records_per_sec"] / baseline["records_per_sec"]
    payload = {
        "benchmark": "throughput_columnar",
        "events": EVENTS,
        "pipeline": "source -> filter -> key_by -> tumbling count -> sink",
        "window_seconds": WINDOW,
        "configs": {
            name: {
                "flags": CONFIGS[name],
                "tasks": r["tasks"],
                "kernel_events": r["dispatched_events"],
                "results": len(r["results"]),
                "wall_seconds": round(r["wall_seconds"], 4),
                "records_per_sec": round(r["records_per_sec"], 1),
            }
            for name, r in results.items()
        },
        "speedup_columnar_vs_seed": round(columnar_speedup, 2),
        "speedup_fastpath_vs_seed": round(fastpath_speedup, 2),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    merge_bench_json(BENCH_PATH, "throughput_columnar", payload)

    # Regression gates for the headline claims: batching the whole pipeline
    # beats the seed path by MIN_COLUMNAR_SPEEDUP, and strictly beats the
    # per-record fast path it builds on.
    assert columnar_speedup >= MIN_COLUMNAR_SPEEDUP, (
        f"expected >={MIN_COLUMNAR_SPEEDUP}x columnar speedup over seed, "
        f"got {columnar_speedup:.2f}x"
    )
    assert (
        results["columnar"]["records_per_sec"] > results["fastpath"]["records_per_sec"]
    ), "columnar must beat the per-record fast path"
    # The mechanism: far fewer kernel dispatches than even the fast path.
    assert (
        results["columnar"]["dispatched_events"]
        < results["fastpath"]["dispatched_events"]
    )
