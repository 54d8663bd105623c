"""Wall-clock throughput of operator chaining.

Unlike the virtual-time ablations, this benchmark measures *host* records
per second: how fast the simulator itself chews through a four-stage
forward pipeline unchained (the seed path: one task per logical node, a
channel per hop) versus chained (one fused task). Same-arrival batched
delivery and the kernel's same-time bucket are the runtime's only
behaviour, so both rows have them. The result is written to
``BENCH_throughput.json`` at the repo root so the perf trajectory is
tracked across PRs; the assertion pins the headline claim — at least a
2x wall-clock speedup with chaining enabled.
"""

import os
import time

from conftest import best_of, fmt, merge_bench_json, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig

EVENTS = 12000
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_throughput.json")

CONFIGS = {
    # The seed path: one task per logical node, a channel per hop.
    "seed": dict(chaining_enabled=False),
    "fastpath": dict(chaining_enabled=True),
}


def run_pipeline(flags):
    """Four forward stages: burst flat_map -> map -> filter -> map -> sink."""
    env = StreamExecutionEnvironment(EngineConfig(seed=31, **flags), name="throughput")
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=EVENTS, rate=20000.0, key_count=16, seed=31))
        .flat_map(lambda v: [v["reading"], v["reading"] * 1.8 + 32], name="expand")
        .map(lambda r: round(r, 3), name="quantise")
        .filter(lambda r: r > -40.0, name="plausible")
        .map(lambda r: ("t", r), name="tag")
        .sink(sink, parallelism=1)
    )
    engine = env.build()
    started = time.perf_counter()
    env.execute()
    elapsed = time.perf_counter() - started
    return {
        "tasks": len(engine.tasks),
        "dispatched_events": engine.kernel.dispatched_events,
        "results": len(sink.results),
        "wall_seconds": elapsed,
        "records_per_sec": EVENTS / elapsed,
    }


def run_all():
    return {
        name: best_of(
            lambda flags=flags: run_pipeline(flags),
            rounds=2,
            metric=lambda r: r["records_per_sec"],
        )
        for name, flags in CONFIGS.items()
    }


def test_throughput_fastpath(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    baseline = results["seed"]
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
        "fast-path dispatch: wall-clock throughput, 4-stage forward pipeline",
        ["config", "tasks", "kernel events", "wall", "records/s", "speedup"],
        rows,
    )

    # Same answers out of every configuration.
    counts = {r["results"] for r in results.values()}
    assert len(counts) == 1 and counts.pop() > 0

    speedup = results["fastpath"]["records_per_sec"] / baseline["records_per_sec"]
    payload = {
        "benchmark": "throughput_fastpath",
        "events": EVENTS,
        "pipeline": "source -> flat_map -> map -> filter -> map -> sink (all forward)",
        "configs": {
            name: {
                "flags": CONFIGS[name],
                "tasks": r["tasks"],
                "kernel_events": r["dispatched_events"],
                "wall_seconds": round(r["wall_seconds"], 4),
                "records_per_sec": round(r["records_per_sec"], 1),
            }
            for name, r in results.items()
        },
        "speedup_fastpath_vs_seed": round(speedup, 2),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    merge_bench_json(BENCH_PATH, "throughput_fastpath", payload)

    # The headline claim: chaining at least doubles wall-clock throughput
    # over the seed dispatch path.
    assert speedup >= 2.0, f"expected >=2x wall-clock speedup, got {speedup:.2f}x"
    # The mechanism: far fewer kernel events dispatched per pipeline run.
    assert results["fastpath"]["dispatched_events"] < baseline["dispatched_events"] / 2
