"""Source→sink latency under the fast path, and the cost of observing it.

Two questions, one artifact (``BENCH_latency.json``):

* **Latency** — in-band markers measure virtual source→sink delay (p50/p99)
  on the four-stage forward pipeline with chaining off vs on. The numbers
  make the trade-off visible: fusing removes per-hop channel latency but
  concentrates every member's processing cost in one task, so when the
  offered rate saturates the fused task the markers surface the queueing
  delay that builds in front of it — exactly what they exist to expose.
* **Overhead** — the observability stack (markers + sampled tracing +
  profiling) is gated on the host µs it *adds* per source record on the
  fastpath configuration (obs-on minus obs-off wall time ÷ records);
  everything hot is an ``is None`` test or a pull gauge, and marker
  bookkeeping is charged per batch rather than per record. The relative
  overhead is recorded beside it but not gated: its denominator is the
  engine's own cost per record, so making the engine faster raises the
  ratio without observability costing a nanosecond more.
"""

import gc
import json
import os
import time

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig

EVENTS = 12000
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_latency.json")

FASTPATH = dict(chaining_enabled=True)

#: observability knobs for the latency-measurement runs
OBS = dict(latency_marker_period=0.002, trace_sample_rate=0.01, profiling_enabled=True)

#: what the stack added per source record before the kernel/run-loop
#: dispatch path was cut (three 12-round measurements in the dev container:
#: 3.9 / 4.6 / 5.4 µs against 52-54 µs per record obs-off, i.e. 7-9 %); the
#: same container measured 4.4 µs against 32 µs (12 %) after the cut
BASELINE_ADDED_US_PER_RECORD = 4.6
#: the gate. Twice the baseline: a best-of-10 difference of two wall times
#: still moved between 3.9 and 8.8 µs from one attempt to the next there
MAX_ADDED_US_PER_RECORD = 2 * BASELINE_ADDED_US_PER_RECORD

LATENCY_CONFIGS = {
    "markers-unchained": dict(FASTPATH, chaining_enabled=False, **OBS),
    "markers-fastpath": dict(FASTPATH, **OBS),
    # Columnar transport: markers ride between record-batches, so the same
    # histograms surface what batch accumulation does to end-to-end latency
    # — the flip side of the throughput win in BENCH_throughput.json.
    "markers-columnar": dict(
        FASTPATH, columnar_enabled=True, columnar_batch_size=256, **OBS
    ),
}


def run_pipeline(flags):
    """The throughput benchmark's four-stage forward pipeline."""
    env = StreamExecutionEnvironment(EngineConfig(seed=31, **flags), name="latbench")
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
    return engine, sink, elapsed


def latency_summary(engine):
    """p50/p99 of every source→sink histogram (virtual seconds)."""
    out = {}
    for label, histogram in sorted(engine.obs.latency.e2e_histograms().items()):
        summary = histogram.summary()
        out[label] = {
            "markers": summary["count"],
            "p50": summary["p50"],
            "p99": summary["p99"],
        }
    return out


def obs_overhead(rounds=10):
    """Host µs the full stack adds per source record, and the obs-off /
    obs-on throughputs it was derived from.

    Best-of-N on both sides with the rounds *interleaved* — host throughput
    drifts on shared machines, and alternating the configurations exposes
    both to the same drift instead of attributing it to one side. A shared
    warm-up run keeps first-run costs out of either measurement."""
    run_pipeline(dict(FASTPATH, **OBS))  # warm-up, discarded
    best_plain = best_observed = None
    for _ in range(rounds):
        # Collect before each timed run: dead engines from previous rounds
        # (and the latency-measurement runs before this function) otherwise
        # trigger GC pauses mid-measurement, landing on whichever side is
        # running when the threshold trips.
        gc.collect()
        _, _, elapsed = run_pipeline(FASTPATH)
        best_plain = elapsed if best_plain is None else min(best_plain, elapsed)
        gc.collect()
        _, _, elapsed = run_pipeline(dict(FASTPATH, **OBS))
        best_observed = elapsed if best_observed is None else min(best_observed, elapsed)
    added_us = (best_observed - best_plain) / EVENTS * 1e6
    return added_us, EVENTS / best_plain, EVENTS / best_observed


def test_latency_and_obs_overhead(benchmark):
    def run_all():
        latency = {}
        for name, flags in LATENCY_CONFIGS.items():
            engine, sink, _ = run_pipeline(flags)
            ((label, stats),) = latency_summary(engine).items()
            latency[name] = {"path": label, **stats, "results": len(sink.results)}
        return (latency, *obs_overhead())

    latency, added_us, plain_rps, observed_rps = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    rows = [
        [name, stats["markers"], fmt(stats["p50"] * 1e3, 3) + "ms",
         fmt(stats["p99"] * 1e3, 3) + "ms"]
        for name, stats in latency.items()
    ]
    rows.append(["obs-off throughput", "", "", fmt(plain_rps / 1e3, 1) + "k/s"])
    rows.append(["obs-on throughput", "", "", fmt(observed_rps / 1e3, 1) + "k/s"])
    rows.append(["obs added per record", "", "", fmt(added_us, 2) + "us"])
    print_table(
        "source->sink latency via in-band markers + observability overhead",
        ["config", "markers", "p50", "p99"],
        rows,
    )

    for name, stats in latency.items():
        assert stats["markers"] > 0, f"{name}: empty source->sink histogram"
        assert 0.0 <= stats["p50"] <= stats["p99"]
        assert stats["results"] > 0
    # At 20k rec/s offered the fused chain saturates (every member's cost
    # lands on one task) while the unchained stages keep up individually:
    # the markers must surface that queueing delay.
    assert latency["markers-fastpath"]["p50"] >= latency["markers-unchained"]["p50"]

    # One retry, keeping the better attempt: wall-clock differences are noisy
    # on shared CI hosts even with best-of-N interleaved rounds.
    if added_us > BASELINE_ADDED_US_PER_RECORD:
        retry, retry_plain, retry_observed = obs_overhead()
        if retry < added_us:
            added_us, plain_rps, observed_rps = retry, retry_plain, retry_observed

    payload = {
        "benchmark": "latency_obs",
        "events": EVENTS,
        "pipeline": "source -> flat_map -> map -> filter -> map -> sink (all forward)",
        "obs_knobs": OBS,
        "latency": {
            name: {
                "path": stats["path"],
                "markers": stats["markers"],
                "p50_virtual_seconds": round(stats["p50"], 6),
                "p99_virtual_seconds": round(stats["p99"], 6),
            }
            for name, stats in latency.items()
        },
        "throughput": {
            "obs_off_records_per_sec": round(plain_rps, 1),
            "obs_on_records_per_sec": round(observed_rps, 1),
            "added_us_per_record": round(added_us, 2),
            "baseline_added_us_per_record": BASELINE_ADDED_US_PER_RECORD,
            "overhead_fraction": round(1.0 - observed_rps / plain_rps, 4),
        },
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    assert added_us < MAX_ADDED_US_PER_RECORD, (
        f"observability adds {added_us:.2f} us per record "
        f"(gate {MAX_ADDED_US_PER_RECORD:.2f}, baseline {BASELINE_ADDED_US_PER_RECORD})"
    )
