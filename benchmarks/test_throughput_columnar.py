"""Whole-pipeline columnar execution: wall-clock throughput.

The tentpole headline for the columnar transport: the same windowed
aggregation pipeline (sensor source -> vectorized filter -> key_by ->
tumbling event-time count -> sink) run three ways —

* ``seed``      — the unchained dispatch path (one task per logical node);
* ``fastpath``  — operator chaining, still one Python-level dispatch per
  record;
* ``columnar``  — record-batches as the unit of transport *and* compute:
  the source emits :class:`~repro.core.events.RecordBatch`, operators run
  vectorized, the window operator folds whole per-(key, window) groups.

Every configuration must produce byte-identical results (the columnar
path is an optimisation, not a semantics change). The columnar path is gated
on its *own* cost — host µs per record, scaled to the reference host by a
calibration loop timed in the same round — and must beat the per-record fast
path it builds on. Its ratio to the seed path is recorded beside that, not
gated: the denominator is the per-record dispatch path, so every change that
makes that path cheaper lowers the ratio without columnar losing anything
(14x, then 9x, then 8x over three such changes). Rows land in
``BENCH_throughput.json`` next to the fast-path section.
"""

import gc
import os
import sys
import time

from conftest import fmt, merge_bench_json, print_table

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from perf.calibrate import calibrate, host_factor  # noqa: E402  (the benchmark's loop, reused)

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import EngineConfig
from repro.windows.assigners import TumblingEventTimeWindows

EVENTS = 12000
WINDOW = 0.05
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_throughput.json")

#: what the columnar path cost per source record when the gate was set: host
#: µs on the reference host (``perf.calibrate.CAL_REF_S``), best of the
#: rounds, in the dev container — 3.74 / 4.11 / 4.15 / 4.25 / 4.33 / 4.36 /
#: 4.38 / 4.50 / 4.54 / 4.61 in ten runs of this file (raw 4.5-6.4 µs; the
#: ratio to the seed path read 6.6x-9.7x in the same ten)
BASELINE_COLUMNAR_US_PER_RECORD = 4.3
#: the gate, with the headroom the ratio gate had: the baseline is 0.7 of it,
#: so a regression of about 40 % in the columnar path's own cost fails
MAX_COLUMNAR_US_PER_RECORD = BASELINE_COLUMNAR_US_PER_RECORD / 0.7

CONFIGS = {
    "seed": dict(chaining_enabled=False),
    "fastpath": dict(chaining_enabled=True),
    "columnar": dict(chaining_enabled=True, columnar_batch_size=256),
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


#: rounds per configuration, interleaved. The columnar run is ~10x shorter
#: than the others, so a single scheduler hiccup costs it proportionally
#: more; extra rounds are cheap there.
ROUNDS = {"seed": 2, "fastpath": 2, "columnar": 5}
#: calibration loops timed beside each run (~7.5 ms each on the reference)
CAL_LOOPS = 4


def run_all():
    """Best of the rounds per configuration, by host time scaled to the
    reference host. Rounds are interleaved and each times the calibration
    loop right before and after its run: host speed drifts on a shared
    machine faster than a whole best-of-N takes."""
    best = {}
    for round_index in range(max(ROUNDS.values())):
        for name, flags in CONFIGS.items():
            if round_index >= ROUNDS[name]:
                continue
            gc.collect()  # dead engines of earlier rounds: no pause mid-run
            loop_s = calibrate(CAL_LOOPS)
            result = run_pipeline(flags)
            loop_s = (loop_s + calibrate(CAL_LOOPS)) / 2
            result["norm_us_per_record"] = (
                result["wall_seconds"] / host_factor(loop_s) / EVENTS * 1e6
            )
            if name not in best or result["norm_us_per_record"] < best[name]["norm_us_per_record"]:
                best[name] = result
    return best


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
            fmt(r["norm_us_per_record"], 2) + "us",
            fmt(r["records_per_sec"] / baseline["records_per_sec"], 2) + "x",
        ])
    print_table(
        "columnar execution: wall-clock throughput, windowed aggregation",
        ["config", "tasks", "kernel events", "wall", "records/s", "norm/record", "vs seed"],
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
                "norm_us_per_record": round(r["norm_us_per_record"], 3),
            }
            for name, r in results.items()
        },
        "gate_columnar_norm_us_per_record": round(MAX_COLUMNAR_US_PER_RECORD, 2),
        # recorded, not gated: the denominator is the per-record path's cost
        "speedup_columnar_vs_seed": round(columnar_speedup, 2),
        "speedup_fastpath_vs_seed": round(fastpath_speedup, 2),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    merge_bench_json(BENCH_PATH, "throughput_columnar", payload)

    # Regression gates for the headline claims: the columnar path costs no
    # more per record than MAX_COLUMNAR_US_PER_RECORD on the reference host,
    # and strictly beats the per-record fast path it builds on.
    columnar_us = results["columnar"]["norm_us_per_record"]
    assert columnar_us <= MAX_COLUMNAR_US_PER_RECORD, (
        f"columnar path costs {columnar_us:.2f} us/record (normalised); "
        f"gate {MAX_COLUMNAR_US_PER_RECORD:.2f}, set at {BASELINE_COLUMNAR_US_PER_RECORD}"
    )
    assert (
        columnar_us < results["fastpath"]["norm_us_per_record"]
    ), "columnar must beat the per-record fast path"
    # The mechanism: far fewer kernel dispatches than even the fast path.
    assert (
        results["columnar"]["dispatched_events"]
        < results["fastpath"]["dispatched_events"]
    )
