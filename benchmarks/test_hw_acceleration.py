"""E14 — §4.2 Hardware acceleration: the batch-size crossover.

SABER/Fleet-shaped result: offloading stream operators to an accelerator
wins only above a batch-size threshold, because each kernel launch pays a
fixed overhead. Two measurements reproduce the shape:

1. the analytical model swept over batch sizes (virtual cost, exact
   crossover);
2. real wall-clock: scalar Python vs NumPy-vectorized window sums — the
   same economics with the interpreter overhead playing the role of the
   per-element CPU cost.
"""

import time

import numpy as np
from conftest import best_of, fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.hardware import (
    AcceleratorModel,
    MicroBatchAcceleratedOperator,
    scalar_window_sums,
    vectorized_window_sums,
)
from repro.io import SensorWorkload
from repro.runtime.config import EngineConfig

BATCHES = [1, 8, 64, 512, 4096]
MODEL = AcceleratorModel(launch_overhead=50e-6, speedup=16.0)
PER_ELEMENT = 2e-5


def model_sweep():
    rows = []
    for batch in BATCHES:
        cpu = MODEL.cpu_time(batch, PER_ELEMENT)
        accel = MODEL.accelerated_time(batch, PER_ELEMENT)
        rows.append(
            {
                "batch": batch,
                "cpu_us_per_el": cpu / batch * 1e6,
                "accel_us_per_el": accel / batch * 1e6,
                "wins": accel < cpu,
            }
        )
    return rows


def pipeline_throughput(batch, use_accelerator):
    env = StreamExecutionEnvironment(EngineConfig(seed=9), name="accel")
    sink = (
        env.from_workload(SensorWorkload(count=4096, rate=1e6, key_count=4, seed=79))
        .apply_operator(
            lambda: MicroBatchAcceleratedOperator(
                kernel=lambda values: [sum(v["reading"] for v in values)],
                batch_size=batch,
                model=MODEL,
                per_element_cpu=PER_ELEMENT,
                use_accelerator=use_accelerator,
            ),
            name="op",
        )
        .collect("out")
    )
    env.execute(until=600.0)
    makespan = max(r.emitted_at for r in sink.results)
    return 4096 / makespan


def wallclock_rows(rounds=5):
    """Scalar and vectorized wall time, each the fastest of ``rounds``
    attempts (single-shot timings made the gate below flaky). The sides
    alternate round by round, so a slow spell of the host hits both."""
    values = [float(i % 13) for i in range(200_000)]
    array = np.array(values)

    def timed(window_sums, data):
        start = time.perf_counter()
        window_sums(data, 64)
        return time.perf_counter() - start

    def fastest(seconds):
        return -seconds

    scalar_time = vector_time = float("inf")
    for _ in range(rounds):
        scalar_time = min(scalar_time, best_of(lambda: timed(scalar_window_sums, values), 1, fastest))
        vector_time = min(vector_time, best_of(lambda: timed(vectorized_window_sums, array), 1, fastest))
    return scalar_time, vector_time


def run_all():
    sweep = model_sweep()
    pipeline = []
    for batch in (1, 64, 4096):
        pipeline.append(
            {
                "batch": batch,
                "cpu_tput": pipeline_throughput(batch, use_accelerator=False),
                "accel_tput": pipeline_throughput(batch, use_accelerator=True),
            }
        )
    scalar_time, vector_time = wallclock_rows()
    return sweep, pipeline, scalar_time, vector_time


def test_hw_acceleration(benchmark):
    sweep, pipeline, scalar_time, vector_time = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E14a — accelerator cost model (per-element time vs batch size)",
        ["batch", "CPU us/element", "accel us/element", "accel wins"],
        [
            [r["batch"], fmt(r["cpu_us_per_el"], 2), fmt(r["accel_us_per_el"], 2), r["wins"]]
            for r in sweep
        ],
    )
    print(f"model crossover batch: {MODEL.crossover_batch(PER_ELEMENT):.1f}")
    print_table(
        "E14b — in-pipeline micro-batch offload (records/s, virtual)",
        ["batch", "CPU path", "accelerator path", "speedup"],
        [
            [r["batch"], fmt(r["cpu_tput"], 0), fmt(r["accel_tput"], 0),
             fmt(r["accel_tput"] / r["cpu_tput"], 2) + "x"]
            for r in pipeline
        ],
    )
    print(f"E14c — wall clock, 200k window sums: scalar {scalar_time*1e3:.1f}ms "
          f"vs vectorized {vector_time*1e3:.1f}ms "
          f"({scalar_time/vector_time:.0f}x)")

    # The crossover exists and sits between batch=1 and batch=4096.
    crossover = MODEL.crossover_batch(PER_ELEMENT)
    assert 1 < crossover < 4096
    assert not sweep[0]["wins"] and sweep[-1]["wins"]
    # Pipeline-level: accelerator loses at batch=1, wins at batch=4096.
    assert pipeline[0]["accel_tput"] < pipeline[0]["cpu_tput"]
    assert pipeline[-1]["accel_tput"] > pipeline[-1]["cpu_tput"] * 4
    # Real vectorization shows the same direction at large batch.
    assert vector_time < scalar_time / 5
