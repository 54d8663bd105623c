"""A7 — §3.3: live delta-chain rescaling vs the stop-the-world savepoint.

Two costs separate the generations of reconfiguration mechanisms the survey
tracks: the *stall* a running pipeline observes while state moves, and the
*bytes* the move ships synchronously. The classic savepoint cycle pauses the
sources and round-trips the operator's whole state through durable storage;
live migration stalls only the rescaled subtasks; delta-chain handoff on top
ships just the still-dirty overlay and lets new owners replay the persisted
base+delta chain in the background.

Exhibits (landing in ``BENCH_rescale.json``):

* **output gap** — longest sink-output silence around a mid-run rescale,
  stop-restart vs live, plus the reconfiguration's own downtime;
* **moved bytes vs churn** — synchronously shipped bytes across checkpoint
  intervals (churn = keys dirtied per interval), stop-restart savepoint vs
  live full extraction vs live delta-chain handoff.

The assertions pin the headline: live + delta-chain strictly beats the
stop-the-world savepoint on *both* axes, at every churn level.
"""

import os
import time

from conftest import fmt, merge_bench_json, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.load.migration import Rescaler
from repro.runtime.config import CheckpointConfig, EngineConfig

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rescale.json")

EVENTS = 12000
RATE = 2000.0
KEY_COUNT = 500
RESCALE_AT = 2.0
TARGET_PARALLELISM = 4

#: checkpoint intervals sweeping churn: dirty keys per interval is about
#: min(KEY_COUNT, RATE * interval), i.e. ~2% ... 100% of the key space
CHURN_INTERVALS = (0.005, 0.02, 0.1, 0.5)


def run_rescale(mode, incremental, checkpoint_interval=0.02):
    env = StreamExecutionEnvironment(
        EngineConfig(
            seed=11,
            default_channel_capacity=64,
            checkpoints=CheckpointConfig(
                interval=checkpoint_interval, incremental=incremental
            ),
        ),
        name="rescale-cost",
    )
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=EVENTS, rate=RATE, key_count=KEY_COUNT, seed=29)
        )
        .key_by(field_selector("sensor"), parallelism=2)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=2, processing_cost=1e-4,
        )
        .sink(sink, parallelism=1)
    )
    engine = env.build()
    rescaler = Rescaler(engine)
    engine.kernel.call_at(
        RESCALE_AT, lambda: rescaler.rescale("count", TARGET_PARALLELISM, mode=mode)
    )
    result = env.execute(until=60.0)
    assert result.finished, f"{mode} run did not finish"
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    assert sum(per_key.values()) == EVENTS, f"{mode} rescale lost records"
    report = rescaler.reports[0]
    # The dip: the longest silence in the sink's output once the
    # reconfiguration starts. A paused source does not inflate per-record
    # latency (records are simply not produced), so the user-visible stall
    # is the gap in emissions, not the latency of the records around it.
    times = sorted(r.emitted_at for r in sink.results)
    after = [t for t in times if t >= RESCALE_AT - 0.1]
    before = [t for t in times if t < RESCALE_AT]
    dip = max(
        (b - a for a, b in zip(after, after[1:])), default=0.0
    )
    baseline = max(
        (b - a for a, b in zip(before, before[1:])), default=0.0
    )
    return {
        "mode": mode,
        "handoff": report.handoff,
        "downtime_s": report.downtime,
        "output_gap_s": dip,
        "baseline_gap_s": baseline,
        "moved_bytes": report.moved_bytes,
        "chain_bytes": report.chain_bytes,
        "moved_entries": report.moved_entries,
    }


def run():
    stop = run_rescale("stop-restart", incremental=False)
    live_full = run_rescale("live", incremental=False)
    live_delta = run_rescale("live", incremental=True)

    churn_cells = []
    for interval in CHURN_INTERVALS:
        churn = min(1.0, RATE * interval / KEY_COUNT)
        cell_stop = run_rescale("stop-restart", incremental=False,
                                checkpoint_interval=interval)
        cell_delta = run_rescale("live", incremental=True,
                                 checkpoint_interval=interval)
        churn_cells.append(
            {
                "checkpoint_interval_s": interval,
                "churn_fraction": churn,
                "savepoint_moved_bytes": cell_stop["moved_bytes"],
                "delta_moved_bytes": cell_delta["moved_bytes"],
                "delta_chain_bytes": cell_delta["chain_bytes"],
                "delta_handoff": cell_delta["handoff"],
            }
        )
    return {"modes": [stop, live_full, live_delta], "churn": churn_cells}


def test_rescale_cost(benchmark):
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    stop, live_full, live_delta = report["modes"]
    print_table(
        "A7 — reconfiguration stall: stop-the-world vs live migration",
        ["mode", "handoff", "downtime (s)", "output gap (s)", "moved bytes"],
        [
            [row["mode"], row["handoff"], fmt(row["downtime_s"], 4),
             fmt(row["output_gap_s"], 4), row["moved_bytes"]]
            for row in report["modes"]
        ],
    )
    print_table(
        "A7 — synchronously shipped bytes vs churn",
        ["ckpt interval (s)", "churn", "savepoint B", "delta overlay B", "chain B"],
        [
            [cell["checkpoint_interval_s"], fmt(cell["churn_fraction"], 2),
             cell["savepoint_moved_bytes"], cell["delta_moved_bytes"],
             cell["delta_chain_bytes"]]
            for cell in report["churn"]
        ],
    )

    merge_bench_json(
        BENCH_PATH,
        "rescale_cost",
        {
            "modes": report["modes"],
            "moved_bytes_vs_churn": report["churn"],
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    )

    # Headline: live + delta-chain strictly beats the savepoint cycle on
    # the observed stall AND on synchronously shipped bytes.
    assert live_delta["output_gap_s"] < stop["output_gap_s"]
    assert live_delta["downtime_s"] < stop["downtime_s"]
    assert live_delta["moved_bytes"] < stop["moved_bytes"]
    assert live_delta["handoff"] == "delta-chain"
    assert stop["handoff"] == "savepoint"
    # Live full extraction already removes the whole-pipeline pause ...
    assert live_full["output_gap_s"] < stop["output_gap_s"]
    # ... and the delta overlay then shrinks the synchronous shipment
    # below the live full extraction too.
    assert live_delta["moved_bytes"] <= live_full["moved_bytes"]
    # Across every churn level the overlay stays strictly under the
    # savepoint's full round-trip, and it grows with churn.
    for cell in report["churn"]:
        assert cell["delta_moved_bytes"] < cell["savepoint_moved_bytes"], cell
    overlays = [c["delta_moved_bytes"] for c in report["churn"]]
    assert overlays[0] < overlays[-1], "overlay did not track churn"
