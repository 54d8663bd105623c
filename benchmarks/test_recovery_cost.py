"""Regional vs global recovery cost (FLIP-1 failover regions).

A four-stage all-FORWARD pipeline at parallelism 4 is four independent
failover regions. One mid-pipeline subtask dies; the job recovers either
regionally (restore only the failed slice, rewind only its source) or
globally (restore everything, rewind all four sources). Two bills differ:

* **records replayed** — global rewinds every source to the checkpoint
  offset, so the three healthy slices re-emit work they already did;
  regional replays one slice only (~1/4 of the global bill);
* **restore latency** — the simulated restore cost scales with the bytes
  of state loaded; a region restores one slice of the snapshot.

The result is written to ``BENCH_recovery.json`` at the repo root; the
assertions pin the headline claim — regional recovery is strictly cheaper
than global on BOTH axes.
"""

import json
import os
import time

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.fault.guarantees import config_for_guarantee
from repro.io import CollectSink, CollectionWorkload
from repro.runtime.config import GuaranteeLevel
from repro.supervision import compute_failover_regions, region_of

EVENTS = 400
PARALLELISM = 4
FAIL_AT = 0.08
VICTIM = "stage2[1]"
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_recovery.json")


def build_engine():
    """src -> stage1 -> stage2 -> sink, all FORWARD at parallelism 4."""
    config = config_for_guarantee(
        GuaranteeLevel.AT_LEAST_ONCE,
        checkpoint_interval=0.02,
        seed=13,
        chaining_enabled=False,
    )
    env = StreamExecutionEnvironment(config, name="recovery-cost")
    sink = CollectSink("out")
    (
        env.from_workload(
            CollectionWorkload(list(range(EVENTS)), rate=4000.0),
            name="src",
            parallelism=PARALLELISM,
        )
        .map(lambda v: v * 2, name="stage1", parallelism=PARALLELISM)
        .map(lambda v: v + 1, name="stage2", parallelism=PARALLELISM)
        .sink(sink, name="out", parallelism=PARALLELISM)
    )
    return env.build(), sink


def run_recovery(mode):
    engine, sink = build_engine()
    measured = {}

    def fail_and_recover():
        engine.kill_task(VICTIM)
        started = engine.kernel.now()
        if mode == "regional":
            region = region_of(compute_failover_regions(engine), VICTIM)
            resume_at = engine.recover_region(list(region.task_names))
            measured["tasks_restored"] = len(region)
        else:
            resume_at = engine.recover_from_checkpoint()
            measured["tasks_restored"] = len(engine.plan.tasks())
        measured["restore_latency"] = resume_at - started

    engine.kernel.call_at(FAIL_AT, fail_and_recover)
    engine.run(until=60.0)
    assert engine.job_finished, f"{mode} recovery did not drain the job"
    # Each of the 4 source subtasks emits the full workload once; anything
    # past that baseline at the sink is replayed work.
    baseline = PARALLELISM * EVENTS
    delivered = len(sink.results)
    assert delivered >= baseline, f"{mode} recovery lost records"
    measured["records_replayed"] = delivered - baseline
    measured["records_delivered"] = delivered
    return measured


def run_all():
    return {mode: run_recovery(mode) for mode in ("regional", "global")}


def test_regional_recovery_is_strictly_cheaper(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    regional, global_ = results["regional"], results["global"]

    print_table(
        "recovery scope cost: 4-stage FORWARD pipeline, parallelism 4, one subtask killed",
        ["scope", "tasks restored", "records replayed", "restore latency (ms)"],
        [
            [
                mode,
                r["tasks_restored"],
                r["records_replayed"],
                fmt(r["restore_latency"] * 1e3, 3),
            ]
            for mode, r in results.items()
        ],
    )

    payload = {
        "benchmark": "recovery_cost",
        "pipeline": "src -> stage1 -> stage2 -> sink (all forward, parallelism 4)",
        "events_per_source": EVENTS,
        "victim": VICTIM,
        "fail_at": FAIL_AT,
        "scopes": {
            mode: {
                "tasks_restored": r["tasks_restored"],
                "records_replayed": r["records_replayed"],
                "records_delivered": r["records_delivered"],
                "restore_latency_s": round(r["restore_latency"], 6),
            }
            for mode, r in results.items()
        },
        "replay_ratio_global_over_regional": (
            round(global_["records_replayed"] / regional["records_replayed"], 2)
            if regional["records_replayed"]
            else None
        ),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # The headline claim: regional recovery is strictly cheaper on both axes.
    assert regional["tasks_restored"] < global_["tasks_restored"]
    assert regional["records_replayed"] < global_["records_replayed"]
    assert regional["restore_latency"] < global_["restore_latency"]
    # The mechanism: only the failed slice replays, the other three slices'
    # sources never rewind — global replays roughly PARALLELISM times more.
    assert global_["records_replayed"] >= 2 * regional["records_replayed"]
