"""Incremental vs full checkpoint cost (E5: survey §3.1 crossover).

Full snapshots pay for *state size* at every checkpoint; incremental
snapshots pay for *churn* (the keys touched since the previous capture) plus
a small per-entry framing overhead. The sweep crosses state size with churn
fraction under one storage cost model and reports:

* per-checkpoint persist cost, full vs incremental, for every cell;
* the crossover churn — where the delta re-uploads enough of the state
  that the savings vanish;
* recovery time vs ``max_chain_length`` — longer chains amortize rebases
  but a restore must replay the whole base+delta chain, so the rebase
  bound is what keeps recovery time flat;
* an engine-grounded pair of runs confirming the modeled ordering end to
  end via the ``checkpoint/0/persist_seconds`` histogram.

Results land in ``BENCH_checkpoint.json`` at the repo root. The assertions
pin the headline claim: at the largest state size and ≤10% churn the
incremental capture is ≥5× cheaper than the full one.
"""

import json
import os
import time

from conftest import fmt, print_table

from repro.checkpoint import IncrementalSnapshotter, TaskChainStore
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.state import InMemoryStateBackend, ValueStateDescriptor

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_checkpoint.json")

#: storage cost model for the sweep (virtual seconds): a small per-request
#: base plus a per-byte transfer cost — upload and restore are priced alike
WRITE_BASE_COST = 1e-4
WRITE_COST_PER_BYTE = 1e-7

STATE_SIZES = (400, 1600, 6400)
CHURN_FRACTIONS = (0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1.00)
PAYLOAD = "x" * 64  # ~70 serialized bytes per value

DESC = ValueStateDescriptor("acc")


def persist_cost(size_bytes):
    return WRITE_BASE_COST + size_bytes * WRITE_COST_PER_BYTE


def populated_snapshotter(state_size):
    snapshotter = IncrementalSnapshotter(InMemoryStateBackend())
    snapshotter.register(DESC)
    for key in range(state_size):
        snapshotter.put(DESC, key, (key, PAYLOAD))
    return snapshotter


def sweep_cell(state_size, churn):
    """One (state size, churn) cell: steady-state capture cost both ways."""
    snapshotter = populated_snapshotter(state_size)
    base = snapshotter.full_snapshot()
    touched = max(1, int(state_size * churn))
    for key in range(touched):
        snapshotter.put(DESC, key, (key, PAYLOAD, "v2"))
    delta = snapshotter.delta_snapshot()
    # a full-mode checkpoint at the same point uploads everything again
    full_bytes = base.size_bytes()
    return {
        "state_size": state_size,
        "churn": churn,
        "keys_touched": touched,
        "full_bytes": full_bytes,
        "delta_bytes": delta.size_bytes(),
        "full_cost_s": persist_cost(full_bytes),
        "incremental_cost_s": persist_cost(delta.size_bytes()),
    }


def crossover_churn(cells):
    """Smallest swept churn where incremental stops being cheaper (None if
    it stays cheaper through 100%)."""
    for cell in cells:
        if cell["incremental_cost_s"] >= cell["full_cost_s"]:
            return cell["churn"]
    return None


def chain_length_sweep(state_size=1600, churn=0.10, checkpoints=32):
    """Recovery volume vs ``max_chain_length``: the rebase bound trades
    steady-state capture volume against restore-time chain replay."""
    results = []
    for max_chain_length in (1, 2, 4, 8, 16):
        snapshotter = populated_snapshotter(state_size)
        store = TaskChainStore(max_chain_length=max_chain_length)
        captured_bytes = 0
        touched = max(1, int(state_size * churn))
        last_link = None
        for checkpoint_id in range(1, checkpoints + 1):
            for key in range(touched):
                snapshotter.put(DESC, key, (key, PAYLOAD, checkpoint_id))
            link = (
                snapshotter.full_snapshot()
                if store.wants_full("t")
                else snapshotter.delta_snapshot()
            )
            store.append("t", link)
            captured_bytes += link.size_bytes()
            last_link = link
        recovery_bytes = store.chain_bytes("t", last_link)
        results.append(
            {
                "max_chain_length": max_chain_length,
                "rebases": store.rebases,
                "mean_capture_cost_s": persist_cost(captured_bytes / checkpoints),
                "recovery_bytes": recovery_bytes,
                "recovery_cost_s": persist_cost(recovery_bytes),
            }
        )
    return results


def engine_grounding():
    """Run the same pipeline in both modes and read the engine's own
    ``persist_seconds`` histogram — the modeled ordering must hold end to
    end, not just in the closed-form sweep."""

    def run(incremental):
        config = EngineConfig(
            checkpoints=CheckpointConfig(
                interval=0.05,
                incremental=incremental,
                write_base_cost=WRITE_BASE_COST,
                write_cost_per_byte=WRITE_COST_PER_BYTE,
            )
        )
        env = StreamExecutionEnvironment(config, name="cp")
        (
            env.from_workload(
                SensorWorkload(count=2000, rate=4000.0, key_count=400, seed=17)
            )
            .key_by(field_selector("sensor"), parallelism=2)
            .aggregate(
                create=lambda: 0,
                add=lambda acc, _v: acc + 1,
                name="count",
                parallelism=2,
            )
            .sink(CollectSink("out"), parallelism=1)
        )
        engine = env.build()
        env.execute(until=30.0)
        histogram = engine.obs.registry.histogram("cp/checkpoint/0/persist_seconds")
        return {
            "checkpoints": len(engine.coordinator.completed),
            "mean_persist_s": histogram.mean if histogram.count else 0.0,
        }

    return {"full": run(False), "incremental": run(True)}


def run_all():
    cells = [
        sweep_cell(state_size, churn)
        for state_size in STATE_SIZES
        for churn in CHURN_FRACTIONS
    ]
    crossovers = {
        state_size: crossover_churn(
            [cell for cell in cells if cell["state_size"] == state_size]
        )
        for state_size in STATE_SIZES
    }
    return {
        "cells": cells,
        "crossovers": crossovers,
        "chain_lengths": chain_length_sweep(),
        "engine": engine_grounding(),
    }


def test_incremental_checkpoint_cost_scales_with_churn(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cells, crossovers = results["cells"], results["crossovers"]

    print_table(
        "checkpoint persist cost: state size x churn "
        f"(base {WRITE_BASE_COST}s + {WRITE_COST_PER_BYTE}s/B)",
        ["state size", "churn", "full (ms)", "incremental (ms)", "ratio"],
        [
            [
                cell["state_size"],
                cell["churn"],
                fmt(cell["full_cost_s"] * 1e3, 3),
                fmt(cell["incremental_cost_s"] * 1e3, 3),
                fmt(cell["full_cost_s"] / cell["incremental_cost_s"], 1),
            ]
            for cell in cells
        ],
    )
    print_table(
        "recovery cost vs max_chain_length (1600 keys, 10% churn, 32 checkpoints)",
        ["max chain", "rebases", "mean capture (ms)", "recovery (ms)"],
        [
            [
                row["max_chain_length"],
                row["rebases"],
                fmt(row["mean_capture_cost_s"] * 1e3, 3),
                fmt(row["recovery_cost_s"] * 1e3, 3),
            ]
            for row in results["chain_lengths"]
        ],
    )

    payload = {
        "benchmark": "checkpoint_cost",
        "cost_model": {
            "write_base_cost_s": WRITE_BASE_COST,
            "write_cost_per_byte_s": WRITE_COST_PER_BYTE,
        },
        "cells": [
            {**cell, "full_cost_s": round(cell["full_cost_s"], 9),
             "incremental_cost_s": round(cell["incremental_cost_s"], 9)}
            for cell in cells
        ],
        "crossover_churn_by_state_size": {
            str(size): crossovers[size] for size in STATE_SIZES
        },
        "chain_length_sweep": results["chain_lengths"],
        "engine_grounding": results["engine"],
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(BENCH_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # Headline: at the largest state size, low churn is >=5x cheaper.
    largest = max(STATE_SIZES)
    for cell in cells:
        if cell["state_size"] == largest and cell["churn"] <= 0.10:
            ratio = cell["full_cost_s"] / cell["incremental_cost_s"]
            assert ratio >= 5.0, (
                f"churn {cell['churn']}: expected >=5x, got {ratio:.1f}x"
            )
    # Incremental cost tracks churn, not state size: at fixed churn, the
    # cost ratio grows with state size.
    for churn in (0.01, 0.10):
        ratios = [
            cell["full_cost_s"] / cell["incremental_cost_s"]
            for cell in cells
            if cell["churn"] == churn
        ]
        assert ratios == sorted(ratios), f"ratio not monotone in size at churn {churn}"
    # The crossover: once churn reaches 100% the delta re-uploads every key
    # and the two modes cost the same — incremental stops winning there.
    assert all(crossovers[size] is not None for size in STATE_SIZES)
    # Rebase bounding: unbounded-ish chains (16) recover strictly slower
    # than rebase-every-time (1), and recovery stays bounded by the chain
    # cap rather than the checkpoint count.
    by_chain = {row["max_chain_length"]: row for row in results["chain_lengths"]}
    assert by_chain[16]["recovery_cost_s"] > by_chain[1]["recovery_cost_s"]
    assert by_chain[1]["mean_capture_cost_s"] > by_chain[16]["mean_capture_cost_s"]
    # End-to-end grounding: the engine's own persist histogram agrees.
    engine = results["engine"]
    assert engine["full"]["checkpoints"] > 0
    assert engine["incremental"]["mean_persist_s"] < engine["full"]["mean_persist_s"]
