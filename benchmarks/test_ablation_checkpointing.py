"""Ablation A2 — checkpointing design choices.

Two knobs the survey's systems discussion motivates:

1. **interval** — frequent checkpoints cost steady-state snapshot work but
   bound replay after a failure; rare checkpoints invert the trade.
2. **alignment** — aligned barriers give exactly-once state at the price
   of blocked channels during alignment; unaligned never blocks but
   replays duplicates.

Expected shape: replayed-work after a failure decreases monotonically with
checkpoint frequency while checkpoint count (overhead proxy) increases;
unaligned mode yields duplicate emissions after recovery, aligned does not.
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload, TransactionalSink
from repro.runtime.config import CheckpointConfig, CheckpointMode, EngineConfig

EVENTS = 6000
RATE = 6000.0
FAIL_AT = 0.7


def run_interval(interval):
    env = StreamExecutionEnvironment(
        EngineConfig(seed=18, checkpoints=CheckpointConfig(interval=interval)), name="ivl"
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=EVENTS, rate=RATE, key_count=32, seed=107))
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count")
        .sink(sink)
    )
    engine = env.build()
    report = {}

    def fail():
        record = engine.latest_checkpoint()
        report["staleness"] = engine.kernel.now() - record.triggered_at if record else None
        engine.kill_task("count[0]")
        engine.recover_from_checkpoint()

    engine.kernel.call_at(FAIL_AT, fail)
    env.execute(until=60.0)
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    return {
        "interval": interval,
        "checkpoints": len(engine.coordinator.completed),
        "replayed": len(sink.results) - EVENTS,  # duplicate emissions = replayed work
        "counted": sum(per_key.values()),
        "staleness": report["staleness"],
    }


def run_alignment(mode):
    env = StreamExecutionEnvironment(
        EngineConfig(seed=18, checkpoints=CheckpointConfig(interval=0.1, mode=mode)),
        name="align",
    )
    sink = TransactionalSink("out") if mode is CheckpointMode.ALIGNED else CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=EVENTS, rate=RATE, key_count=32, seed=107))
        .key_by(field_selector("sensor"), parallelism=2)
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=2)
        .sink(sink, parallelism=1)
    )
    engine = env.build()

    def fail():
        engine.kill_task("count[0]")
        engine.recover_from_checkpoint()

    engine.kernel.call_at(FAIL_AT, fail)
    env.execute(until=60.0)
    results = sink.committed if isinstance(sink, TransactionalSink) else sink.results
    per_window: dict = {}
    duplicate_emissions = 0
    seen = set()
    for r in results:
        ident = (r.key, r.value)
        if ident in seen:
            duplicate_emissions += 1
        seen.add(ident)
        per_window[r.key] = max(per_window.get(r.key, 0), r.value)
    return {
        "mode": mode.value,
        "counted": sum(per_window.values()),
        "duplicates": duplicate_emissions,
    }


def run_all():
    intervals = [0.05, 0.2, 0.6]
    return (
        [run_interval(i) for i in intervals],
        [run_alignment(CheckpointMode.ALIGNED), run_alignment(CheckpointMode.UNALIGNED)],
    )


def test_ablation_checkpointing(benchmark):
    interval_rows, align_rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "A2a — checkpoint interval: overhead vs replay after one failure",
        ["interval (s)", "checkpoints taken", "checkpoint staleness at failure", "replayed emissions", "counted"],
        [
            [r["interval"], r["checkpoints"], fmt(r["staleness"], 3), r["replayed"], r["counted"]]
            for r in interval_rows
        ],
    )
    print_table(
        "A2b — barrier alignment mode (with transactional sink when aligned)",
        ["mode", "final counts", "duplicate emissions"],
        [[r["mode"], r["counted"], r["duplicates"]] for r in align_rows],
    )
    # Correctness is invariant; the trade moves.
    for r in interval_rows:
        assert r["counted"] == EVENTS
    # More frequent checkpoints → more of them, less replayed work.
    assert interval_rows[0]["checkpoints"] > interval_rows[-1]["checkpoints"]
    assert interval_rows[0]["replayed"] < interval_rows[-1]["replayed"]
    assert interval_rows[0]["staleness"] < interval_rows[-1]["staleness"]
    aligned, unaligned = align_rows
    assert aligned["counted"] == unaligned["counted"] == EVENTS
    # Exactly-once visible output vs at-least-once duplicates.
    assert aligned["duplicates"] == 0
    assert unaligned["duplicates"] > 0
