"""E4 — §3.1: internally vs externally managed state.

The same keyed-counter pipeline runs over four backends; mid-run a task is
killed and recovered. Internal state (heap, LSM) gives the fastest access
but must be restored from snapshots; external state (remote store, NVRAM)
pays per-access latency but survives the failure with nothing to restore.

Expected shape: access-latency ranking heap < LSM < NVRAM < remote;
recovery-restore ranking inverted (external backends restore ~nothing).
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.state import (
    ExternalStateBackend,
    InMemoryStateBackend,
    LSMStateBackend,
    PersistentMemoryBackend,
    RemoteStore,
)

EVENTS = 3000
RATE = 6000.0


def run_backend(name, factory):
    env = StreamExecutionEnvironment(
        # Flow control keeps queues bounded so checkpoint barriers reach the
        # slower backends promptly instead of trailing an unbounded backlog.
        EngineConfig(seed=3, checkpoints=CheckpointConfig(interval=0.1), default_channel_capacity=64),
        name=name,
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=EVENTS, rate=RATE, key_count=64, seed=33))
        .key_by(field_selector("sensor"))
        .aggregate(
            create=lambda: 0,
            add=lambda acc, _v: acc + 1,
            name="count",
            state_backend_factory=factory,
        )
        .sink(sink)
    )
    engine = env.build()
    report = {}

    def fail():
        task = engine.tasks["count[0]"]
        survives = task.state_backend.survives_task_failure
        report["survives"] = survives
        snapshot = task.last_snapshot
        report["restore_bytes"] = (
            0 if survives or snapshot is None else snapshot.size_bytes()
        )
        engine.kill_task("count[0]")
        if survives:
            # Externally-managed state: nothing to restore and — crucially —
            # replaying the source would DOUBLE-count against the surviving
            # counters (the reason MillWheel paired external state with
            # idempotent per-record writes). Resume without rewind instead.
            engine.recover_without_replay()
        else:
            engine.recover_from_checkpoint()

    engine.kernel.call_at(0.25, fail)
    env.execute(until=60.0)
    task = engine.tasks["count[0]"]
    metrics = engine.metrics.tasks["count[0]"]
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    busy_per_record = metrics.busy_time / max(1, metrics.records_in)
    return {
        "backend": name,
        "access_cost": busy_per_record,
        "survives": report["survives"],
        "restore_bytes": report["restore_bytes"],
        "counted": sum(per_key.values()),
        "duration": engine.now(),
    }


def run_all():
    store = RemoteStore(read_latency=1e-3, write_latency=1e-3)
    nvram_devices = {}

    def nvram_factory():
        # The "device" persists across task incarnations on the same slot.
        return nvram_devices.setdefault("dev", PersistentMemoryBackend())

    return [
        run_backend("heap", InMemoryStateBackend),
        run_backend("lsm", lambda: LSMStateBackend(memtable_limit=256)),
        run_backend("nvram", nvram_factory),
        run_backend("remote-kv", lambda: ExternalStateBackend(store)),
    ]


def test_state_backends(benchmark):
    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E4 — state management styles under one failure",
        ["backend", "virtual cost/record", "survives failure", "restore bytes", "counted", "run(s)"],
        [
            [r["backend"], fmt(r["access_cost"] * 1e6, 1) + "us", r["survives"],
             r["restore_bytes"], r["counted"], fmt(r["duration"], 2)]
            for r in reports
        ],
    )
    by_name = {r["backend"]: r for r in reports}
    # Access-cost ranking: internal memory fastest, remote KV slowest.
    assert by_name["heap"]["access_cost"] < by_name["lsm"]["access_cost"]
    assert by_name["lsm"]["access_cost"] < by_name["remote-kv"]["access_cost"]
    assert by_name["nvram"]["access_cost"] < by_name["remote-kv"]["access_cost"]
    # Recovery: internal backends restore bytes; external ones restore none.
    assert by_name["heap"]["restore_bytes"] > 0
    assert by_name["lsm"]["restore_bytes"] > 0
    assert by_name["nvram"]["restore_bytes"] == 0
    assert by_name["remote-kv"]["restore_bytes"] == 0
    # Internal backends + replay recover exactly; external backends resume
    # without rewind (replay would double-count) and may lose only the
    # handful of records in flight during the outage.
    for name in ("heap", "lsm"):
        assert by_name[name]["counted"] == EVENTS, name
    for name in ("nvram", "remote-kv"):
        assert EVENTS - 100 <= by_name[name]["counted"] <= EVENTS, name
