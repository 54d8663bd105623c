"""Incremental checkpoints with change tracking native to the backend.

Each backend records its own writes and deletes; the snapshotter only reads
that record at a capture. The run below (a running count and a sliding
window over keyed sensor data, incremental checkpoints, two tasks killed in
turn and the job recovered from its chains each time) must be
indistinguishable from the one recorded when a wrapper in front of every
``get``/``put`` did the tracking: the same committed rows, the same
per-capture volumes and the same state access counts, on every backend."""

import hashlib

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import TransactionalSink
from repro.io.sources import SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.runtime.task import Task
from repro.state import (
    Changelog,
    ChangelogStateBackend,
    InMemoryStateBackend,
    LSMStateBackend,
    PersistentMemoryBackend,
)
from repro.windows.assigners import SlidingEventTimeWindows


def _factories(clock):
    return {
        "memory": InMemoryStateBackend,
        "memory-with-clock": lambda: InMemoryStateBackend(clock=clock),
        "lsm": lambda: LSMStateBackend(memtable_limit=16, compaction_fanout=3),
        "persistent-memory": PersistentMemoryBackend,
        "changelog": lambda: ChangelogStateBackend(InMemoryStateBackend(), Changelog()),
    }


_STATEFUL = ("count[0]", "count[1]", "win[0]", "win[1]")


def _digest(rows) -> str:
    return hashlib.sha256(repr(sorted(rows, key=repr)).encode()).hexdigest()[:16]


def observe(backend_name, monkeypatch):
    """Run the pipeline on one backend; everything a capture could move.
    Every capture is checked to leave the backend's access counts alone."""
    engine = None
    factory = _factories(lambda: engine.kernel.now())[backend_name]
    config = EngineConfig(
        state_backend_factory=factory,
        checkpoints=CheckpointConfig(interval=0.05, incremental=True, max_chain_length=3),
    )
    env = StreamExecutionEnvironment(config, name="t")
    keyed = env.from_workload(
        SensorWorkload(count=800, rate=2000.0, key_count=300, disorder=0.005, seed=7),
        name="src",
        watermarks=BoundedOutOfOrderness(0.01),
    ).key_by(field_selector("sensor"), parallelism=2)
    running, windows = TransactionalSink("running"), TransactionalSink("win")
    keyed.aggregate(
        create=lambda: 0, add=lambda acc, _v: acc + 1, name="count", parallelism=2
    ).sink(running, parallelism=1)
    keyed.window(SlidingEventTimeWindows(0.0625, 0.03125)).aggregate(
        create=lambda: 0, add=lambda acc, _v: acc + 1, merge=lambda a, b: a + b,
        name="win", parallelism=2,
    ).sink(windows, parallelism=1)
    engine = env.build()

    captures = {}
    on_task_snapshot = engine.on_task_snapshot

    def record_capture(task, snapshot, source=False):
        if task.name in _STATEFUL:
            delta = snapshot.delta
            captures.setdefault(task.name, []).append((delta.entry_count(), delta.size_bytes()))
        on_task_snapshot(task, snapshot, source)

    engine.on_task_snapshot = record_capture
    take_snapshot = Task.take_snapshot

    def stats_untouched(task, checkpoint_id):
        stats = task.state_backend.stats
        before = (stats.reads, stats.writes)
        snapshot = take_snapshot(task, checkpoint_id)
        assert (stats.reads, stats.writes) == before, f"{task.name}: a capture counted an access"
        return snapshot

    monkeypatch.setattr(Task, "take_snapshot", stats_untouched)

    def fail(task_name):
        engine.kill_task(task_name)
        engine.recover_from_checkpoint()

    engine.kernel.call_at(0.17, lambda: fail("win[0]"))
    engine.kernel.call_at(0.27, lambda: fail("count[1]"))
    env.execute(until=30.0)
    rows = {
        name: [(r.key, r.value, r.event_time, r.emitted_at) for r in sink.committed]
        for name, sink in (("running", running), ("win", windows))
    }
    return {
        "rows": {name: (len(rs), _digest(rs)) for name, rs in rows.items()},
        "captures": captures,
        "access": {
            name: (task.metrics.state_reads, task.metrics.state_writes)
            for name, task in engine.tasks.items()
            if name in _STATEFUL
        },
    }


#: recorded when the tracking still sat in a wrapper in front of the backend
#: (per capture, task by task: entry_count, size_bytes)
CAPTURES = {
    "count[0]": [
        (37, 777), (51, 1071), (44, 924), (104, 2184), (35, 735), (118, 2478), (45, 945), (40, 840),
    ],
    "count[1]": [
        (49, 1029), (48, 1008), (46, 966), (117, 2457), (49, 1029), (131, 2751), (44, 924),
        (50, 1050),
    ],
    "win[0]": [
        (37, 7976), (61, 13451), (85, 16679), (96, 21987), (103, 13509), (73, 16584), (94, 13087),
        (81, 13805),
    ],
    "win[1]": [
        (49, 10602), (69, 14513), (92, 16800), (101, 23452), (116, 16993), (90, 20445),
        (110, 14436), (89, 15308),
    ],
}
#: a backend that survives the kill is restored in place: the capture after
#: each recovery carries every entry the restore rewrote
CAPTURES_SURVIVING = {
    "count[0]": [
        (37, 777), (51, 1071), (44, 924), (104, 2184), (35, 735), (118, 2478), (126, 2646),
        (40, 840),
    ],
    "count[1]": [
        (49, 1029), (48, 1008), (46, 966), (117, 2457), (49, 1029), (131, 2751), (137, 2877),
        (50, 1050),
    ],
    "win[0]": [
        (37, 7976), (61, 13451), (85, 16679), (96, 21987), (103, 13509), (111, 17648),
        (61, 12163), (81, 13805),
    ],
    "win[1]": [
        (49, 10602), (69, 14513), (92, 16800), (101, 23452), (116, 16993), (125, 21425),
        (69, 13288), (89, 15308),
    ],
}
ACCESS = {
    "count[0]": (418, 418), "count[1]": (468, 468), "win[0]": (3862, 1566), "win[1]": (4326, 1754),
}
#: committed rows per sink: (count, digest); virtual timing differs by backend
ROWS = {
    "changelog": {"running": (800, "5bf17c5f23314003"), "win": (1315, "5d58879edae4f3de")},
    "lsm": {"running": (800, "600b8fe75340a4fb"), "win": (1315, "ad29576cf1905d76")},
    "memory": {"running": (800, "05b27488eabeddd0"), "win": (1315, "30e4e1d6cf2844c9")},
    "memory-with-clock": {"running": (800, "05b27488eabeddd0"), "win": (1315, "30e4e1d6cf2844c9")},
    "persistent-memory": {"running": (800, "cbc6d8503bfbef06"), "win": (1315, "fa1a6886fb19308f")},
}


@pytest.mark.parametrize("backend_name", sorted(ROWS))
def test_native_tracking_reproduces_the_wrapper_run(backend_name, monkeypatch):
    observed = observe(backend_name, monkeypatch)
    assert observed["rows"] == ROWS[backend_name]
    assert observed["access"] == ACCESS
    surviving = backend_name == "persistent-memory"
    assert observed["captures"] == (CAPTURES_SURVIVING if surviving else CAPTURES)
