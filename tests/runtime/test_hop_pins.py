"""Pins of the per-record hop across the task shapes it can take mid-run.

Each case runs a small job in which one task changes shape while records
flow: a reroute installed by a live rescale, key-group counting switched on,
trace-sampled records, profiling, a suspend/resume, output blocked by credit
exhaustion and then unblocked, and an upstream-backup tap installed on a
running task. Every case pins what the hop decides and charges: the sink
rows with every field (``emitted_at`` included), the kernel event count,
per-task ``records_in``/``records_out``/``busy_time``/``state_reads``/
``state_writes`` and the profiler's flame graph, plus what the shape change
itself observes (key-group counts, spans, retained records). ``blocked_time``
is left out (``tests/runtime/test_task_mechanics.py`` checks it). A change
to the record, flush or source emission body that moves any decision,
charge or timestamp fails a case here.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.graph import ChannelSpec
from repro.core.keys import DEFAULT_MAX_PARALLELISM, field_selector
from repro.fault.upstream import UpstreamBackup
from repro.io import CollectSink, SensorWorkload
from repro.load.migration import RescaleState, Rescaler
from repro.runtime.config import EngineConfig
from repro.state.lsm import LSMStateBackend


def _job(count=600, rate=4000.0, cost=None, **config):
    """source -> map -> key_by (2) -> keyed count (2) -> sink. The count's
    state backend charges state latency, and its input links are slow, so a
    live rescale finds records in flight to reroute."""
    env = StreamExecutionEnvironment(
        EngineConfig(seed=3, state_backend_factory=LSMStateBackend, **config)
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=rate, key_count=16, seed=7))
        .map(lambda v: v, name="map")
        .key_by(field_selector("sensor"), parallelism=2)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=2, processing_cost=cost, channel=ChannelSpec(latency=5e-3),
        )
        .sink(sink, parallelism=1)
    )
    engine = env.build()
    return env, engine, sink


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _observe(engine, sink, extra=None) -> dict:
    rows = [
        (r.value, r.event_time, r.emitted_at, r.ingest_time, r.key, r.sign) for r in sink.results
    ]
    tasks = [
        (
            name, t.metrics.records_in, t.metrics.records_out, t.metrics.busy_time,
            t.metrics.state_reads, t.metrics.state_writes,
        )
        for name, t in sorted(engine.tasks.items())
    ]
    return {
        "events": engine.kernel.dispatched_events,
        "rows": (len(rows), _digest(rows)),
        "tasks": _digest(tasks),
        "flame": _digest(sorted(engine.obs.profiler.flame().items())),
        "extra": _digest(extra),
    }


def case_rescale_reroute():
    env, engine, sink = _job()
    rescaler = Rescaler(engine)
    engine.kernel.call_at(0.05, lambda: rescaler.rescale("count", 3))
    env.execute(until=30.0)
    assert len(engine.plan.subtasks("count")) == 3
    return _observe(engine, sink)


def case_keygroup_tracking():
    env, engine, sink = _job()
    tasks = engine.plan.subtasks("count")

    def switch_on():
        for task in tasks:
            task.enable_keygroup_tracking(DEFAULT_MAX_PARALLELISM)

    engine.kernel.call_at(0.05, switch_on)
    env.execute(until=30.0)
    counts = [sorted(task._keygroup_counts.items()) for task in tasks]
    assert all(counts)
    return _observe(engine, sink, counts)


def case_traced_records():
    env, engine, sink = _job(trace_sample_rate=0.05)
    env.execute(until=30.0)
    spans = [
        (s.span_id, s.trace_id, s.parent_id, s.operator, s.enter, s.exit)
        for s in engine.obs.tracer.spans
    ]
    assert any(operator.startswith("count") for _, _, _, operator, _, _ in spans)
    return _observe(engine, sink, spans)


def case_profiled():
    env, engine, sink = _job(profiling_enabled=True)
    env.execute(until=30.0)
    assert engine.obs.profiler.flame("count")
    return _observe(engine, sink)


def case_suspend_resume():
    env, engine, sink = _job()
    task = engine.plan.subtasks("count")[0]
    engine.kernel.call_at(0.04, task.suspend)
    engine.kernel.call_at(0.06, task.resume_processing)
    env.execute(until=30.0)
    return _observe(engine, sink)


def case_output_blocked():
    env, engine, sink = _job(cost=1e-3, default_channel_capacity=4)
    env.execute(until=30.0)
    blocked = [engine.tasks[name].metrics.blocked_time > 0 for name in sorted(engine.tasks)]
    assert any(blocked)
    return _observe(engine, sink, blocked)


def case_upstream_tap():
    env, engine, sink = _job()
    backups = []
    engine.kernel.call_at(
        0.05, lambda: backups.append(UpstreamBackup(engine, "map[0]", "count[0]", retention=0.05))
    )
    env.execute(until=30.0)
    assert backups[0].retained_count + backups[0].trimmed > 0
    return _observe(engine, sink, (backups[0].retained_count, backups[0].trimmed))


CASES = {
    "rescale-reroute": case_rescale_reroute,
    "keygroup-tracking": case_keygroup_tracking,
    "traced-records": case_traced_records,
    "profiled": case_profiled,
    "suspend-resume": case_suspend_resume,
    "output-blocked": case_output_blocked,
    "upstream-tap": case_upstream_tap,
}

PINS = {
    "keygroup-tracking": {
        "events": 4844, "rows": (600, "5ae215abc0bb4cd9"),
        "tasks": "c5f4c75124264e2d", "flame": "4f53cda18c2baa0c", "extra": "0333428b8dd611e9",
    },
    "output-blocked": {
        "events": 5135, "rows": (600, "a36e26b9f1c13d1f"),
        "tasks": "7688cff384b8ae1e", "flame": "4f53cda18c2baa0c", "extra": "ec7ae145c0fc34ff",
    },
    "profiled": {
        "events": 4843, "rows": (600, "5ae215abc0bb4cd9"),
        "tasks": "c5f4c75124264e2d", "flame": "14702faf0c61dfb6", "extra": "dc937b59892604f5",
    },
    "rescale-reroute": {
        "events": 4895, "rows": (600, "b0b3226ec17473ec"),
        "tasks": "6e2983d66d22fb51", "flame": "4f53cda18c2baa0c", "extra": "dc937b59892604f5",
    },
    "suspend-resume": {
        "events": 4846, "rows": (600, "ccf01bfb0a0242c8"),
        "tasks": "c5f4c75124264e2d", "flame": "4f53cda18c2baa0c", "extra": "dc937b59892604f5",
    },
    "traced-records": {
        "events": 4843, "rows": (600, "5ae215abc0bb4cd9"),
        "tasks": "c5f4c75124264e2d", "flame": "4f53cda18c2baa0c", "extra": "06895da7a272225f",
    },
    "upstream-tap": {
        "events": 4847, "rows": (600, "5ae215abc0bb4cd9"),
        "tasks": "c5f4c75124264e2d", "flame": "4f53cda18c2baa0c", "extra": "6286a9d61195a814",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hop_matches_pin(name):
    assert CASES[name]() == PINS[name]


def test_rescale_receivers_call_no_owner(monkeypatch):
    """Only the rescaled node's own tasks can hold a record whose key moved:
    a task that merely receives from it (the sink) serves its records
    without asking ``RescaleState.owner``, to the end of the job."""
    calls = Counter()
    owner = RescaleState.owner

    def counted(self, task, key):
        calls[task.name] += 1
        return owner(self, task, key)

    monkeypatch.setattr(RescaleState, "owner", counted)
    env, engine, sink = _job(count=3000)
    rescaler = Rescaler(engine)
    engine.kernel.call_at(0.05, lambda: rescaler.rescale("count", 3))
    env.execute(until=30.0)
    members = {task.name for task in engine.plan.subtasks("count")}
    assert calls and set(calls) <= members
    assert engine.tasks["out[0]"].rescale_state is not None  # it still gates its finish
    assert _observe(engine, sink) == {
        "events": 24226, "rows": (3000, "f4902d5f69e75b75"),
        "tasks": "4f6b2820a6d99cd5", "flame": "4f53cda18c2baa0c", "extra": "dc937b59892604f5",
    }
