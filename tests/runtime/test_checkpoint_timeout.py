"""Checkpoint timeout: a lost barrier must not wedge the coordinator or
leave aligned tasks blocked forever."""

from __future__ import annotations

from repro.chaos.faults import ChannelFaultHook
from repro.chaos.schedule import BARRIER_LOSS, FaultSpec
from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig


def build_fan_in(timeout):
    """Two sources into an aligned 2-input union; barrier loss on one leg."""
    config = EngineConfig(
        seed=11, checkpoints=CheckpointConfig(interval=0.02, timeout=timeout)
    )
    env = StreamExecutionEnvironment(config, name="cp-timeout")
    sink = CollectSink("out")
    left = env.from_workload(CollectionWorkload(list(range(300)), rate=2000.0), name="left")
    right = env.from_workload(
        CollectionWorkload(list(range(1000, 1300)), rate=2000.0), name="right"
    )
    left.union(right, name="merge", parallelism=1).sink(sink, name="out")
    engine = env.build()
    victim = next(
        ch
        for ch in engine.plan.channels()
        if ch.sender is not None and ch.sender.name == "left[0]"
    )
    hook = ChannelFaultHook(engine.kernel, lambda kind, detail: None)
    hook.add(FaultSpec(kind=BARRIER_LOSS, target="left[0]->merge[0]", at=0.015))
    victim.fault_hook = hook
    return engine, sink


def test_lost_barrier_without_timeout_wedges_the_job():
    engine, sink = build_fan_in(timeout=None)
    engine.run(until=2.0)
    # cp1 (t=0.02) loses its barrier on the left leg: merge[0] blocks its
    # right input forever and the coordinator never triggers cp2.
    assert not engine.job_finished
    assert len(engine.coordinator.completed) == 0
    assert len(sink.results) < 600


def test_timeout_aborts_wedged_checkpoint_and_releases_alignment():
    engine, sink = build_fan_in(timeout=0.03)
    engine.run(until=2.0)
    assert engine.job_finished
    assert len(sink.results) == 600
    # The lost-barrier checkpoint never completed, later rounds did.
    assert 1 not in engine.coordinator.completed
    assert engine.coordinator.completed  # coordinator kept going
    assert 1 not in engine.checkpoints  # aborted record dropped


def test_abort_is_noop_for_completed_checkpoints():
    config = EngineConfig(seed=3, checkpoints=CheckpointConfig(interval=0.02, timeout=0.5))
    env = StreamExecutionEnvironment(config, name="cp-noop")
    sink = CollectSink("out")
    env.from_workload(CollectionWorkload(list(range(100)), rate=2000.0), name="src").sink(
        sink, name="out"
    )
    engine = env.build()
    engine.run(until=2.0)
    assert engine.job_finished
    completed = list(engine.coordinator.completed)
    assert completed
    record = engine.checkpoints[completed[0]]
    engine.abort_inflight_checkpoint(record.checkpoint_id)
    assert completed[0] in engine.checkpoints


def test_trigger_declines_while_a_task_is_dead():
    engine, _sink = build_fan_in(timeout=0.03)
    engine.start()
    engine.kernel.run(until=0.01)
    engine.tasks["merge[0]"].kill()
    assert engine.trigger_checkpoint() is None
