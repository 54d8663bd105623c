"""Rescaling × recovery: the interactions that wedge real systems.

Live migration rewires channels while the checkpoint coordinator, the
restore path, and the EOS protocol all hold references into the old layout.
These tests pin each interaction: in-flight checkpoints abort instead of
wedging, a global restore reconciles with rescales that happened after the
capture, retired subtasks stay retired through recovery, and the rescale
drain barrier actually holds EOS back until the group quiesces.
"""

from __future__ import annotations

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.load.migration import Rescaler
from repro.runtime.config import CheckpointConfig, EngineConfig


def build(parallelism=2, count=3000, rate=3000.0, interval=0.02, incremental=False,
          write_base_cost=5e-3):
    env = StreamExecutionEnvironment(
        EngineConfig(
            seed=4,
            default_channel_capacity=64,
            checkpoints=CheckpointConfig(
                interval=interval, incremental=incremental,
                write_base_cost=write_base_cost,
            ),
        ),
        name="rr",
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=rate, key_count=24, seed=41))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=parallelism, processing_cost=1e-4,
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


class GateUntil:
    """A stand-in rescale part that forwards nothing and holds every finish
    it is asked about until virtual time ``at``."""

    def __init__(self, engine, at):
        self.engine, self.at = engine, at

    def owner(self, task, key):
        return None

    def reroutes(self, task):
        return False

    def ready(self, task):
        return self.engine.kernel.now() >= self.at


def assert_conserved(sink, expected):
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    assert sum(per_key.values()) == expected, "records lost or duplicated"


class TestCheckpointAbortDuringRescale:
    def test_inflight_checkpoint_aborts_instead_of_wedging(self):
        # A long persist keeps a checkpoint pending when the rescale lands;
        # its barrier can never align across the rewired channel set, so the
        # rescaler must abort it — and the coordinator must keep going.
        env, sink = build(interval=0.05)
        engine = env.build()
        rescaler = Rescaler(engine)
        observed = {}

        def rescale_mid_checkpoint():
            # Inject the barriers ourselves so the round is deterministically
            # in flight (barriers not yet aligned) when the rescale lands.
            aborted_id = engine.trigger_checkpoint()
            observed["pending_before"] = engine.coordinator.pending is not None
            rescaler.rescale("count", 4)
            observed["aborted_id"] = aborted_id
            observed["pending_after"] = engine.coordinator.pending is not None

        engine.kernel.call_at(0.06, rescale_mid_checkpoint)
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 3000)
        assert observed["pending_before"], "test did not catch a checkpoint in flight"
        assert not observed["pending_after"]
        # The aborted round never completed; later rounds did.
        assert observed["aborted_id"] not in engine.coordinator.completed
        assert any(c > (observed["aborted_id"] or 0) for c in engine.coordinator.completed)


class TestRestoreAfterRescale:
    def test_global_restore_reconciles_scale_out(self):
        # Kill after a scale-out: the checkpoint restored from was captured
        # under the old layout, so redistribute_after_restore must move the
        # restored keys to their new owners before processing resumes.
        env, sink = build()
        engine = env.build()
        rescaler = Rescaler(engine)
        engine.kernel.call_at(0.05, lambda: rescaler.rescale("count", 4))

        def kill():
            engine.kill_task("count[1]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.3, kill)
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 3000)
        assert len(engine.tasks_of("count")) == 4

    def test_global_restore_reconciles_scale_in(self):
        # Kill after a scale-in: the snapshots of retired subtasks are
        # orphaned; recovery must revive the retired tasks as finished (not
        # running) and hand their restored keys to the survivor.
        env, sink = build(parallelism=3)
        engine = env.build()
        rescaler = Rescaler(engine)
        engine.kernel.call_at(0.05, lambda: rescaler.rescale("count", 1))

        def kill():
            engine.kill_task("count[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.3, kill)
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 3000)
        node_id = engine.graph.node_by_name("count").node_id
        retired = engine.node_tasks[node_id][1:]
        assert all(t.finished and not t.dead for t in retired)

    def test_restore_with_delta_chains_after_rescale(self):
        # Same reconciliation with incremental checkpoints: the restore
        # replays base+delta chains into a layout the capture never saw.
        env, sink = build(incremental=True)
        engine = env.build()
        rescaler = Rescaler(engine)
        engine.kernel.call_at(0.05, lambda: rescaler.rescale("count", 3))

        def kill():
            engine.kill_task("count[2]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.3, kill)
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 3000)


class TestDrainBarrier:
    def test_group_ready_predicate_holds_eos_back(self):
        # Install a barrier that stays closed until t=1.0 on every count
        # subtask: the job cannot finish before the predicate opens, proving
        # EOS is actually held (and the probe loop re-checks, not deadlocks).
        env, sink = build(count=500, rate=5000.0)
        engine = env.build()

        def install():
            for task in engine.tasks_of("count"):
                task.rescale_state = GateUntil(engine, 1.0)

        engine.kernel.call_at(0.01, install)
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 500)
        finished_at = max(
            t.metrics.finished_at or 0.0 for t in engine.tasks_of("count")
        )
        assert finished_at >= 1.0, "EOS was not held until the group was ready"

    def test_open_predicate_does_not_delay_finish(self):
        env, sink = build(count=500, rate=5000.0)
        engine = env.build()

        def install():
            for task in engine.tasks_of("count"):
                task.rescale_state = GateUntil(engine, 0.0)

        engine.kernel.call_at(0.01, install)
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 500)
        finished_at = max(
            t.metrics.finished_at or 0.0 for t in engine.tasks_of("count")
        )
        assert finished_at < 1.0

    def test_quiescence_accounts_for_mailbox_and_alignment(self):
        engine = build()[0].build()
        task = engine.tasks_of("count")[0]
        # Fresh task: EOS not seen on its inputs yet.
        assert not task.drained
        task.finished = True
        assert task.drained
        task.finished = False
        task.dead = True
        assert task.drained


class TestChannelAccounting:
    def test_no_in_flight_leaks_after_a_rescaled_run(self):
        # The drain barrier trusts PhysicalChannel.pending; if the counter
        # leaked (schedule without deliver, or double-decrement) rescaled
        # jobs would hang or finish early. After any completed run every
        # channel must be fully drained.
        env, sink = build()
        engine = env.build()
        rescaler = Rescaler(engine)
        engine.kernel.call_at(0.05, lambda: rescaler.rescale("count", 4))
        engine.kernel.call_at(0.25, lambda: rescaler.rescale("count", 2))
        result = env.execute(until=30.0)
        assert result.finished
        assert_conserved(sink, 3000)
        for channel in engine.iter_physical_channels():
            assert channel.pending == 0, f"{channel} still has bytes in flight"
        for links in engine.rescale_state.retired.values():
            for channel in links:
                assert channel.pending == 0
