"""When a completion event exists (DESIGN, "The dispatch path itself").

An item that buffered no output, holds no credit and leaves the mailbox empty
is busy until ``started + cost`` without a kernel event standing for it. Every
digest and event count pinned below was recorded at the commit before the
elision (one completion event per item, always): virtual time must not move.
"""

import hashlib

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.events import Record
from repro.core.graph import ChannelSpec
from repro.io import CollectSink, CollectionWorkload, SensorWorkload
from repro.load.migration import RescaleState
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.sim.kernel import PeriodicTimer
from repro.txn.store import TxnStateStore

#: dyadic, so every sum below is exact and same-instant ties are the norm
U = 2.0**-11
GAP, LATENCY, SINK_COST = 8 * U, 2 * U, 4 * U


def _digest(engine, *sinks, extra=()):
    """sha256 over the ordered (sink, value, emitted_at) rows plus every
    task's busy_time (and whatever else a test adds)."""
    hasher = hashlib.sha256(repr(extra).encode())
    for sink in sinks:
        for row in sink.results:
            hasher.update(repr((sink.name, row.value, row.emitted_at)).encode())
    for name in sorted(engine.tasks):
        hasher.update(repr((name, engine.tasks[name].metrics.busy_time)).encode())
    return hasher.hexdigest()


def _dyadic_channels(env):
    """Every edge gets an exactly representable latency and no jitter."""
    for edge in env.graph.edges:
        edge.channel = ChannelSpec(latency=LATENCY)


def _fanout_job():
    """One source, three filter heads, no jitter: the heads are delivered to
    at the same instants, and two of three inputs emit nothing."""
    env = StreamExecutionEnvironment(EngineConfig())
    source = env.from_workload(CollectionWorkload(list(range(300)), rate=2000.0), name="src")
    sinks = []
    for modulus in (2, 3, 5):
        sink = CollectSink(f"out{modulus}")
        source.filter(lambda v, m=modulus: v % m == 0, name=f"mod{modulus}").sink(sink)
        sinks.append(sink)
    return env, sinks


def _saturated_job(capacity=None):
    """One task at over 90 % utilisation under Poisson arrivals: most
    deliveries land inside the previous item's busy interval."""
    env = StreamExecutionEnvironment(EngineConfig(default_channel_capacity=capacity))
    sink = CollectSink("out")
    env.from_workload(SensorWorkload(count=600, rate=960.0, seed=5), name="src").sink(
        sink, processing_cost=1e-3
    )
    return env, sink


def _completions(task):
    """Virtual times at which ``task``'s completion events fire from now on."""
    fired, complete = [], task._complete

    def counted(via, incarnation):
        fired.append(task.kernel.now())
        complete(via, incarnation)

    task._complete = counted
    return fired


def _inputs(task):
    """Mailbox items of a finished task: records, watermarks (the final one
    included), end-of-stream."""
    return task.metrics.records_in + task.metrics.watermarks_in + 1


def _run(env, *sinks):
    engine = env.build()
    env.execute()
    return engine, _digest(engine, *sinks)


class TestVirtualTimeDoesNotMove:
    def test_jitter_free_fanout(self):
        env, sinks = _fanout_job()
        engine, digest = _run(env, *sinks)
        assert [len(s.results) for s in sinks] == [150, 100, 60]
        # a finished job ends on its last end-of-stream: the clock stops there
        assert engine.kernel.now() == 0.15022000000000008
        assert digest == "1dd5f408c4cd7ea36b25efd6131b1e637f8041ad281bb7bf2583d3d0a12c4670"

    def test_saturated_task_completes_late(self):
        env, sink = _saturated_job()
        engine, digest = _run(env, sink)
        assert engine.tasks["out[0]"].metrics.busy_time / engine.kernel.now() >= 0.9
        assert engine.kernel.now() == 0.6662595539448075
        assert digest == "9e34fe7519f97bd9ccb0f25a068c5d0d865bf5cf85b521749b85e27ebe3fff50"

    def test_credit_bounded_items_keep_their_completion_event(self):
        """The credit returns at completion time, so nothing is elided: the
        parent's event count exactly."""
        env, sink = _saturated_job(capacity=4)
        engine = env.build()
        task = engine.tasks["out[0]"]
        fired = _completions(task)
        env.execute()
        assert _digest(engine, sink) == "6d02c86d37a55d6026afbeda242dfc3eff1396f67ac30c34ce4ccb830ece586a"
        assert len(fired) == _inputs(task) == 602
        assert engine.kernel.dispatched_events == 1804


class TestLateCompletion:
    def test_saturated_task_schedules_the_elided_completion_when_needed(self):
        """At 90 % utilisation most arrivals land inside the busy interval of
        an item whose completion was elided: it is scheduled then, for the
        same virtual time (test_saturated_task_completes_late pins every
        ``emitted_at``). The other two shapes of the event budget are in
        test_task_mechanics."""
        env, _sink = _saturated_job()
        engine = env.build()
        task = engine.tasks["out[0]"]
        fired = _completions(task)
        env.execute()
        # 60 of 602 inputs found the task idle and left it idle: no event
        assert len(fired) == 542
        # 1804 with a completion per item, 1744 without the 60; the source's
        # last record, watermark and end-of-stream leave in one flush and
        # travel as one delivery event, not three: 1742
        assert engine.kernel.dispatched_events == 1804 - 60 - 2 == 1742

    def test_unfinished_job_without_a_horizon_stops_at_its_last_event(self):
        """Where the clock stops: ``run()`` returns when the queue is empty,
        and an elided completion is no longer in it. A job that finishes
        ends on an end-of-stream either way; one that cannot (its source
        killed, no ``until``) used to return at the sink's last completion,
        0.0061, and now returns at the last event, the voided emission
        timer — up to one processing cost earlier."""
        env = StreamExecutionEnvironment(EngineConfig())
        sink = CollectSink("out")
        env.from_workload(CollectionWorkload(list(range(10)), rate=1000.0), name="src").sink(
            sink, processing_cost=1e-3
        )
        engine = env.build()
        engine.kernel.call_at(0.0052, engine.kill_task, "src[0]")
        result = env.execute()
        assert not result.finished
        assert [r.emitted_at for r in sink.results][-1] == 0.0051
        assert engine.tasks["out[0]"].metrics.busy_time == 0.005
        assert result.duration == 0.006


class TestWhoKeepsTheEvent:
    """Exclusions from the elision rule (credits: see the flow-control
    fixture above)."""

    def test_transactional_task_never_elides(self):
        """Its next txn must not begin ahead of a sibling's same-instant
        commit: every input keeps the completion event. The body returns
        None, so there is never an output that would keep it anyway."""
        env = StreamExecutionEnvironment(EngineConfig())
        store = TxnStateStore("counts", partitions=2)
        env.from_workload(CollectionWorkload(list(range(40)), rate=500.0), name="src").transact(
            lambda handle, v: handle.write(v % 4, handle.read(v % 4, 0) + 1),
            keys_fn=lambda v: [v % 4],
            store=store,
            name="txn",
        ).sink(CollectSink("out"))
        engine = env.build()
        task = engine.tasks["txn[0]"]
        fired = _completions(task)
        env.execute()
        assert store.committed == 40
        assert len(fired) == _inputs(task) == 42

    def test_reopened_task_keeps_the_event_that_finishes_it_again(self):
        env = StreamExecutionEnvironment(EngineConfig())
        sink = CollectSink("out")
        env.from_workload(CollectionWorkload([1, 2, 3], rate=1000.0), name="src").sink(sink)
        engine = env.build()
        env.execute()
        task = engine.tasks["out[0]"]
        finished_at = task.metrics.finished_at
        assert task.finished
        # a live-migration straggler reaches the owner after it finished
        RescaleState.of(engine).gate("out")
        fired = _completions(task)
        engine.kernel.call_at(1.0, task.enqueue_local, Record(4, key="k"))
        engine.kernel.run()
        assert sink.values() == [1, 2, 3, 4]
        assert fired == [1.0 + task.processing_cost]
        # a rescaled node's task finishes on the group drain probe, 2 ms on
        assert task.finished and task.metrics.finished_at == fired[0] + 0.002 > finished_at


def _control_job(offset_cost, **config):
    """Sources ``a`` and ``b`` feed one sink of cost 4u through a union. An
    ``a`` record reaches the sink at t and is busy through t + 4u; its ``b``
    twin follows ``offset_cost + 2u`` later: strictly inside that interval
    for 1u, at exactly ``busy_until`` for 2u."""
    env = StreamExecutionEnvironment(EngineConfig(**config))
    a = env.from_workload(CollectionWorkload(list(range(48)), rate=1 / GAP), name="a")
    b = env.from_workload(CollectionWorkload(list(range(100, 148)), rate=1 / GAP), name="b")
    sink = CollectSink("out")
    a.union(b.map(lambda v: v, name="delay", processing_cost=offset_cost)).sink(
        sink, processing_cost=SINK_COST
    )
    _dyadic_channels(env)
    return env, sink


def _build_sampled(env):
    """Build the engine and read the sink's mailbox size every u until the
    job ends: the samples land on both instants, every item."""
    engine = env.build()
    task, samples = engine.tasks["out[0]"], []
    timer = PeriodicTimer(
        engine.kernel, U, lambda: samples.append((engine.now(), task.mailbox_size))
    )
    engine.on_finish_callbacks.append(lambda _engine: timer.cancel())
    return engine, samples


#: the sink is delivered record 8 of ``a`` here, and is busy through +4u
T8 = 9 * GAP + 2 * LATENCY
CONTROL_PINS = {
    "samples-1u": "71c4d0a6c2943d5d459d73c49df7147d9c362475f5e08e16b130e867eb015888",
    "suspend@1u-1u": "71ffa23a2f8ff4245f276f2c428a4156473eb27f04f371f91508d26386c56ed4",
    "kill@1u-1u": "4890c6ef6e20c0080f2bb3a1d589af52d2a31207a82636e94211575256b1c1b7",
    "suspend@4u-1u": "4f67fa6ac30b463578f10b86dcf621325e29682fc25145338789fdf2f9a53034",
    "kill@4u-1u": "59430320f5f5848932ea9ea4dab40879e3bf7e532d3f3f9076462fc136533763",
    "barrier@3u-1u": "092a74a7a0f1f37c66b391b2d6c7205853c9fa872ee673daff776925e7ba3dfc",
    "barrier@4u-1u": "092a74a7a0f1f37c66b391b2d6c7205853c9fa872ee673daff776925e7ba3dfc",
    "samples-2u": "f9925497b09515f086f044723a82f54a8795677505f4b073ff8f964238586938",
    "suspend@1u-2u": "81a08c7ee7bdef1ca5c8810f0137d6ef9dd281a6dccd4c3d78ca03bfaa7b2866",
    "kill@1u-2u": "eeff0b8035235c4c87ffd55fe122f4ec2f61199352f8a453fd6d4c8bbbbde79b",
    "suspend@4u-2u": "b639ebbee52819a897fa44b6fe439c8b66479e1416fda5034ce009074717e7ff",
    "kill@4u-2u": "81780ac03315cf46e917b179b2cf411f2de500c04f779d4e25365b5217dd4f46",
    "barrier@3u-2u": "cd5f873bfe2549a02782877edb4e5a9f95ca4e2c2913415dd60669691e749fab",
    "barrier@4u-2u": "cd5f873bfe2549a02782877edb4e5a9f95ca4e2c2913415dd60669691e749fab",
}


@pytest.mark.parametrize("offset_cost", [1 * U, 2 * U], ids=["inside", "at-busy-until"])
class TestSameInstantControl:
    """kill, suspend / resume, a barrier and a mailbox sample against an
    elided interval — strictly inside it and at exactly ``busy_until``."""

    def _check(self, name, offset_cost, engine, sink, *extra):
        key = f"{name}-{int(offset_cost / U)}u"
        assert _digest(engine, sink, extra=extra) == CONTROL_PINS[key], key

    def test_mailbox_samples(self, offset_cost):
        env, sink = _control_job(offset_cost)
        engine, samples = _build_sampled(env)
        env.execute()
        assert len(sink.results) == 96
        self._check("samples", offset_cost, engine, sink, samples)

    @pytest.mark.parametrize("at", [T8 + 1 * U, T8 + 4 * U], ids=["inside", "at-busy-until"])
    def test_suspend_then_resume(self, offset_cost, at):
        env, sink = _control_job(offset_cost)
        engine, _samples = _build_sampled(env)
        task = engine.tasks["out[0]"]
        engine.kernel.call_at(at, task.suspend)
        # resumed inside a later elided interval, and at its very end
        engine.kernel.call_at(at + 2 * GAP + (at - T8), task.resume_processing)
        env.execute()
        assert len(sink.results) == 96
        self._check(f"suspend@{int((at - T8) / U)}u", offset_cost, engine, sink)

    @pytest.mark.parametrize("at", [T8 + 1 * U, T8 + 4 * U], ids=["inside", "at-busy-until"])
    def test_kill_and_recover(self, offset_cost, at):
        env, sink = _control_job(
            offset_cost, checkpoints=CheckpointConfig(interval=16 * GAP + U)
        )
        engine, _samples = _build_sampled(env)

        def fail():
            engine.kill_task("out[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(at + 24 * GAP, fail)
        env.execute(until=30.0)
        self._check(f"kill@{int((at - T8) / U)}u", offset_cost, engine, sink)

    @pytest.mark.parametrize("at", [T8 + 3 * U, T8 + 4 * U], ids=["inside", "at-busy-until"])
    def test_checkpoint_barrier(self, offset_cost, at):
        env, sink = _control_job(offset_cost, checkpoints=CheckpointConfig(interval=1000.0))
        engine, _samples = _build_sampled(env)
        # injected at the sources right behind record 8, three idle hops
        # before the sink (a busy ``delay`` turns "inside" into the tie)
        engine.kernel.call_at(at - 3 * LATENCY, engine.trigger_checkpoint)
        env.execute()
        assert engine.coordinator.completed == [1]
        assert len(sink.results) == 96
        taken_at = engine.tasks["out[0]"].last_snapshot.taken_at
        assert taken_at >= T8 + 4 * U  # not before record 8 completes
        self._check(f"barrier@{int((at - T8) / U)}u", offset_cost, engine, sink, taken_at)


class TestStall:
    def test_stall_inside_an_elided_interval_holds_until_both_have_passed(self):
        """A live-rescale transfer pause that starts while an item's elided
        completion is outstanding: nothing is processed before
        max(stall end, busy_until), and one item at a time afterwards.
        (Writing the busy flag from outside started ``b`` at 5 + 2u, with
        ``a`` in service until 5 + 4u.)"""
        env = StreamExecutionEnvironment(EngineConfig())
        sink = CollectSink("out")
        # the source only keeps the job open: records at 4 s and 8 s
        env.from_workload(CollectionWorkload(["first", "last"], rate=0.25), name="src").sink(
            sink, processing_cost=SINK_COST
        )
        engine = env.build()
        task = engine.tasks["out[0]"]
        at = engine.kernel.call_at
        # ``a`` finds the task idle: busy through 5 + 4u, no event. The stall
        # ends inside that interval, and ``b`` arrives during the stall.
        at(5.0, task.enqueue_local, Record("a"))
        at(5.0 + 1 * U, task.stall, 1 * U)
        at(5.0 + 1.5 * U, task.enqueue_local, Record("b"))
        # This stall outlasts ``c``'s interval; ``d`` and ``e`` wait for its end.
        at(6.0, task.enqueue_local, Record("c"))
        at(6.0 + 1 * U, task.stall, 8 * U)
        at(6.0 + 2 * U, task.enqueue_local, Record("d"))
        at(6.0 + 3 * U, task.enqueue_local, Record("e"))
        env.execute()
        assert [(r.value, r.emitted_at) for r in sink.results[1:-1]] == [
            ("a", 5.0),
            ("b", 5.0 + 4 * U),  # busy_until, later than the stall's end
            ("c", 6.0),
            ("d", 6.0 + 9 * U),  # the stall's end, later than busy_until
            ("e", 6.0 + 13 * U),  # ... and never two at once
        ]
        assert task.metrics.busy_time == 7 * SINK_COST + 1 * U + 8 * U
