"""Task-level mechanics: alignment, timers, watermark merging, FIFO links."""

from repro.core.datastream import StreamExecutionEnvironment, connect_streams
from repro.core.events import LatencyMarker, Record
from repro.core.graph import ChannelSpec, Partitioning
from repro.core.keys import field_selector
from repro.core.operators.base import Operator
from repro.io import CollectSink, CollectionWorkload, SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.channel import OutputGate, PhysicalChannel
from repro.runtime.config import CheckpointConfig, CheckpointMode, EngineConfig
from repro.runtime.task import Task
from repro.sim.kernel import Kernel
from repro.sim.random import SimRandom
from repro.state.memory import InMemoryStateBackend


class TestBarrierAlignment:
    def build_two_input_job(self, mode):
        config = EngineConfig(seed=21, checkpoints=CheckpointConfig(interval=0.05, mode=mode))
        env = StreamExecutionEnvironment(config)
        a = env.from_workload(
            SensorWorkload(count=400, rate=2000.0, key_count=4, seed=111), name="a"
        )
        b = env.from_workload(
            SensorWorkload(count=400, rate=2000.0, key_count=4, seed=112), name="b"
        )
        sink = CollectSink("out")
        a.union(b).key_by(field_selector("sensor")).aggregate(
            create=lambda: 0, add=lambda acc, _v: acc + 1, name="count"
        ).sink(sink)
        return env, sink

    def test_aligned_checkpoint_with_multiple_inputs_completes(self):
        env, _sink = self.build_two_input_job(CheckpointMode.ALIGNED)
        engine = env.build()
        env.execute()
        assert engine.coordinator.completed
        record = engine.latest_checkpoint()
        # Union + count + sink + both sources all snapshotted.
        assert len(record.snapshots) >= 5

    def test_aligned_recovery_with_multiple_inputs_is_exact(self):
        env, sink = self.build_two_input_job(CheckpointMode.ALIGNED)
        engine = env.build()

        def fail():
            engine.kill_task("count[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.12, fail)
        env.execute(until=30.0)
        per_key = {}
        for r in sink.results:
            per_key[r.key] = max(per_key.get(r.key, 0), r.value)
        assert sum(per_key.values()) == 800

    def test_unaligned_mode_snapshots_without_blocking(self):
        env, _sink = self.build_two_input_job(CheckpointMode.UNALIGNED)
        engine = env.build()
        env.execute()
        assert engine.coordinator.completed


class TestProcessingTimers:
    def test_processing_timer_fires_at_requested_time(self):
        env = StreamExecutionEnvironment(EngineConfig())
        fired = []

        def handler(record, ctx):
            ctx.register_processing_timer(ctx.processing_time() + 0.2, payload=record.value)

        def on_timer(timestamp, key, payload, ctx):
            fired.append((timestamp, payload, ctx.processing_time()))

        (
            # Slow source: the first timer fires mid-stream at its requested
            # time; the trailing one is quiesced (fired early) at EOS.
            env.from_workload(CollectionWorkload([1, 2], rate=2.0), name="src")
            .key_by(lambda v: v, name="k")
            .process(handler, on_timer=on_timer, name="p")
            .sink(CollectSink("out"))
        )
        env.execute(until=10.0)
        assert len(fired) == 2
        requested, _payload, actual = fired[0]
        assert actual >= requested  # the mid-stream timer was punctual

    def test_pending_processing_timers_quiesce_at_end_of_input(self):
        env = StreamExecutionEnvironment(EngineConfig())
        fired = []

        def handler(record, ctx):
            ctx.register_processing_timer(ctx.processing_time() + 60.0, payload=record.value)

        def on_timer(timestamp, key, payload, ctx):
            fired.append(payload)

        (
            env.from_collection([1, 2], name="src")
            .key_by(lambda v: v, name="k")
            .process(handler, on_timer=on_timer, name="p")
            .sink(CollectSink("out"))
        )
        result = env.execute(until=10.0)
        # Timers far past end-of-input still fire once, at quiescence.
        assert sorted(fired) == [1, 2]
        assert result.finished

    def test_event_timers_fire_in_timestamp_order(self):
        env = StreamExecutionEnvironment(EngineConfig())
        fired = []

        def handler(record, ctx):
            # Register in reverse order; firing must be by timestamp.
            ctx.register_event_timer(10.0 - record.value, payload=record.value)

        def on_timer(timestamp, key, payload, ctx):
            fired.append(timestamp)

        (
            env.from_collection([1.0, 2.0, 3.0], name="src", timestamps=[0.0, 0.0, 0.0])
            .key_by(lambda _v: "k", name="k")
            .process(handler, on_timer=on_timer, name="p")
            .sink(CollectSink("out"))
        )
        env.execute()
        assert fired == sorted(fired)

    def test_restored_timers_fire_in_the_checkpointed_heap_order(self):
        """A snapshot keeps the timer heap as an array and a restore
        re-sequences it in array order, so timers sharing a timestamp fire
        in heap-array order after a recovery, not in registration order."""
        env = StreamExecutionEnvironment(EngineConfig(checkpoints=CheckpointConfig(interval=0.05)))
        fired = []

        def handler(record, ctx):
            ctx.register_event_timer(100.0 + (record.value * 7) % 3, payload=record.value)

        def on_timer(timestamp, key, payload, ctx):
            fired.append(payload)

        (
            env.from_workload(CollectionWorkload(list(range(40)), rate=200.0), name="src")
            .key_by(lambda v: v % 4, name="k")
            .process(handler, on_timer=on_timer, name="p")
            .sink(CollectSink("out"))
        )
        engine = env.build()

        def fail():
            engine.kill_task("p[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.13, fail)
        env.execute(until=30.0)
        assert fired == [
            0, 3, 6, 15, 9, 12, 18, 21, 24, 27, 30, 33, 36, 39,
            13, 1, 4, 10, 7, 16, 19, 22, 25, 28, 31, 34, 37,
            11, 5, 2, 14, 17, 8, 20, 23, 26, 29, 32, 35, 38,
        ]


class TestChannelFIFO:
    def test_per_channel_order_preserved_despite_jitter(self):
        from repro.core.graph import ChannelSpec

        env = StreamExecutionEnvironment(EngineConfig(seed=22))
        sink = env.from_collection(range(300), name="src").map(lambda v: v, name="m").collect()
        for edge in env.graph.edges:
            edge.channel = ChannelSpec(latency=1e-4, jitter=5e-4)  # jitter >> latency
        engine = env.build()
        # the jitter reaches every built link, so the FIFO clamp is exercised
        assert [ch.spec.jitter for ch in engine.iter_physical_channels()] == [5e-4, 5e-4]
        env.execute()
        assert sink.values() == list(range(300))

    def test_watermarks_never_overtake_records(self):
        env = StreamExecutionEnvironment(EngineConfig(seed=23))
        violations = []

        def check(record, ctx):
            if record.event_time is not None and record.event_time <= ctx.current_watermark():
                violations.append(record.value)
            ctx.emit(record)

        (
            env.from_workload(
                SensorWorkload(count=1000, rate=4000.0, disorder=0.0, key_count=4, seed=113),
                watermarks=BoundedOutOfOrderness(0.0),
            )
            .process(check, name="check")
            .sink(CollectSink("out"))
        )
        env.execute()
        assert not violations


class TestDrainSemantics:
    def test_job_finishes_and_cancels_services(self):
        env = StreamExecutionEnvironment(
            EngineConfig(checkpoints=CheckpointConfig(interval=0.05))
        )
        env.from_collection(range(50)).map(lambda v: v).sink(CollectSink("out"))
        result = env.execute()  # no `until`: must quiesce on its own
        assert result.finished

    def test_union_waits_for_all_inputs_eos(self):
        env = StreamExecutionEnvironment(EngineConfig())
        slow = env.from_workload(CollectionWorkload(range(10), rate=10.0), name="slow")
        fast = env.from_workload(CollectionWorkload(range(100, 110), rate=10000.0), name="fast")
        sink = slow.union(fast).collect()
        env.execute()
        assert len(sink.values()) == 20


class TestKernelEventBudget:
    def _run(self, second_stage):
        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=False))
        sink = CollectSink("out")
        stream = env.from_workload(
            CollectionWorkload(list(range(100)), rate=1000.0), name="src"
        ).map(lambda v: v + 1, name="inc")
        second_stage(stream).map(lambda v: v * 3, name="triple").sink(sink, name="out")
        engine = env.build()
        env.execute()
        source = engine.tasks["src[0]"]
        # records and watermarks, plus one end-of-stream per task
        items = sum(
            task.metrics.records_in + task.metrics.watermarks_in + 1
            for task in engine.tasks.values()
            if task is not source
        )
        return engine, sink, items, source

    def test_forward_pipeline_spends_two_kernel_events_per_mailbox_item(self):
        """deliver → process inline → complete, where every stage emits. A
        reintroduced scheduling hop (three events per item) fails this in a
        second; only the sink, which has nothing to flush, spends one."""
        engine, sink, items, source = self._run(lambda s: s.map(lambda v: v, name="same"))
        assert len(sink.results) == 100
        assert items == 408
        # 916 with a completion per item: the sink keeps 2 of its 102 (the last
        # record, watermark and end-of-stream share an instant), and each
        # map's end-of-stream, flushed by the finish itself, keeps none: 813
        # with one delivery event per element. Same-arrival elements of one
        # channel share a list: the source's last record, watermark and
        # end-of-stream travel as one event (-2), and so do each of the three
        # stages' last record, final watermark and end-of-stream (-6)
        assert engine.kernel.dispatched_events == 813 - 8 == 805
        assert engine.kernel.dispatched_events <= 2 * items + source.emitted

    def test_an_input_that_emits_nothing_spends_one(self):
        """The same pipeline with a filter second: a dropped record buffers
        no output, so no completion event stands for it (716 with one)."""
        engine, sink, items, _source = self._run(
            lambda s: s.filter(lambda v: v % 2 == 0, name="even")
        )
        assert len(sink.results) == 50
        assert items == 308
        # the filter's 50 drops, 50 of the sink's 52 inputs, three
        # end-of-streams: 613 with one delivery event per element; the same
        # eight end-of-job elements as above ride in another's list: 605
        assert engine.kernel.dispatched_events == 716 - 103 - 8 == 605

    def test_a_fan_out_spends_one_delivery_event_per_emission(self):
        """One source, five filter heads, every edge the same latency: the
        five deliveries of one record are scheduled back to back for one
        arrival time and travel as one kernel event."""
        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=False))
        source = env.from_workload(CollectionWorkload(list(range(100)), rate=1000.0), name="src")
        sinks = [CollectSink(f"out{m}") for m in range(5)]
        for modulus, sink in enumerate(sinks):
            source.filter(lambda v, m=modulus: v % 5 == m, name=f"head{modulus}").sink(sink)
        engine = env.build()
        env.execute()
        assert [len(sink.results) for sink in sinks] == [20] * 5
        heads = [engine.tasks[f"head{m}[0]"] for m in range(5)]
        assert sum(h.metrics.records_in for h in heads) == 500
        # 100 source timers, 115 completions (a head's 20 passed records and
        # its last two inputs, less one where the last record passes; one or
        # two per sink) and 201 delivery events: one per source emission
        # carrying all five channels (the last record, watermark and
        # end-of-stream leave in one flush, so fifteen lists in one event),
        # one per record a head passes on, and one for the heads' final
        # watermark and end-of-stream together — the five heads complete at
        # one instant, back to back, so their flushes share a flight too.
        # 620 delivery events and 835 in all with one per channel and element.
        assert engine.kernel.dispatched_events == 100 + 115 + 201 == 416


class TestBlockedTime:
    def test_a_flush_during_a_stall_does_not_restart_the_blocked_interval(self):
        """Blocked at t0 = 1, a latency marker flushed into the backlog at
        t1 = 2, unblocked at t2 = 3: the whole stall, t2 - t0, is blocked
        time (restarting the interval at the marker counted only t2 - t1)."""
        kernel = Kernel()
        receiver = Task(kernel, "recv[0]", Operator(), InMemoryStateBackend(), processing_cost=0.0)
        sender = Task(kernel, "send[0]", Operator(), InMemoryStateBackend())
        receiver.inputs.register()
        channel = PhysicalChannel(
            kernel, ChannelSpec(latency=0.0, capacity=1), receiver, 0, SimRandom(0), sender=sender
        )
        sender.attach_output(OutputGate(Partitioning.FORWARD, [channel], 128))
        for task in (sender, receiver):
            task.start()
        receiver.suspend()  # returns no credit until it resumes

        def flush(element):
            sender.collect_output(element)
            sender.flush_outputs()

        kernel.call_at(1.0, flush, Record(1))  # takes the only credit
        kernel.call_at(1.0, flush, Record(2))  # parked: blocked from t0
        kernel.call_at(2.0, flush, LatencyMarker(emitted_at=2.0, marker_id=0, source_id="send[0]"))
        kernel.call_at(3.0, receiver.resume_processing)  # the backlog drains at t2
        kernel.run()
        assert not sender.is_backpressured
        assert receiver.metrics.records_in == 2
        assert sender.metrics.blocked_time == 2.0
