"""Operator chaining: planner fusion rules, fused-chain semantics, recovery.

The planner (``Engine._compute_chains``) fuses adjacent forward-partitioned,
same-parallelism nodes into one task running a :class:`ChainedOperator`.
These tests pin down when fusion happens, that fused plans produce the same
answers as unfused plans, and that state scoping / timers / checkpoints /
recovery all survive fusion.
"""

import hashlib

import pytest

from helpers import StubContext, emitted_values

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.events import Record, Watermark
from repro.core.keys import field_selector
from repro.core.operators import ChainedOperator, MapOperator
from repro.core.operators.base import Operator, OperatorContext
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.state.api import ValueStateDescriptor


def fused_tasks(engine):
    return [t for t in engine.tasks.values() if "->" in t.name]


def pipeline_env(config, count=300):
    """source -> map -> filter -> map -> sink, all forward, parallelism 1."""
    env = StreamExecutionEnvironment(config, name="chain-test")
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=4000.0, key_count=4, seed=7))
        .map(lambda v: {**v, "f": v["reading"] * 1.8 + 32}, name="to-f")
        .filter(lambda v: v["f"] > 40.0, name="warm")
        .map(lambda v: (v["sensor"], round(v["f"], 1)), name="project")
        .sink(sink, parallelism=1)
    )
    return env, sink


class TestPlannerFusionRules:
    def test_forward_pipeline_fuses_into_one_task(self):
        env, _ = pipeline_env(EngineConfig(chaining_enabled=True))
        engine = env.build()
        # source + one fused task covering map/filter/map/sink
        assert len(engine.tasks) == 2
        assert len(fused_tasks(engine)) == 1

    def test_flag_off_means_no_fusion(self):
        env, _ = pipeline_env(EngineConfig(chaining_enabled=False))
        engine = env.build()
        assert len(engine.tasks) == 5
        assert not fused_tasks(engine)

    def test_hash_edge_breaks_the_chain(self):
        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=True), name="t")
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=100, rate=4000.0, key_count=4, seed=7))
            .map(lambda v: v, name="m1")
            .key_by(field_selector("sensor"), parallelism=2)
            .reduce(lambda a, b: b, name="last", parallelism=2)
            .sink(sink, parallelism=2)
        )
        engine = env.build()
        names = set(engine.tasks)
        # The hash edge between key_by and the reducer must not fuse.
        assert not any("key_by->last" in n for n in names)
        # The forward tail after the hash edge still fuses per subtask.
        assert any("last->out" in n for n in names)

    def test_fan_out_breaks_the_chain(self):
        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=True), name="t")
        stream = env.from_workload(
            SensorWorkload(count=100, rate=4000.0, key_count=4, seed=7)
        ).map(lambda v: v, name="m1")
        stream.sink(CollectSink("a"), name="sink-a")
        stream.sink(CollectSink("b"), name="sink-b")
        engine = env.build()
        # m1 has two consumers: neither edge may fuse across the fan-out.
        assert not any("m1->" in t.name for t in fused_tasks(engine))

    def test_parallelism_change_breaks_the_chain(self):
        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=True), name="t")
        (
            env.from_workload(SensorWorkload(count=100, rate=4000.0, key_count=4, seed=7))
            .map(lambda v: v, name="m1", parallelism=1)
            .map(lambda v: v, name="wide", parallelism=2)
            .sink(CollectSink("out"), parallelism=2)
        )
        engine = env.build()
        assert not any("m1->wide" in t.name for t in engine.tasks.values())
        # The equal-parallelism tail (wide -> sink node "out") still fuses.
        assert any("wide->out" in t.name for t in engine.tasks.values())

    def test_custom_state_backend_breaks_the_chain(self):
        from repro.state.memory import InMemoryStateBackend

        env = StreamExecutionEnvironment(EngineConfig(chaining_enabled=True), name="t")
        (
            env.from_workload(SensorWorkload(count=100, rate=4000.0, key_count=4, seed=7))
            .map(lambda v: v, name="m1")
            .map(lambda v: v, name="m2", state_backend_factory=InMemoryStateBackend)
            .sink(CollectSink("out"))
        )
        engine = env.build()
        # m2 owns a dedicated backend, so it must not be pulled into m1's
        # task; it can still head its own chain (m2 -> sink).
        assert not any("m1->m2" in t.name for t in engine.tasks.values())
        assert any("m2->out" in t.name for t in engine.tasks.values())

    def test_describe_marks_fused_nodes(self):
        env, _ = pipeline_env(EngineConfig(chaining_enabled=True))
        engine = env.build()
        text = engine.plan.describe()
        assert "[fused into" in text
        assert "[chained]" in text


class TestFusedExecution:
    def run(self, chaining):
        env, sink = pipeline_env(EngineConfig(seed=11, chaining_enabled=chaining))
        engine = env.build()
        env.execute()
        return engine, sink

    def test_same_values_chained_and_unchained(self):
        _, plain = self.run(chaining=False)
        _, fused = self.run(chaining=True)
        assert fused.values() == plain.values()
        assert len(fused.values()) > 0

    def test_chained_latency_strictly_lower(self):
        _, plain = self.run(chaining=False)
        _, fused = self.run(chaining=True)
        assert fused.latency_summary().p50 < plain.latency_summary().p50

    def test_fused_sink_is_registered_with_engine(self):
        engine, sink = self.run(chaining=True)
        # Sink lives inside the ChainedOperator but collected results anyway.
        assert len(sink.results) > 0


class _CountingOperator(Operator):
    """Stateful, timer-using operator for chain-semantics tests."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._descriptor = ValueStateDescriptor("count", default=0)

    def process(self, record: Record, ctx: OperatorContext) -> None:
        handle = ctx.state(self._descriptor)
        handle.update(handle.value() + 1)
        ctx.register_event_timer((record.event_time or 0.0) + 1.0, payload=self._name)
        ctx.emit(record)

    def on_event_timer(self, timestamp, key, payload, ctx):
        ctx.emit(Record(value=("timer", self._name, payload), event_time=timestamp, key=key))

    @property
    def name(self) -> str:
        return self._name


class TestChainedOperatorUnit:
    def test_members_state_is_scoped_per_member(self):
        chain = ChainedOperator([_CountingOperator("a"), _CountingOperator("b")])
        ctx = StubContext()
        chain.open(ctx)
        chain.process(Record(value=1, key="k"), ctx)
        chain.process(Record(value=2, key="k"), ctx)
        # Both members used the descriptor name "count", but each kept its
        # own scoped copy inside the shared backend.
        names = {d.name for d in ctx.backend.descriptors()}
        assert names == {"chain0/count", "chain1/count"}

    def test_a_descriptor_built_per_access_keeps_its_own_name(self):
        # As the functions bridge does: a new descriptor per state access.
        # Freed descriptors' ids are recycled, so a cache keyed on id() gave
        # one name's access the other name's scoped descriptor.
        class PerAccess(Operator):
            name = "per-access"

            def process(self, record, ctx):
                seen = ctx.state(ValueStateDescriptor(record.value, default=0))
                seen.update(seen.value() + 1)
                ctx.emit(record.with_value((record.value, seen.value())))

        chain = ChainedOperator([MapOperator(lambda v: v), PerAccess()])
        ctx = StubContext()
        chain.open(ctx)
        for name in ["fn-A", "fn-B"] * 1000:
            chain.process(Record(value=name, key="k"), ctx)
        # each name counts its own accesses
        assert emitted_values(ctx) == [(name, i) for i in range(1, 1001) for name in ("fn-A", "fn-B")]
        assert {d.name for d in ctx.backend.descriptors()} == {"chain1/fn-A", "chain1/fn-B"}
        assert len(chain._links[1]._scoped) == 2  # bounded by distinct descriptors

    def test_same_name_different_default_is_scoped_separately(self):
        class Defaults(Operator):
            name = "defaults"

            def process(self, record, ctx):
                ctx.emit(record.with_value(ctx.state(ValueStateDescriptor("x", default=record.value)).value()))

        chain = ChainedOperator([Defaults()])
        ctx = StubContext()
        chain.open(ctx)
        for value in (1, 2, 2, 1):
            chain.process(Record(value=value, key="k"), ctx)
        assert emitted_values(ctx) == [1, 2, 2, 1]

    def test_timer_payloads_route_back_to_registering_member(self):
        chain = ChainedOperator([_CountingOperator("a"), _CountingOperator("b")])
        ctx = StubContext()
        chain.open(ctx)
        chain.process(Record(value=1, key="k"), ctx)
        # One timer per member, each wrapped with its member index.
        assert [(i, p) for _, _, (i, p) in ctx.event_timers] == [(0, "a"), (1, "b")]
        # Fire member 0's timer: its output must traverse member 1 (which
        # registers a fresh timer for it) before reaching the context.
        ctx.event_timers.clear()
        chain.on_event_timer(2.0, "k", (0, "a"), ctx)
        assert ctx.emitted[-1].value == ("timer", "a", "a")
        assert [(i, p) for _, _, (i, p) in ctx.event_timers] == [(1, "b")]

    def test_watermarks_traverse_all_members(self):
        seen = []

        class Spy(Operator):
            def __init__(self, tag):
                self._tag = tag

            def process(self, record, ctx):
                ctx.emit(record)

            def on_watermark(self, watermark, ctx):
                seen.append(self._tag)
                ctx.emit(watermark)

            @property
            def name(self):
                return self._tag

        chain = ChainedOperator([Spy("x"), Spy("y"), Spy("z")])
        ctx = StubContext()
        chain.open(ctx)
        chain.on_watermark(Watermark(5.0), ctx)
        assert seen == ["x", "y", "z"]
        assert isinstance(ctx.emitted[-1], Watermark)

    def test_snapshot_and_restore_round_trip(self):
        class Remember(Operator):
            def __init__(self):
                self.value = None

            def process(self, record, ctx):
                self.value = record.value
                ctx.emit(record)

            def snapshot_state(self):
                return self.value

            def restore_state(self, snapshot):
                self.value = snapshot

            @property
            def name(self):
                return "remember"

        first, second = Remember(), Remember()
        chain = ChainedOperator([first, second])
        ctx = StubContext()
        chain.open(ctx)
        chain.process(Record(value=41), ctx)
        snapshot = chain.snapshot_state()
        assert snapshot == [41, 41]
        replacement = ChainedOperator([Remember(), Remember()])
        replacement.restore_state(snapshot)
        assert [op.value for op in replacement.operators] == [41, 41]

    def test_flush_output_traverses_downstream_members(self):
        class Buffering(Operator):
            def __init__(self):
                self._held = []

            def process(self, record, ctx):
                self._held.append(record)

            def flush(self, ctx):
                for record in self._held:
                    ctx.emit(record)
                self._held.clear()

            @property
            def name(self):
                return "buffering"

        doubler = MapOperator(lambda v: v * 2, "double")
        chain = ChainedOperator([Buffering(), doubler])
        ctx = StubContext()
        chain.open(ctx)
        chain.process(Record(value=3), ctx)
        assert ctx.emitted == []
        chain.flush(ctx)
        assert [e.value for e in ctx.emitted] == [6]


class TestChainedRecovery:
    def windowed_env(self, chaining):
        from repro.windows.assigners import TumblingEventTimeWindows

        config = EngineConfig(
            seed=5,
            chaining_enabled=chaining,
            checkpoints=CheckpointConfig(interval=0.05),
        )
        env = StreamExecutionEnvironment(config, name="recovery")
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=600, rate=4000.0, key_count=4, seed=5))
            .key_by(field_selector("sensor"))
            .window(TumblingEventTimeWindows(0.05))
            .aggregate(create=lambda: 0, add=lambda acc, _v: acc + 1, name="window-count")
            .map(lambda v: v, name="pass")
            .sink(sink, parallelism=1)
        )
        return env, sink

    def run_with_failure(self, chaining):
        env, sink = self.windowed_env(chaining)
        engine = env.build()
        victim = next(iter(engine.tasks))

        def fail():
            engine.kill_task(victim)
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.11, fail)
        env.execute(until=30.0)
        return engine, sink

    def test_chained_plan_recovers_like_unchained(self):
        plain_engine, plain = self.run_with_failure(chaining=False)
        fused_engine, fused = self.run_with_failure(chaining=True)
        assert len(fused_engine.tasks) < len(plain_engine.tasks)
        assert sorted(map(str, fused.values())) == sorted(map(str, plain.values()))
        assert len(fused.values()) > 0

    def test_checkpoints_complete_on_chained_plan(self):
        env, _ = self.windowed_env(chaining=True)
        engine = env.build()
        env.execute()
        assert engine.coordinator.completed
        record = engine.latest_checkpoint()
        assert record.complete
        # One snapshot per live task — the fused task snapshots all members.
        assert len(record.snapshots) == len(engine.tasks)


class TestBindOnce:
    @staticmethod
    def _run_job():
        """A columnar chained job with two fused tasks, both revived by a
        global restore at 0.11 s; returns the engine and the sink rows."""
        from repro.windows.assigners import TumblingEventTimeWindows

        config = EngineConfig(
            seed=5,
            chaining_enabled=True,
            columnar_batch_size=16,
            checkpoints=CheckpointConfig(interval=0.05),
        )
        env = StreamExecutionEnvironment(config, name="bind")
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=600, rate=4000.0, key_count=4, seed=5))
            .map(lambda v: v, name="pre")
            .key_by(field_selector("sensor"))
            .window(TumblingEventTimeWindows(0.05))
            .aggregate(create=lambda: 0, add=lambda acc, _v: acc + 1, name="window-count")
            .map(lambda v: v, name="pass")
            .sink(sink, parallelism=1)
        )
        engine = env.build()
        assert len(fused_tasks(engine)) == 2

        def fail():
            engine.kill_task("window-count->pass->out[0]")
            engine.recover_from_checkpoint()

        engine.kernel.call_at(0.11, fail)
        env.execute(until=30.0)
        rows = [(r.value, r.event_time, r.emitted_at, r.key) for r in sink.results]
        assert len(rows) == 12
        assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == "801e6165711ffed4"
        assert engine.kernel.dispatched_events == 188
        return engine

    def test_a_chain_binds_once_per_start_or_revive(self, monkeypatch):
        """A task hands its chain the one context it opened it with, so a
        columnar chained job binds each chain instance once: two fused
        tasks, started and then revived by a global restore, bind four
        times, and the rows stay those of the per-element bind."""
        bound = []
        bind = ChainedOperator._bind

        def counted(self, ctx):
            bound.append(self)
            bind(self, ctx)

        monkeypatch.setattr(ChainedOperator, "_bind", counted)
        self._run_job()
        assert len(bound) == len(set(map(id, bound))) == 4

    def test_a_fused_task_starts_once(self, monkeypatch):
        """The engine starts each distinct task once, not once per node
        fused into it: each chain opens at its start and its revive (the
        parent opened them 7 times), and each task builds its run loop when
        it attaches observability, starts and is revived (the fused ones
        built it 4 and 5 times), with the same rows and kernel events."""
        from repro.runtime.task import Task

        opened, compiled = [], {}
        open_chain, compile_task = ChainedOperator.open, Task._compile

        def counted_open(self, ctx):
            opened.append(self)
            open_chain(self, ctx)

        def counted_compile(self):
            compiled[self.name] = compiled.get(self.name, 0) + 1
            compile_task(self)

        monkeypatch.setattr(ChainedOperator, "open", counted_open)
        monkeypatch.setattr(Task, "_compile", counted_compile)
        self._run_job()
        assert len(opened) == 4
        assert compiled == {"source[0]": 3, "pre->key_by[0]": 3, "window-count->pass->out[0]": 3}
