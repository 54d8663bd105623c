"""Compiled runs inside a chain (DESIGN, "Compiled runs").

An untraced record crosses a chain through code generated for the chain's
shape: a run of plain map / filter / flat_map / key_by members is one
straight-line function instead of member by member. The reference is the
member-by-member path that is still in the code: ``_feed`` for every hop,
selected by patching ``ChainedOperator.process`` and ``_LinkContext.emit``
(the compiled entries are reachable only through those two). Every
observable the generated code could move is compared: outputs with every
field, ``member_records_in``, each ``add_cost`` argument in order, the key
each non-fused member reads, the trace sub-spans and, through a task,
``busy_time``.
"""

import os
import traceback
from unittest import mock

import pytest
from helpers import StubContext, emitted_records
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.events import Record, Watermark
from repro.core.operators import chain as chain_module
from repro.core.operators.base import Operator
from repro.core.operators.basic import (
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    ReduceOperator,
    SinkOperator,
)
from repro.core.operators.chain import ChainedOperator, _LinkContext
from repro.io import CollectSink
from repro.io.sources import SensorWorkload
from repro.obs.trace import TraceContext
from repro.runtime.config import EngineConfig
from repro.runtime.task import Task
from repro.sim import Kernel
from repro.state.memory import InMemoryStateBackend


class _Tripling(MapOperator):
    """A map subclass with its own ``process``: never fused, override kept."""

    def process(self, record, ctx):
        ctx.emit(record.with_value(record.value * 3))


class _KeyProbe(Operator):
    """A non-fused member: logs the row and the key its context holds."""

    def __init__(self, log):
        self._log = log

    @property
    def name(self):
        return "probe"

    def process(self, record, ctx):
        self._log.append((tuple(record), ctx.current_key))
        ctx.emit(record)


def _member(spec, log):
    kind, a, b = spec
    if kind == "map":
        return MapOperator(lambda v: v * a + b, f"map{a}{b}")
    if kind == "filter":
        return FilterOperator(lambda v: v % (a + 1) != 0, f"filter{a}")
    if kind == "flat_map":
        # fan-out 0-3, drawn lazily: an output crosses the rest of the chain
        # before the next one is computed
        return FlatMapOperator(lambda v: (v + i for i in range((v + b) % 4)), f"flat{b}")
    if kind == "key_by":
        return KeyByOperator(lambda v: v % (a + 1), f"key{a}")
    if kind == "tripling":
        return _Tripling(lambda v: v, "tripling")
    return _KeyProbe(log)


#: flat_map and key_by weighted up, so nested flat_map -> key_by -> flat_map
#: -> filter shapes (a loop per level, a key per level) occur
MEMBER = st.tuples(
    st.sampled_from(
        ("map", "filter", "flat_map", "key_by", "map", "flat_map", "key_by", "flat_map", "filter", "tripling", "probe")
    ),
    st.integers(1, 3),
    st.integers(-2, 2),
)
CHAINS = st.fixed_dictionaries(
    {
        "members": st.lists(MEMBER, min_size=1, max_size=8),
        "costs": st.lists(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0)), min_size=10, max_size=10),
        "tail": st.booleans(),  # a keyed aggregate plus a sink, or nothing
        "records": st.lists(
            st.tuples(st.integers(-5, 20), st.sampled_from(("j", "k")), st.booleans()),
            min_size=1,
            max_size=6,
        ),
    }
)


def _build(plan):
    log, sink = [], CollectSink("out")
    members = [_member(spec, log) for spec in plan["members"]]
    if plan["tail"]:
        members += [ReduceOperator(lambda x, y: x + y, "sum"), SinkOperator(sink)]
    costs = plan["costs"][: len(members)]
    return ChainedOperator(members, extra_costs=costs), log, sink


def _records(plan):
    for value, key, traced in plan["records"]:
        yield Record(value=value, key=key, trace=TraceContext(value, 1) if traced else None)


def _member_by_member():
    """Every hop through ``_feed``, as before the record path existed."""
    return mock.patch.object(
        ChainedOperator, "process", lambda self, r, ctx: (self._bind(ctx), self._feed(0, r, ctx))
    ), mock.patch.object(
        _LinkContext, "emit", lambda self, e: self._chain._feed(self._index + 1, e, self._parent)
    )


class _Tracer:
    def __init__(self):
        self.spans = []

    def record_closed(self, name, trace, parent, now):
        self.spans.append((name, trace))


class _RecordingContext(StubContext):
    """A task-less context logging what the chain does to it."""

    def __init__(self):
        super().__init__()
        self.costs, self.tracer, self.active_span_id = [], _Tracer(), None

    def add_cost(self, seconds):
        self.costs.append(seconds)


def _drive_directly(plan):
    chain, log, sink = _build(plan)
    ctx = _RecordingContext()
    chain.open(ctx)
    for record in _records(plan):
        chain.process(record, ctx)
        log.append(("key after", ctx.current_key_value))
    chain.on_watermark(Watermark(1.0), ctx)
    return {
        "out": [tuple(e) if isinstance(e, Record) else e for e in ctx.emitted],
        "sink": [(r.value, r.event_time) for r in sink.results],
        "members": list(chain.member_records_in),
        "costs": ctx.costs,
        "log": log,
        "spans": ctx.tracer.spans,
    }


def _drive_through_a_task(plan):
    chain, log, sink = _build(plan)
    kernel = Kernel()
    task = Task(kernel, "chain[0]", chain, InMemoryStateBackend(), processing_cost=1.0)
    out, costs, add_cost = [], [], task.ctx.add_cost
    task.collect_output = lambda element: out.append(tuple(element))
    task.ctx.add_cost = lambda seconds: (costs.append(seconds), add_cost(seconds))
    task.inputs.register()
    task.start()
    for index, record in enumerate(_records(plan)):
        kernel.call_at(10.0 * (index + 1), task.deliver, 0, record)
    kernel.run()
    return {
        "out": out,
        "sink": [(r.value, r.emitted_at) for r in sink.results],
        "members": list(chain.member_records_in),
        "costs": costs,
        "log": log,
        "busy": task.metrics.busy_time,
        "key": task.ctx.current_key_value,
    }


#: flat_map -> filter -> key_by -> flat_map -> filter, then a key-reading
#: member; an outer output dropped after its sibling was re-keyed must still
#: see its parent's key
NESTED = {
    "members": [
        ("flat_map", 1, 1), ("filter", 1, 0), ("key_by", 2, 0), ("flat_map", 1, 2), ("filter", 1, 0), ("probe", 1, 0)
    ],
    "costs": [0.0, 0.25, 0.5, 1.0, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0],
    "tail": True,
    "records": [(1, "j", False), (5, "k", False), (4, "j", True)],
}


@settings(max_examples=80, deadline=None)
@given(plan=CHAINS)
@example(plan=NESTED)
def test_a_fused_run_matches_member_by_member_feed_driven_directly(plan):
    fused = _drive_directly(plan)
    patch_process, patch_emit = _member_by_member()
    with patch_process, patch_emit:
        reference = _drive_directly(plan)
    assert fused == reference


@settings(max_examples=80, deadline=None)
@given(plan=CHAINS)
@example(plan=NESTED)
def test_a_fused_run_matches_member_by_member_feed_through_a_task(plan):
    fused = _drive_through_a_task(plan)
    patch_process, patch_emit = _member_by_member()
    with patch_process, patch_emit:
        reference = _drive_through_a_task(plan)
    assert fused == reference


class TestRunSelection:
    def test_runs_are_maximal_and_exact_type(self):
        log = []
        chain = ChainedOperator(
            [
                FlatMapOperator(lambda v: [v, v]),
                MapOperator(lambda v: v + 1),
                _Tripling(lambda v: v),
                FilterOperator(lambda v: v > 0),
                KeyByOperator(lambda v: v % 2),
                _KeyProbe(log),
            ],
            extra_costs=[3.0, 0.25, 0.5, 1.0, 2.0, 0.0],
        )
        assert chain._kinds == ("flat_map", "map", None, "filter", "key_by", None)
        assert [entry.__name__ for entry in chain._entries] == [
            "run0_flat_map_map", "run1_map", "member2", "run3_filter_key_by", "run4_key_by", "member5", "out"
        ]
        ctx = _RecordingContext()
        chain.open(ctx)
        chain.process(Record(value=1), ctx)
        # the head's cost is the task's processing_cost, never an extra
        assert ctx.costs == [0.25, 0.5, 1.0, 2.0] * 2
        assert [key for _row, key in log] == [0, 0]  # key_by(6 % 2) seen by the probe

    def test_a_map_subclass_keeps_its_override(self):
        ctx = _RecordingContext()
        chain = ChainedOperator(
            [MapOperator(lambda v: v + 1), _Tripling(lambda v: v), MapOperator(lambda v: v - 1)]
        )
        chain.open(ctx)
        chain.process(Record(value=1), ctx)
        assert [r.value for r in emitted_records(ctx)] == [5]  # (1 + 1) * 3 - 1
        assert chain.member_records_in == [1, 1, 1]

    def test_flat_map_outputs_are_drawn_lazily(self):
        ctx, drawn = _RecordingContext(), []

        def outputs(v):
            for i in range(3):
                drawn.append(("draw", i))
                yield v + i

        class _Seen(Operator):
            name = "seen"

            def process(self, record, c):
                drawn.append(("seen", record.value))

        chain = ChainedOperator([FlatMapOperator(outputs), MapOperator(lambda v: v * 10), _Seen()])
        chain.open(ctx)
        chain.process(Record(value=1), ctx)
        assert drawn == [
            ("draw", 0), ("seen", 10), ("draw", 1), ("seen", 20), ("draw", 2), ("seen", 30)
        ]


class TestCompiledEntries:
    def test_same_shaped_chains_share_code_and_keep_their_own_bindings(self):
        def shaped(a, cost, log):
            return ChainedOperator(
                [
                    MapOperator(lambda v: v + a),
                    FlatMapOperator(lambda v: [v] * a),
                    KeyByOperator(lambda v: v * a),
                    _KeyProbe(log),
                ],
                extra_costs=[0.0, cost, 2 * cost, 3 * cost],
            )

        def drive():
            logs, runs = ([], []), []
            # built back to back, driven after both exist
            chains = [shaped(1, 0.5, logs[0]), shaped(2, 0.25, logs[1])]
            for chain, log in zip(chains, logs):
                ctx = _RecordingContext()
                chain.open(ctx)
                chain.process(Record(value=1, event_time=5.0, key="k"), ctx)
                runs.append(([tuple(r) for r in ctx.emitted], list(chain.member_records_in), ctx.costs, log))
            return chains, runs

        (first, second), compiled = drive()
        assert [e.__code__ for e in first._entries] == [e.__code__ for e in second._entries]
        assert compiled == [
            ([(2, 5.0, 2, 1, None, None)], [1, 1, 1, 1], [0.5, 1.0, 1.5], [((2, 5.0, 2, 1, None, None), 2)]),
            (
                [(3, 5.0, 6, 1, None, None)] * 2,
                [1, 1, 2, 2],
                [0.25, 0.5, 0.75, 0.5, 0.75],
                [((3, 5.0, 6, 1, None, None), 6)] * 2,
            ),
        ]
        patch_process, patch_emit = _member_by_member()
        with patch_process, patch_emit:
            assert drive()[1] == compiled

    def test_a_raising_udf_leaves_what_feed_leaves(self):
        def drive():
            def boom(v):
                if v == 3:
                    raise ValueError("boom")
                return v

            chain = ChainedOperator(
                [
                    FlatMapOperator(lambda v: range(v)),
                    MapOperator(lambda v: v + 1),
                    KeyByOperator(lambda v: -v),
                    MapOperator(boom),
                    FilterOperator(lambda v: v > 0),
                ],
                extra_costs=[0.0, 0.25, 0.5, 1.0, 2.0],
            )
            ctx = _RecordingContext()
            chain.open(ctx)
            with pytest.raises(ValueError) as raised:
                chain.process(Record(value=5, event_time=5.0, key="k"), ctx)
            effects = ([tuple(r) for r in ctx.emitted], list(chain.member_records_in), ctx.costs)
            return effects + (ctx.current_key_value,), raised.value

        compiled, error = drive()
        assert compiled == (
            [(1, 5.0, -1, 1, None, None), (2, 5.0, -2, 1, None, None)],
            [1, 3, 3, 3, 2],
            [0.25, 0.5, 1.0, 2.0] * 2 + [0.25, 0.5, 1.0],
            -3,
        )
        patch_process, patch_emit = _member_by_member()
        with patch_process, patch_emit:
            assert drive()[0] == compiled
        # the traceback shows the generated line, filed under the operators
        frame = next(f for f in traceback.extract_tb(error.__traceback__) if f.name.startswith("run0_"))
        assert frame.name == "run0_flat_map_map_key_by_map_filter"
        assert frame.line == "v1 = f3(v1)"
        assert os.path.dirname(frame.filename) == os.path.dirname(os.path.abspath(chain_module.__file__))

    def test_member_gauges_read_live_counts(self):
        config = EngineConfig(seed=1, chaining_enabled=True)
        env = StreamExecutionEnvironment(config, name="g")
        sink = CollectSink("out")
        (
            env.from_workload(SensorWorkload(count=60, rate=2000.0, key_count=4, seed=1), name="src")
            .flat_map(lambda v: [v, v], name="twice")
            .filter(lambda v: v["seq"] % 3 != 0, name="some")
            .map(lambda v: v["seq"], name="seq")
            .sink(sink, name="out")
        )
        engine = env.build()
        env.execute()
        prefix = "g/twice->some->seq->out/0/chain"
        names = ("twice", "some", "seq", "out")
        gauges = [engine.metrics_snapshot()["metrics"][f"{prefix}{i}/{n}/records_in"] for i, n in enumerate(names)]
        assert gauges == [60, 120, 80, 80] and len(sink.results) == 80
