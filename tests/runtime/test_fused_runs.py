"""Fused runs inside a chain (DESIGN, "Fused runs").

A run of plain map / filter / flat_map / key_by members carries an untraced
record through one loop instead of member by member. The reference is the
member-by-member path that is still in the code: ``_feed`` for every hop,
selected by patching ``ChainedOperator.process`` and ``_LinkContext.emit``
(the fused loop is reachable only through those two). Every observable the
loop could move is compared: outputs with every field, ``member_records_in``,
each ``add_cost`` argument in order, the key each non-fused member reads,
the trace sub-spans and, through a task, ``busy_time``.
"""

from unittest import mock

from helpers import StubContext
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Record, Watermark
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
from repro.obs.trace import TraceContext
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


MEMBER = st.tuples(
    st.sampled_from(("map", "filter", "flat_map", "key_by", "map", "flat_map", "tripling", "probe")),
    st.integers(1, 3),
    st.integers(-2, 2),
)
CHAINS = st.fixed_dictionaries(
    {
        "members": st.lists(MEMBER, min_size=1, max_size=5),
        "costs": st.lists(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0)), min_size=6, max_size=6),
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
    costs = (plan["costs"] * 2)[: len(members)]
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
    task.register_input_channel()
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


@settings(max_examples=80, deadline=None)
@given(plan=CHAINS)
def test_a_fused_run_matches_member_by_member_feed_driven_directly(plan):
    fused = _drive_directly(plan)
    patch_process, patch_emit = _member_by_member()
    with patch_process, patch_emit:
        reference = _drive_directly(plan)
    assert fused == reference


@settings(max_examples=80, deadline=None)
@given(plan=CHAINS)
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
        runs = [None if steps is None else [step[3] for step in steps] for steps in chain._runs]
        assert runs == [[0, 1], [1], None, [3, 4], [4], None, None]
        # the head's cost is the task's processing_cost, never an extra
        assert [step[2] for step in chain._runs[0]] == [0.0, 0.25]

    def test_a_map_subclass_keeps_its_override(self):
        ctx = _RecordingContext()
        chain = ChainedOperator(
            [MapOperator(lambda v: v + 1), _Tripling(lambda v: v), MapOperator(lambda v: v - 1)]
        )
        chain.open(ctx)
        chain.process(Record(value=1), ctx)
        assert [r.value for r in ctx.records()] == [5]  # (1 + 1) * 3 - 1
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
