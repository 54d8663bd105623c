"""Tests for the basic operators, driven through a stub context."""

from helpers import StubContext

from repro.core.events import EndOfStream, Record, Watermark
from repro.core.operators.basic import (
    AggregatingOperator,
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    ProcessOperator,
    ReduceOperator,
)
from repro.core.operators.chain import ChainedOperator


class TestMapFilterFlatMap:
    def test_map_transforms_value_keeps_time(self):
        ctx = StubContext()
        op = MapOperator(lambda v: v * 2)
        ctx.feed(op, 5, event_time=1.0)
        [out] = ctx.records()
        assert out.value == 10
        assert out.event_time == 1.0

    def test_filter_drops_non_matching(self):
        ctx = StubContext()
        op = FilterOperator(lambda v: v % 2 == 0)
        for v in range(6):
            ctx.feed(op, v)
        assert ctx.record_values() == [0, 2, 4]

    def test_flat_map_expands(self):
        ctx = StubContext()
        op = FlatMapOperator(lambda v: v.split())
        ctx.feed(op, "a b c")
        assert ctx.record_values() == ["a", "b", "c"]

    def test_flat_map_can_drop(self):
        ctx = StubContext()
        op = FlatMapOperator(lambda v: [])
        ctx.feed(op, "x")
        assert ctx.record_values() == []


class TestKeyBy:
    def test_stamps_key(self):
        ctx = StubContext()
        op = KeyByOperator(lambda v: v["u"])
        ctx.feed(op, {"u": "alice"})
        assert ctx.records()[0].key == "alice"

    def test_declares_zero_cost(self):
        assert KeyByOperator(lambda v: v).processing_cost == 0.0


class TestReduce:
    def test_running_reduce_per_key(self):
        ctx = StubContext()
        op = ReduceOperator(lambda a, b: a + b)
        ctx.feed(op, 1, key="a")
        ctx.feed(op, 2, key="a")
        ctx.feed(op, 10, key="b")
        ctx.feed(op, 3, key="a")
        assert ctx.record_values() == [1, 3, 10, 6]

    def test_retraction_passes_through(self):
        ctx = StubContext()
        op = ReduceOperator(lambda a, b: a + b)
        ctx.current_key_value = "a"
        op.process(Record(value=1, key="a", sign=-1), ctx)
        [out] = ctx.records()
        assert out.sign == -1


class TestAggregating:
    def test_accumulator_differs_from_output(self):
        ctx = StubContext()
        op = AggregatingOperator(
            create=lambda: (0.0, 0),
            add=lambda acc, v: (acc[0] + v, acc[1] + 1),
            result=lambda acc: acc[0] / acc[1],
        )
        ctx.feed(op, 2.0, key="k")
        ctx.feed(op, 4.0, key="k")
        assert ctx.record_values() == [2.0, 3.0]


class TestProcessOperator:
    def test_process_fn_gets_record_and_ctx(self):
        seen = []
        ctx = StubContext()
        op = ProcessOperator(lambda record, c: seen.append((record.value, c.current_key)))
        ctx.feed(op, "x", key="k")
        assert seen == [("x", "k")]

    def test_timer_callback_dispatched(self):
        fired = []
        ctx = StubContext()

        def handler(record, c):
            c.register_event_timer(5.0, payload="p")

        op = ProcessOperator(handler, on_timer=lambda ts, key, payload, c: fired.append((ts, key, payload)))
        ctx.feed(op, "x", key="k")
        ctx.advance_watermark(op, 6.0)
        assert fired == [(5.0, "k", "p")]


class TestDefaultDispatch:
    def test_watermark_forwarded_by_default(self):
        ctx = StubContext()
        op = MapOperator(lambda v: v)
        op.on_element(Watermark(3.0), ctx)
        assert Watermark(3.0) in ctx.emitted

    def test_eos_triggers_flush_then_forwards(self):
        flushed = []

        class Flushy(MapOperator):
            def flush(self, ctx):
                flushed.append(True)

        ctx = StubContext()
        op = Flushy(lambda v: v)
        op.on_element(EndOfStream(), ctx)
        assert flushed == [True]
        assert any(isinstance(e, EndOfStream) for e in ctx.emitted)


class TestChainedOperator:
    def test_chains_apply_in_order(self):
        ctx = StubContext()
        chain = ChainedOperator([
            MapOperator(lambda v: v + 1),
            FilterOperator(lambda v: v % 2 == 0),
            FlatMapOperator(lambda v: [v, v]),
        ])
        ctx.feed(chain, 1)  # 1 -> 2 -> keep -> [2, 2]
        ctx.feed(chain, 2)  # 2 -> 3 -> dropped
        assert ctx.record_values() == [2, 2]

    def test_empty_chain_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ChainedOperator([])
