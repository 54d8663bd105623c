"""Window operator lifecycle: firing, lateness, sessions, triggers, evictors."""

from helpers import StubContext, advance_watermark, emitted_records, feed, fire_processing_timers

import math

import pytest

from repro.core.events import Punctuation, Record
from repro.windows import (
    CountEvictor,
    CountTrigger,
    EarlyFiringTrigger,
    EventTimeSessionWindows,
    EventTimeTrigger,
    GlobalWindows,
    ProcessWindowFunction,
    PunctuationTrigger,
    TumblingEventTimeWindows,
    WindowOperator,
    WindowResult,
)
from repro.windows.core import TimeWindow
from repro.windows.operator import AggregateFunction
from repro.windows.triggers import TriggerResult


def count_op(**kwargs):
    return WindowOperator(
        kwargs.pop("assigner", TumblingEventTimeWindows(10.0)),
        AggregateFunction(lambda: 0, lambda a, _v: a + 1, merge=lambda a, b: a + b),
        **kwargs,
    )


def results(ctx):
    return [r.value for r in emitted_records(ctx) if isinstance(r.value, WindowResult)]


class TestEventTimeFiring:
    def test_window_fires_when_watermark_passes_end(self):
        ctx = StubContext()
        op = count_op()
        feed(ctx, op, "a", event_time=1.0, key="k")
        feed(ctx, op, "b", event_time=5.0, key="k")
        assert results(ctx) == []
        advance_watermark(ctx, op, 10.0)
        [res] = results(ctx)
        assert (res.start, res.end, res.value) == (0.0, 10.0, 2)

    def test_separate_keys_fire_separately(self):
        ctx = StubContext()
        op = count_op()
        feed(ctx, op, "a", event_time=1.0, key="k1")
        feed(ctx, op, "b", event_time=2.0, key="k2")
        advance_watermark(ctx, op, 10.0)
        assert sorted((r.key, r.value) for r in results(ctx)) == [("k1", 1), ("k2", 1)]

    def test_result_event_time_is_window_end(self):
        ctx = StubContext()
        op = count_op()
        feed(ctx, op, "a", event_time=1.0, key="k")
        advance_watermark(ctx, op, 10.0)
        [record] = emitted_records(ctx)
        assert record.event_time == 10.0

    def test_empty_windows_do_not_fire(self):
        ctx = StubContext()
        op = count_op()
        advance_watermark(ctx, op, 100.0)
        assert results(ctx) == []


class TestLateData:
    def test_late_record_goes_to_side_output(self):
        ctx = StubContext()
        op = count_op()
        feed(ctx, op, "a", event_time=1.0, key="k")
        advance_watermark(ctx, op, 10.0)
        feed(ctx, op, "late", event_time=2.0, key="k")
        assert op.late_drops == 1
        assert len(ctx.side.get("late", [])) == 1
        assert len(results(ctx)) == 1  # no extra firing

    def test_allowed_lateness_produces_refinement(self):
        ctx = StubContext()
        op = count_op(allowed_lateness=5.0)
        feed(ctx, op, "a", event_time=1.0, key="k")
        advance_watermark(ctx, op, 10.0)
        assert [r.value for r in results(ctx)] == [1]
        feed(ctx, op, "late", event_time=2.0, key="k")  # within lateness
        assert [r.value for r in results(ctx)] == [1, 2]
        advance_watermark(ctx, op, 16.0)  # cleanup
        feed(ctx, op, "too-late", event_time=3.0, key="k")
        assert op.late_drops == 1

    def test_refinement_with_retraction(self):
        ctx = StubContext()
        op = count_op(allowed_lateness=5.0, retract_refinements=True)
        feed(ctx, op, "a", event_time=1.0, key="k")
        advance_watermark(ctx, op, 10.0)
        feed(ctx, op, "late", event_time=2.0, key="k")
        records = emitted_records(ctx)
        signs = [r.sign for r in records]
        assert signs == [1, -1, 1]
        assert records[1].value.value == 1  # retracts the stale count
        assert records[2].value.value == 2


class TestSessions:
    def test_gap_separates_sessions(self):
        ctx = StubContext()
        op = count_op(assigner=EventTimeSessionWindows(2.0))
        for t in (1.0, 2.0, 8.0):
            feed(ctx, op, "x", event_time=t, key="k")
        advance_watermark(ctx, op, 50.0)
        got = sorted((r.start, r.end, r.value) for r in results(ctx))
        assert got == [(1.0, 4.0, 2), (8.0, 10.0, 1)]

    def test_bridge_element_merges_sessions(self):
        ctx = StubContext()
        op = count_op(assigner=EventTimeSessionWindows(2.0))
        feed(ctx, op, "x", event_time=1.0, key="k")
        feed(ctx, op, "x", event_time=5.0, key="k")
        feed(ctx, op, "x", event_time=3.0, key="k")  # bridges the two
        advance_watermark(ctx, op, 50.0)
        got = [(r.start, r.end, r.value) for r in results(ctx)]
        assert got == [(1.0, 7.0, 3)]


class TestCountAndGlobalWindows:
    def test_count_trigger_fires_every_n(self):
        ctx = StubContext()
        op = count_op(assigner=GlobalWindows(), trigger=CountTrigger(3))
        for i in range(7):
            feed(ctx, op, i, event_time=float(i), key="k")
        assert [r.value for r in results(ctx)] == [3, 3]

    def test_flush_emits_global_remainder(self):
        ctx = StubContext()
        op = count_op(assigner=GlobalWindows(), trigger=CountTrigger(3))
        for i in range(4):
            feed(ctx, op, i, event_time=float(i), key="k")
        op.flush(ctx)
        assert [r.value for r in results(ctx)] == [3, 1]


class TestPunctuationTrigger:
    def test_punctuation_closes_covered_windows(self):
        ctx = StubContext()
        op = count_op(trigger=PunctuationTrigger())
        feed(ctx, op, "a", event_time=1.0, key="k")
        feed(ctx, op, "b", event_time=15.0, key="k")
        op.on_punctuation(Punctuation(attribute="event_time", bound=10.0), ctx)
        fired = results(ctx)
        assert [(r.start, r.value) for r in fired] == [(0.0, 1)]


class TestEarlyFiring:
    def test_speculative_results_then_final(self):
        ctx = StubContext()
        op = count_op(trigger=EarlyFiringTrigger(interval=1.0))
        feed(ctx, op, "a", event_time=1.0, key="k")
        ctx.set_time(1.0)
        fire_processing_timers(ctx, op, 1.0)  # speculative fire: count=1
        feed(ctx, op, "b", event_time=2.0, key="k")
        advance_watermark(ctx, op, 10.0)  # final fire: count=2
        assert [r.value for r in results(ctx)] == [1, 2]


class TestEvictorAndApply:
    def test_count_evictor_keeps_last_n(self):
        ctx = StubContext()
        op = WindowOperator(
            TumblingEventTimeWindows(10.0),
            ProcessWindowFunction(lambda key, w, values: sum(values)),
            evictor=CountEvictor(2),
        )
        for i, v in enumerate([1, 2, 3, 4]):
            feed(ctx, op, v, event_time=float(i), key="k")
        advance_watermark(ctx, op, 10.0)
        [res] = results(ctx)
        assert res.value == 7  # last two elements: 3 + 4

    def test_evictor_requires_buffering_function(self):
        import pytest

        with pytest.raises(ValueError):
            WindowOperator(
                TumblingEventTimeWindows(10.0),
                AggregateFunction(lambda: 0, lambda a, v: a),
                evictor=CountEvictor(1),
            )


class _SameAsEventTime(EventTimeTrigger):
    """The watermark trigger under another type: the operator asks its
    ``on_event_time`` instead of deciding inline."""


class TestInlineWatermarkDecision:
    """For the plain ``EventTimeTrigger`` the operator decides a fire timer
    inline; that must stay what ``EventTimeTrigger.on_event_time`` says."""

    END = 10.0
    TIMESTAMPS = (
        5.0,
        math.nextafter(END, -math.inf),
        END,
        math.nextafter(END, math.inf),
        END + 3.0,
    )

    @staticmethod
    def _fire_once(trigger, timestamp, lateness):
        ctx = StubContext()
        op = count_op(trigger=trigger, allowed_lateness=lateness)
        feed(ctx, op, "a", event_time=1.0, key="k")
        op.on_event_timer(timestamp, "k", ("fire", TimeWindow(0.0, TestInlineWatermarkDecision.END)), ctx)
        return [(r.value, r.event_time) for r in emitted_records(ctx)], list(ctx.backend.keys(op._descriptor))

    @pytest.mark.parametrize("lateness", [0.0, 2.0])
    @pytest.mark.parametrize("timestamp", TIMESTAMPS)
    def test_inline_decision_matches_the_trigger(self, timestamp, lateness):
        assert count_op()._watermark_trigger and not count_op(trigger=_SameAsEventTime())._watermark_trigger
        inline = self._fire_once(EventTimeTrigger(), timestamp, lateness)
        asked = self._fire_once(_SameAsEventTime(), timestamp, lateness)
        assert inline == asked
        fires = EventTimeTrigger().on_event_time(timestamp, TimeWindow(0.0, self.END)) is not TriggerResult.CONTINUE
        assert bool(inline[0]) is fires
