"""Out-of-order handling: K-slack buffering, slack reorder, punctuations."""

from helpers import StubContext, emitted_records, feed

from repro.core.events import Punctuation, Record, Watermark
from repro.progress.ooo import KSlackBufferOperator, disorder_profile
from repro.progress.punctuations import PunctuationFilter, PunctuationInjector
from repro.progress.slack import SlackReorderOperator


class TestKSlack:
    def feed_all(self, op, times):
        ctx = StubContext()
        for i, t in enumerate(times):
            feed(ctx, op, {"i": i}, event_time=t)
        op.flush(ctx)
        return ctx

    def test_output_is_in_event_time_order(self):
        op = KSlackBufferOperator(initial_k=0.0, adaptive=True)
        ctx = self.feed_all(op, [1.0, 3.0, 2.0, 5.0, 4.0, 6.0])
        out_times = [r.event_time for r in emitted_records(ctx)]
        assert out_times == sorted(out_times)

    def test_adaptive_k_learns_max_lag(self):
        op = KSlackBufferOperator(initial_k=0.0, adaptive=True)
        self.feed_all(op, [1.0, 5.0, 2.0])  # lag of 3 observed
        assert op.k == 3.0

    def test_non_adaptive_drops_beyond_k(self):
        op = KSlackBufferOperator(initial_k=0.5, adaptive=False)
        ctx = self.feed_all(op, [1.0, 2.0, 3.0, 1.2])  # 1.2 arrives after release line 2.5
        assert op.dropped_late == 1
        assert len(ctx.side.get("late", [])) == 1

    def test_regenerates_watermarks(self):
        op = KSlackBufferOperator(initial_k=1.0, adaptive=False)
        ctx = self.feed_all(op, [1.0, 2.0, 3.0])
        watermarks = [e for e in ctx.emitted if isinstance(e, Watermark)]
        assert watermarks
        assert watermarks[-1].timestamp == 3.0

    def test_upstream_watermarks_swallowed_except_final(self):
        op = KSlackBufferOperator(initial_k=1.0)
        ctx = StubContext()
        op.on_watermark(Watermark(5.0), ctx)
        assert not ctx.emitted
        op.on_watermark(Watermark(float("inf")), ctx)
        assert Watermark(float("inf")) in ctx.emitted


class TestSlackReorder:
    def test_slack_positions_reorder(self):
        op = SlackReorderOperator(slack=2)
        ctx = StubContext()
        for t in [3.0, 1.0, 2.0, 4.0, 5.0]:
            feed(ctx, op, t, event_time=t)
        op.flush(ctx)
        assert [r.event_time for r in emitted_records(ctx)] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_zero_slack_drops_disorder(self):
        op = SlackReorderOperator(slack=0)
        ctx = StubContext()
        for t in [2.0, 1.0, 3.0]:
            feed(ctx, op, t, event_time=t)
        op.flush(ctx)
        assert op.dropped_late == 1
        assert [r.event_time for r in emitted_records(ctx)] == [2.0, 3.0]

    def test_snapshot_restore_roundtrip(self):
        op = SlackReorderOperator(slack=3)
        ctx = StubContext()
        for t in [5.0, 3.0]:
            feed(ctx, op, t, event_time=t)
        snapshot = op.snapshot_state()
        fresh = SlackReorderOperator(slack=3)
        fresh.restore_state(snapshot)
        assert fresh.buffered == 2


class TestPunctuations:
    def test_injector_emits_bounded_punctuations(self):
        op = PunctuationInjector(every_n=2, disorder_bound=1.0)
        ctx = StubContext()
        for t in [1.0, 2.0, 3.0, 4.0]:
            feed(ctx, op, {"t": t}, event_time=t)
        puncts = [e for e in ctx.emitted if isinstance(e, Punctuation)]
        assert [p.bound for p in puncts] == [1.0, 3.0]

    def test_filter_drops_closed_out_records(self):
        op = PunctuationFilter()
        ctx = StubContext()
        feed(ctx, op, "a", event_time=1.0)
        op.on_punctuation(Punctuation(attribute="event_time", bound=2.0), ctx)
        feed(ctx, op, "late", event_time=1.5)
        feed(ctx, op, "ok", event_time=3.0)
        assert op.violations == 1
        assert [r.value for r in emitted_records(ctx)] == ["a", "ok"]


class TestDisorderProfile:
    def test_ordered_stream_has_no_disorder(self):
        stats = disorder_profile([1.0, 2.0, 3.0])
        assert stats.out_of_order == 0
        assert stats.disorder_fraction == 0.0

    def test_lags_measured(self):
        stats = disorder_profile([1.0, 5.0, 2.0, 6.0, 4.0])
        assert stats.out_of_order == 2
        assert stats.max_lag == 3.0
        assert 0 < stats.disorder_fraction < 1
