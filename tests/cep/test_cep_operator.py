"""CEP operator in the dataflow: keyed NFAs, matches downstream, snapshots."""

from helpers import StubContext, emitted_records, feed

from repro.cep.operator import CEPOperator
from repro.cep.patterns import Match, Pattern
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.events import Watermark
from repro.core.keys import field_selector
from repro.io.sources import TransactionWorkload


def fraud_pattern():
    return (
        Pattern.begin("probe", lambda v: v["amount"] < 20)
        .followed_by("burst", lambda v: v["amount"] > 500)
        .times_exactly(2)
        .within(30.0)
    )


class TestOperatorUnit:
    def test_per_key_isolation(self):
        op = CEPOperator(Pattern.begin("a", lambda v: v == "a").next("b", lambda v: v == "b"))
        ctx = StubContext()
        feed(ctx, op, "a", event_time=0.0, key="k1")
        feed(ctx, op, "a", event_time=1.0, key="k2")
        feed(ctx, op, "b", event_time=2.0, key="k2")  # strict: k2's a→b is contiguous per key
        matches = [r.value for r in emitted_records(ctx)]
        assert len(matches) == 1
        assert matches[0].key == "k2"

    def test_match_event_time_is_completion(self):
        op = CEPOperator(Pattern.begin("a", lambda v: v == "a").followed_by("b", lambda v: v == "b"))
        ctx = StubContext()
        feed(ctx, op, "a", event_time=1.0, key="k")
        feed(ctx, op, "b", event_time=5.0, key="k")
        [record] = emitted_records(ctx)
        assert record.event_time == 5.0

    def test_watermark_expires_windows(self):
        op = CEPOperator(
            Pattern.begin("a", lambda v: v == "a").followed_by("b", lambda v: v == "b").within(1.0)
        )
        ctx = StubContext()
        feed(ctx, op, "a", event_time=0.0, key="k")
        op.on_watermark(Watermark(10.0), ctx)
        assert op.total_active_runs == 0

    def test_snapshot_restore(self):
        pattern = Pattern.begin("a", lambda v: v == "a").followed_by("b", lambda v: v == "b")
        op = CEPOperator(pattern)
        ctx = StubContext()
        feed(ctx, op, "a", event_time=0.0, key="k")
        snapshot = op.snapshot_state()
        fresh = CEPOperator(pattern)
        fresh.restore_state(snapshot)
        ctx2 = StubContext()
        feed(ctx2, fresh, "b", event_time=1.0, key="k")
        assert len(emitted_records(ctx2)) == 1


class TestEndToEnd:
    def test_fraud_detection_pipeline(self):
        env = StreamExecutionEnvironment()
        workload = TransactionWorkload(
            count=4000, rate=2000.0, key_count=50, fraud_fraction=0.05, seed=13
        )
        sink = (
            env.from_workload(workload)
            .key_by(field_selector("card"))
            .pattern(fraud_pattern())
            .collect("alerts")
        )
        env.execute()
        assert len(sink.results) > 0
        for result in sink.results:
            match = result.value
            assert isinstance(match, Match)
            stages = match.by_stage()
            assert stages["probe"][0]["amount"] < 20
            assert all(v["amount"] > 500 for v in stages["burst"])
            assert match.duration <= 30.0
            # Alerts should concentrate on the injected fraud cards.
            card_id = int(match.key[1:])
            assert card_id % 20 == 0  # fraud_fraction 0.05 → every 20th key
