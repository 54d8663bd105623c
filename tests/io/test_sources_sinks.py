"""Workload generators and sinks."""

import pytest

from helpers import StubContext

from repro.core.events import Record, RecordBatch
from repro.io.sinks import CollectSink, DedupSink, SinkResult, TransactionalSink, latency_stats
from repro.io.sources import (
    ClickstreamWorkload,
    CollectionWorkload,
    GraphEdgeWorkload,
    OrderWorkload,
    RateFunction,
    RideWorkload,
    SensorWorkload,
    TransactionWorkload,
)


class TestWorkloadDeterminism:
    @pytest.mark.parametrize(
        "workload_cls", [SensorWorkload, ClickstreamWorkload, TransactionWorkload, RideWorkload, OrderWorkload]
    )
    def test_same_seed_replays_identically(self, workload_cls):
        a = workload_cls(count=50, seed=9)
        b = workload_cls(count=50, seed=9)
        assert a.take(50) == b.take(50)

    def test_different_seeds_differ(self):
        a = SensorWorkload(count=50, seed=1).take(50)
        b = SensorWorkload(count=50, seed=2).take(50)
        assert a != b

    def test_event_times_lag_arrivals_by_at_most_disorder(self):
        workload = SensorWorkload(count=200, rate=100.0, disorder=0.5, seed=3)
        arrival = 0.0
        for event in workload.events():
            arrival += event.inter_arrival
            assert event.event_time <= arrival + 1e-9
            assert event.event_time >= arrival - 0.5 - 1e-9

    def test_zero_disorder_is_ordered(self):
        workload = SensorWorkload(count=100, disorder=0.0, seed=4)
        times = [e.event_time for e in workload.events()]
        assert times == sorted(times)


class TestRateFunctions:
    def test_step_profile(self):
        fn = RateFunction.step(base=100.0, peak=500.0, start=1.0, end=2.0)
        assert fn(0.5) == 100.0
        assert fn(1.5) == 500.0
        assert fn(2.5) == 100.0

    def test_sine_stays_positive(self):
        fn = RateFunction.sine(base=10.0, amplitude=50.0, period=1.0)
        assert all(fn(t / 10) > 0 for t in range(20))

    def test_step_workload_bursts(self):
        workload = SensorWorkload(
            count=2000, rate=RateFunction.step(500.0, 5000.0, 0.5, 1.0), seed=5
        )
        arrivals = []
        t = 0.0
        for event in workload.events():
            t += event.inter_arrival
            arrivals.append(t)
        in_burst = sum(1 for a in arrivals if 0.5 <= a < 1.0)
        before = sum(1 for a in arrivals if 0.0 <= a < 0.5)
        assert in_burst > 3 * before


class TestDomainPayloads:
    def test_transactions_have_fraud_labels(self):
        workload = TransactionWorkload(count=500, key_count=100, fraud_fraction=0.05, seed=6)
        events = workload.take(500)
        labels = {e.value["label"] for e in events}
        assert labels == {0, 1}
        fraud_cards = {e.value["card"] for e in events if e.value["label"] == 1}
        assert all(int(card[1:]) % 20 == 0 for card in fraud_cards)

    def test_graph_edges_no_self_loops(self):
        workload = GraphEdgeWorkload(count=300, vertex_count=10, delete_fraction=0.2, seed=7)
        for event in workload.events():
            assert event.value["u"] != event.value["v"]
        ops = {e.value["op"] for e in workload.events()}
        assert ops == {"insert", "delete"}

    def test_collection_timestamps(self):
        workload = CollectionWorkload([10, 20], timestamps=[1.0, 2.0])
        events = workload.take(2)
        assert [e.event_time for e in events] == [1.0, 2.0]
        callable_workload = CollectionWorkload([10, 20], timestamps=lambda i, v: v / 10)
        assert [e.event_time for e in callable_workload.take(2)] == [1.0, 2.0]


class TestSinks:
    def test_collect_sink_latency(self):
        sink = CollectSink()
        ctx = StubContext()
        ctx.set_time(1.5)
        sink.write(Record(value="x", ingest_time=1.0), ctx)
        assert sink.latencies() == [0.5]

    def test_sink_result_is_slotted_and_keeps_its_surface(self):
        result = SinkResult("x", 2.0, 1.5, 1.0, "k", -1)
        assert not hasattr(result, "__dict__")
        assert result.latency == 0.5
        assert SinkResult("x", None, 1.5).latency is None
        assert result == SinkResult(
            value="x", event_time=2.0, emitted_at=1.5, ingest_time=1.0, key="k", sign=-1
        )
        assert result != SinkResult("x", 2.0, 1.5, 1.0, "k", 1)
        assert repr(result) == (
            "SinkResult(value='x', event_time=2.0, emitted_at=1.5, "
            "ingest_time=1.0, key='k', sign=-1)"
        )

    @pytest.mark.parametrize("sink_type", [CollectSink, TransactionalSink])
    def test_every_write_path_copies_the_record_field_for_field(self, sink_type):
        # The sinks build results positionally: a swapped argument would
        # still construct, so pin each field through write and write_batch.
        rows = [
            Record("a", 2.0, "k", -1, 1.0),
            Record("b", 3.0, "j", 1, 1.25),
        ]
        ctx = StubContext()
        ctx.set_time(1.5)
        expected = [SinkResult(r.value, r.event_time, 1.5, r.ingest_time, r.key, r.sign) for r in rows]
        for write in (
            lambda sink: [sink.write(r, ctx) for r in rows],
            lambda sink: sink.write_batch(RecordBatch.from_records(rows), ctx),
        ):
            sink = sink_type()
            write(sink)
            sink.flush(ctx)
            assert (sink.results if sink_type is CollectSink else sink.committed) == expected

    def test_latency_stats_percentiles(self):
        stats = latency_stats([float(i) for i in range(1, 101)])
        assert stats.p50 == 50.0
        assert stats.p99 == 99.0
        assert stats.max == 100.0
        assert latency_stats([]).count == 0

    def test_consolidated_values_apply_retractions(self):
        sink = CollectSink()
        ctx = StubContext()
        sink.write(Record(value="a", key="k"), ctx)
        sink.write(Record(value="b", key="k"), ctx)
        sink.write(Record(value="a", key="k", sign=-1), ctx)
        assert sink.consolidated_values() == ["b"]
        assert sink.retraction_count() == 1

    def test_dedup_sink_counts_duplicates(self):
        sink = DedupSink()
        ctx = StubContext()
        for value in ["a", "b", "a"]:
            sink.write(Record(value=value), ctx)
        assert sink.duplicates == 1
        assert sink.unique_count() == 2

    def test_transactional_sink_two_phase_visibility(self):
        sink = TransactionalSink()
        ctx = StubContext()
        sink.write(Record(value=1), ctx)
        sink.on_checkpoint(1)
        sink.write(Record(value=2), ctx)
        assert sink.values() == []  # nothing visible yet
        sink.on_checkpoint_complete(1)
        assert sink.values() == [1]
        sink.on_recovery()  # value 2 was uncommitted: gone
        sink.on_checkpoint(2)
        sink.on_checkpoint_complete(2)
        assert sink.values() == [1]

    def test_transactional_sink_flush_publishes_tail(self):
        sink = TransactionalSink()
        ctx = StubContext()
        sink.write(Record(value=1), ctx)
        sink.flush(ctx)
        assert sink.values() == [1]
