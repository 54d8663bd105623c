"""Queryable state: snapshot isolation vs direct access, metric queries."""

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.errors import QueryableStateError
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.queryable.server import QueryableStateService
from repro.runtime.config import EngineConfig
from repro.state.api import ValueStateDescriptor


def build(parallelism=2, count=800):
    env = StreamExecutionEnvironment(EngineConfig())
    (
        env.from_workload(SensorWorkload(count=count, rate=4000.0, key_count=8, seed=2))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=parallelism)
        .sink(CollectSink("out"), parallelism=1)
    )
    return env


DESC = ValueStateDescriptor("count-acc")


class TestPointQueries:
    def test_query_during_execution(self):
        env = build()
        engine = env.build()
        service = QueryableStateService(engine)
        observed = []

        def ask():
            result = service.query("count", DESC, "s0")
            observed.append(result.value)

        engine.kernel.call_at(0.1, ask)
        env.execute()
        final = service.query("count", DESC, "s0").value
        assert observed[0] is not None
        assert observed[0] < final  # mid-run count below final

    def test_query_routes_to_owning_partition(self):
        env = build()
        engine = env.build()
        service = QueryableStateService(engine)
        env.execute()
        total = sum(
            service.query("count", DESC, f"s{i}").value or 0 for i in range(8)
        )
        assert total == 800

    def test_async_query_pays_latency(self):
        env = build(count=400)
        engine = env.build()
        service = QueryableStateService(engine, query_latency=5e-3)
        results = []
        engine.kernel.call_at(0.05, lambda: service.query("count", DESC, "s1", callback=results.append))
        env.execute()
        [result] = results
        assert abs(result.latency - 5e-3) < 1e-9

    def test_unknown_consistency_rejected(self):
        env = build(count=100)
        engine = env.build()
        service = QueryableStateService(engine)
        with pytest.raises(QueryableStateError):
            service.query("count", DESC, "s0", consistency="weird")


class TestIsolation:
    def build_list_state_pipeline(self):
        """Pipeline whose state is a mutable list — the torn-read hazard."""
        from repro.state.api import ListStateDescriptor

        env = StreamExecutionEnvironment(EngineConfig())
        desc = ListStateDescriptor("trail")

        def track(record, ctx):
            ctx.state(desc).add(record.value["seq"])
            ctx.emit(record)

        (
            env.from_workload(SensorWorkload(count=600, rate=4000.0, key_count=2, seed=4))
            .key_by(field_selector("sensor"))
            .process(track, name="track")
            .sink(CollectSink("out"))
        )
        return env, desc

    def test_snapshot_queries_are_isolated_from_mutation(self):
        env, desc = self.build_list_state_pipeline()
        engine = env.build()
        service = QueryableStateService(engine)
        captured = {}

        def ask():
            result = service.query("track", desc, "s0", consistency="snapshot")
            captured["snapshot"] = result.value
            captured["len_at_query"] = len(result.value)

        engine.kernel.call_at(0.05, ask)
        env.execute()
        # The pipeline kept appending after the query; a snapshot must not
        # have grown with it.
        assert len(captured["snapshot"]) == captured["len_at_query"]
        final = service.query("track", desc, "s0").value
        assert len(final) > len(captured["snapshot"])

    def test_direct_queries_expose_live_mutation(self):
        env, desc = self.build_list_state_pipeline()
        engine = env.build()
        service = QueryableStateService(engine)
        captured = {}

        def ask():
            result = service.query("track", desc, "s0", consistency="direct")
            captured["direct"] = result.value
            captured["len_at_query"] = len(result.value)

        engine.kernel.call_at(0.05, ask)
        env.execute()
        # The live reference mutated underneath the reader: torn read.
        assert len(captured["direct"]) > captured["len_at_query"]


class TestMetricQueries:
    def test_metrics_served_through_the_state_facade(self):
        env = build()
        engine = env.build()
        service = QueryableStateService(engine)
        mid_run = {}
        engine.kernel.call_at(
            0.05, lambda: mid_run.update(service.query_metrics())
        )
        env.execute()
        served_before = service.queries_served
        final = service.query_metrics()
        assert service.queries_served == served_before + 1
        # Mid-run snapshot is stamped with its query time and shows less
        # progress than the final one.
        assert mid_run["now"] < final["now"]
        count_in = f"{engine.obs.registry.job}/count/0/records_in"
        assert mid_run["metrics"][count_in] <= final["metrics"][count_in]

    def test_fragment_filters_metric_paths(self):
        env = build(count=100)
        engine = env.build()
        service = QueryableStateService(engine)
        env.execute()
        filtered = service.query_metrics(fragment="records_in")
        assert filtered["metrics"]
        assert all("records_in" in path for path in filtered["metrics"])
        everything = service.query_metrics()
        assert len(everything["metrics"]) > len(filtered["metrics"])
