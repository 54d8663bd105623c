"""BackpressureMonitor analysis accessors and lifecycle (satellite of the
observability tentpole: the rollups double as registry gauges)."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.load.backpressure import BackpressureMonitor, source_slowdown
from repro.runtime.config import EngineConfig


def build_pipeline(rate, count=2000, cost=1e-3, parallelism=1):
    """Keyed count saturating at ~1/cost rec/s per instance."""
    env = StreamExecutionEnvironment(
        EngineConfig(default_channel_capacity=64)
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=count, rate=rate, key_count=512, seed=11))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=parallelism, processing_cost=cost,
        )
        .sink(sink, parallelism=1)
    )
    return env, sink


class TestAnalysisAccessors:
    def test_empty_monitor_reports_zeroes(self):
        env, _sink = build_pipeline(rate=100.0, count=10)
        monitor = BackpressureMonitor(env.build())
        # Never started: no samples, every rollup must degrade to zero.
        assert monitor.samples == []
        assert monitor.peak_backlog() == 0
        assert monitor.source_paused_fraction() == 0.0
        assert monitor.blocked_fraction() == 0.0

    def test_overloaded_pipeline_registers_pressure(self):
        # Offered 4000 rec/s vs ~1000 rec/s capacity: backlog must build,
        # the operator must block, and the source must stall.
        env, _sink = build_pipeline(rate=4000.0)
        engine = env.build()
        monitor = BackpressureMonitor(engine, interval=0.05)
        monitor.start()
        env.execute(until=30.0)
        assert len(monitor.samples) > 5
        assert monitor.peak_backlog() > 0
        assert 0.0 < monitor.blocked_fraction() <= 1.0
        assert 0.0 < monitor.source_paused_fraction() <= 1.0
        assert source_slowdown(engine) > 0.1

    def test_provisioned_pipeline_stays_calm(self):
        env, _sink = build_pipeline(rate=300.0, count=600)
        engine = env.build()
        monitor = BackpressureMonitor(engine, interval=0.05)
        monitor.start()
        env.execute(until=30.0)
        assert monitor.source_paused_fraction() == 0.0
        assert monitor.blocked_fraction() == 0.0


class TestLifecycle:
    def test_stop_halts_sampling(self):
        env, _sink = build_pipeline(rate=4000.0)
        engine = env.build()
        monitor = BackpressureMonitor(engine, interval=0.05)
        monitor.start()
        engine.kernel.call_at(0.3, monitor.stop)
        env.execute(until=30.0)
        count_at_stop = len(monitor.samples)
        assert 0 < count_at_stop <= 7  # ~0.3s / 0.05s
        assert all(sample.at <= 0.3 for sample in monitor.samples)

    def test_stop_before_start_is_harmless(self):
        env, _sink = build_pipeline(rate=100.0, count=10)
        monitor = BackpressureMonitor(env.build())
        monitor.stop()  # no timer yet

    def test_sampling_self_cancels_when_job_finishes(self):
        env, _sink = build_pipeline(rate=2000.0, count=400)
        engine = env.build()
        monitor = BackpressureMonitor(engine, interval=0.05)
        monitor.start()
        env.execute(until=60.0)
        assert engine.job_finished
        finish = engine.kernel.now()
        assert all(sample.at <= finish for sample in monitor.samples)


class TestRegistryIntegration:
    def test_rollups_appear_in_the_engine_snapshot(self):
        env, _sink = build_pipeline(rate=4000.0)
        engine = env.build()
        monitor = BackpressureMonitor(engine, interval=0.05)
        monitor.start()
        env.execute(until=30.0)
        metrics = engine.metrics_snapshot()["metrics"]
        job = engine.obs.registry.job
        assert metrics[f"{job}/backpressure/0/samples"] == len(monitor.samples)
        assert metrics[f"{job}/backpressure/0/peak_backlog"] == monitor.peak_backlog()
        assert (
            metrics[f"{job}/backpressure/0/blocked_fraction"]
            == monitor.blocked_fraction()
        )
        assert (
            metrics[f"{job}/backpressure/0/source_paused_fraction"]
            == monitor.source_paused_fraction()
        )
