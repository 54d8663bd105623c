"""Backpressure shows in the engine's own signals: a source stalled by credit
flow control accumulates ``TaskMetrics.blocked_time``, which obs publishes
as the ``blocked_time`` gauge, and each channel publishes its ``backlog``."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import EngineConfig
from repro.runtime.task import SourceTask


def run_pipeline(rate, count, cost=1e-3):
    """Keyed count saturating at ~1/cost rec/s, run to completion."""
    env = StreamExecutionEnvironment(EngineConfig(default_channel_capacity=64))
    (
        env.from_workload(SensorWorkload(count=count, rate=rate, key_count=512, seed=11), name="src")
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", processing_cost=cost)
        .sink(CollectSink("out"))
    )
    engine = env.build()
    # sample every channel's backlog gauge while the job runs
    backlogs = []

    def sample():
        metrics = engine.metrics_snapshot()["metrics"]
        backlogs.append(sum(v for k, v in metrics.items() if k.endswith("/backlog")))
        if not engine.job_finished:
            engine.kernel.call_after(0.05, sample)

    engine.kernel.call_at(0.05, sample)
    env.execute(until=30.0)
    assert engine.job_finished
    [source] = [t for t in engine.tasks.values() if isinstance(t, SourceTask)]
    gauge = engine.metrics_snapshot()["metrics"][f"{engine.obs.job}/src/0/blocked_time"]
    return source.metrics.blocked_time, gauge, backlogs


class TestSourceStall:
    def test_overloaded_pipeline_stalls_its_source(self):
        # Offered 4000 rec/s vs ~1000 rec/s capacity: backlog must build and
        # the source must stall for a measurable share of the run.
        blocked, gauge, backlogs = run_pipeline(rate=4000.0, count=2000)
        assert blocked > 0.1
        assert gauge == blocked
        assert max(backlogs) > 0

    def test_provisioned_pipeline_records_no_stall(self):
        blocked, gauge, backlogs = run_pipeline(rate=300.0, count=600)
        assert blocked == 0.0
        assert gauge == 0.0
        assert len(backlogs) > 5
