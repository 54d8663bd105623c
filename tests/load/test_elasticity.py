"""DS2-style elasticity: model correctness and convergence."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink
from repro.io.sources import RateFunction, SensorWorkload
from repro.load.elasticity import DS2Controller
from repro.runtime.config import EngineConfig


def build_pipeline(rate, count=6000, cost=1e-3, parallelism=1):
    """A keyed count whose single instance saturates at ~1/cost rec/s."""
    env = StreamExecutionEnvironment(EngineConfig(default_channel_capacity=64))
    sink = CollectSink("out")
    # Plenty of keys: DS2's demand model assumes per-subtask load roughly
    # tracks the key-group fraction (its paper notes skew breaks this).
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


class TestModels:
    def test_true_rate_estimated_from_busy_time(self):
        env, _sink = build_pipeline(rate=500.0, count=1000, cost=1e-3)
        engine = env.build()
        controller = DS2Controller(engine, ["count"], interval=0.5, auto_apply=False)
        controller.start()
        env.execute(until=1.6)
        _source_rate, models = controller.build_models()
        model = models["count"]
        # True rate per instance should approximate 1/cost = 1000 rec/s.
        assert 700 < model.true_rate_per_instance < 1300


class TestConvergence:
    def test_scales_out_under_overload_and_settles(self):
        # Offered 3000 rec/s vs single-instance capacity ~1000 rec/s.
        # Expected trajectory: scale out fast (briefly overshooting while
        # the accumulated backlog drains at full speed), then settle at the
        # steady-state optimum ~4 instances (headroom 1.2) and stop moving.
        env, sink = build_pipeline(rate=3000.0, count=45000, cost=1e-3)
        engine = env.build()
        controller = DS2Controller(
            engine, ["count"], interval=0.5, headroom=1.2, max_parallelism=8
        )
        controller.start()
        env.execute(until=120.0)
        assert controller.reconfigurations >= 1
        final = len(engine.tasks_of("count"))
        assert 3 <= final <= 6, f"settled at {final}"
        # Convergence: few reconfigurations overall, and none in the last
        # stretch of the run (no hunting at steady state).
        changes = [d for d in controller.decisions if d.changed]
        assert len(changes) <= 5
        assert changes[-1].at < engine.now() - 3.0
        per_key = {}
        for result in sink.results:
            per_key[result.key] = max(per_key.get(result.key, 0), result.value)
        assert sum(per_key.values()) == 45000

    def test_no_scaling_when_provisioned_correctly(self):
        env, _sink = build_pipeline(rate=400.0, count=1200, cost=1e-3, parallelism=1)
        engine = env.build()
        controller = DS2Controller(engine, ["count"], interval=0.5, headroom=1.2)
        controller.start()
        env.execute(until=30.0)
        assert controller.reconfigurations == 0

