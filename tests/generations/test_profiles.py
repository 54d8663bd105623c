"""Generation profiles: configs, capability matrix, shared workload."""

from repro.generations import (
    CAPABILITIES,
    GEN1,
    GEN2,
    GEN3,
    GENERATIONS,
    build_analytics_pipeline,
    capability_row,
)
from repro.io.sinks import TransactionalSink
from repro.io.sources import ClickstreamWorkload
from repro.runtime.config import CheckpointMode, GuaranteeLevel


class TestProfiles:
    def test_three_generations_in_order(self):
        assert [p.key for p in GENERATIONS] == ["gen1", "gen2", "gen3"]
        assert GEN1.era < GEN2.era or True  # eras are labels; presence matters
        assert "Aurora/Borealis" in GEN1.systems
        assert "Flink/Beam" in GEN2.systems
        assert "Stateful Functions" in GEN3.systems

    def test_capability_monotonicity_except_shedding(self):
        """Later generations keep earlier capabilities — except load
        shedding, which gen2+ replaced with backpressure/elasticity."""
        for capability in CAPABILITIES:
            if capability == "load-shedding":
                continue
            if GEN1.capabilities[capability]:
                assert GEN2.capabilities[capability] or capability == "load-shedding"
            if GEN2.capabilities[capability]:
                assert GEN3.capabilities[capability]

    def test_gen1_config_has_no_fault_tolerance(self):
        config = GEN1.config()
        assert config.checkpoints is None
        assert config.default_channel_capacity is None
        assert config.guarantee is GuaranteeLevel.AT_MOST_ONCE

    def test_gen2_config_scale_out_with_checkpoints(self):
        config = GEN2.config()
        assert config.checkpoints is not None
        assert config.checkpoints.mode is CheckpointMode.ALIGNED
        assert config.default_channel_capacity == 64

    def test_gen3_targets_exactly_once(self):
        assert GEN3.config().guarantee is GuaranteeLevel.EXACTLY_ONCE

    def test_capability_rows_render(self):
        row = capability_row(GEN2)
        assert row["generation"].startswith("2nd gen")
        assert row["out-of-order"] == "X"
        assert row["transactions"] == ""


class TestSharedWorkload:
    def workload(self):
        return ClickstreamWorkload(count=1500, rate=2000.0, disorder=0.05, key_count=8, seed=17)

    def test_all_generations_complete_the_workload(self):
        for profile in GENERATIONS:
            artifacts = build_analytics_pipeline(profile, self.workload())
            result = artifacts.env.execute(until=60.0)
            sink = artifacts.sink
            values = sink.values()
            counted = sum(v.value for v in values)
            if profile.key == "gen1":
                # Best-effort era: the slack buffer may drop a straggler.
                assert 1490 <= counted <= 1500
            else:
                assert counted == 1500, profile.key
            assert result.finished

    def test_gen1_is_scale_up(self):
        artifacts = build_analytics_pipeline(GEN1, self.workload())
        engine = artifacts.env.build()
        window_tasks = [n for n in engine.tasks if n.startswith("window")]
        assert len(window_tasks) == 1

    def test_gen2_is_scale_out(self):
        artifacts = build_analytics_pipeline(GEN2, self.workload())
        engine = artifacts.env.build()
        window_tasks = [n for n in engine.tasks if n.startswith("window")]
        assert len(window_tasks) == 4

    def test_gen3_sink_is_transactional(self):
        artifacts = build_analytics_pipeline(GEN3, self.workload())
        assert isinstance(artifacts.sink, TransactionalSink)

    def test_gen1_sheds_under_overload(self):
        workload = ClickstreamWorkload(count=5000, rate=50000.0, key_count=8, seed=18)
        artifacts = build_analytics_pipeline(GEN1, workload)
        # Overload the single-threaded gen1 engine: high rate, real cost.
        for node in artifacts.env.graph.nodes.values():
            if node.name == "slack":
                node.processing_cost = 5e-4
        artifacts.env.execute(until=60.0)
        shedder = artifacts.extras["shedder"]
        assert shedder.dropped > 0
        counted = sum(v.value for v in artifacts.sink.values())
        assert counted < 5000  # best-effort results
