"""Metric-invariant oracle: monotone counters, channel accounting, record
conservation — checked across the chaos matrix with observability on."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chaos import ChaosRunner
from repro.chaos.oracles import MetricInvariantOracle
from repro.chaos.scenarios import standard_scenarios, supervised_scenarios
from repro.chaos.smoke import SMOKE_MATRIX
from repro.obs import MetricRegistry, Profiler

CHAINING = [
    pytest.param(chaining, id="chained" if chaining else "plain") for chaining in SMOKE_MATRIX
]


def scenario_params(scenarios):
    return [pytest.param(s, id=s.name) for s in scenarios]


class TestAcrossChaosMatrix:
    """The telemetry must stay honest under chaos at *any* seed: whatever
    the other oracles conclude about a schedule, ``metric-invariants``
    never fires, and turning observability on never changes a verdict."""

    @pytest.mark.parametrize("scenario", scenario_params(standard_scenarios()))
    @pytest.mark.parametrize("chaining", CHAINING)
    def test_default_mode_metrics_stay_sound(self, scenario, chaining, chaos_seed):
        runner = ChaosRunner(scenario, seed=chaos_seed, observability=True)
        report = runner.run_one(chaining, schedule_index=0)
        assert "metric-invariants" not in report.violated_oracles(), report.verdict()

    @pytest.mark.parametrize("scenario", scenario_params(supervised_scenarios()))
    @pytest.mark.parametrize("chaining", CHAINING)
    def test_supervised_mode_metrics_stay_sound(self, scenario, chaining, chaos_seed):
        runner = ChaosRunner(
            scenario, seed=chaos_seed, supervised=True, observability=True
        )
        report = runner.run_one(chaining, schedule_index=0)
        assert "metric-invariants" not in report.violated_oracles(), report.verdict()

    @pytest.mark.parametrize("scenario", scenario_params(standard_scenarios()))
    @pytest.mark.parametrize("chaining", CHAINING)
    def test_ci_seed_matrix_passes_with_observability(self, scenario, chaining):
        """The pinned CI slice (seed 0, both modes run in chaos_smoke.sh)
        must stay green with markers + tracing + profiling in band."""
        report = ChaosRunner(scenario, seed=0, observability=True).run_one(
            chaining, schedule_index=0
        )
        assert report.ok, report.verdict()

    def test_observability_does_not_change_the_verdict(self, chaos_seed):
        """In-band probes must be pure: the fault schedule, injection log,
        and every shared oracle's verdict match the probe-free run."""
        for scenario in standard_scenarios():
            plain = ChaosRunner(scenario, seed=chaos_seed + 3).run_one(
                True, schedule_index=0
            )
            probed = ChaosRunner(
                scenario, seed=chaos_seed + 3, observability=True
            ).run_one(True, schedule_index=0)
            assert plain.schedule.format() == probed.schedule.format()
            assert plain.injection_log == probed.injection_log
            assert plain.finished == probed.finished
            # The probed run checks a superset of oracles: adding probes
            # must neither add nor remove firings of the shared ones.
            assert plain.violated_oracles() == probed.violated_oracles() - {
                "metric-invariants"
            }


class TestOracleUnit:
    def test_detects_a_counter_regression(self):
        class FakeMetrics:
            records_in = 10
            records_out = 10
            watermarks_in = 0
            timers_fired = 0
            dropped = 0
            failures = 0
            busy_time = 1.0

        class FakeTask:
            name = "map[0]"
            metrics = FakeMetrics()
            output_gates = ()
            input_channel_count = 1

        class FakeKernel:
            def now(self):
                """Fixed probe time."""
                return 1.0

        class FakePlan:
            def channels(self):
                """No channels in the fake."""
                return ()

            def tasks(self):
                """All (one) tasks."""
                return list(FakeEngine.tasks.values())

        class FakeEngine:
            tasks = {"map[0]": FakeTask()}
            kernel = FakeKernel()
            plan = FakePlan()

        engine = FakeEngine()
        oracle = MetricInvariantOracle()
        assert oracle.probe(engine) == []
        FakeTask.metrics.records_in = 5  # counter went backwards
        violations = oracle.probe(engine)
        assert violations
        assert "records_in" in violations[0].describe()

    def test_detects_a_flame_path_regression(self):
        class FakeKernel:
            def now(self):
                """Fixed probe time."""
                return 1.0

        class FakePlan:
            def channels(self):
                """No channels in the fake."""
                return ()

        class FakeEngine:
            tasks = {}
            kernel = FakeKernel()
            obs = SimpleNamespace(registry=MetricRegistry("job"), profiler=Profiler())
            plan = FakePlan()

        engine = FakeEngine()
        engine.obs.profiler.charge("map[0];process", 0.5)
        oracle = MetricInvariantOracle()
        assert oracle.probe(engine) == []
        engine.obs.profiler.charge("map[0];process", 0.25)
        assert oracle.probe(engine) == []
        engine.obs.profiler.samples["map[0];process"] = 0.5  # total went backwards
        violations = oracle.probe(engine)
        assert violations
        assert "map[0];process" in violations[0].describe()
