"""Deficit round-robin slot scheduling: fairness, weights, fast path."""

from fabric_helpers import keyed_count_env

from repro.fabric import FabricConfig, JobFabric


class TestFastPath:
    def test_no_contention_means_no_preemptions(self):
        """slots >= tenants: nobody is ever suspended and the scheduler
        adds zero events beyond the admissions themselves."""
        fabric = JobFabric(FabricConfig(slots=8, quantum=0.05))
        for i in range(5):
            env, _ = keyed_count_env(f"job{i}", seed=i, count=60)
            fabric.submit(env)
        result = fabric.run()
        summary = result.summary()
        assert summary["preemptions"] == 0
        assert summary["admissions"] == 5
        for handle in result.tenants.values():
            assert handle.slices == 1

    def test_contention_rotates_every_tenant(self):
        fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
        for i in range(4):
            env, _ = keyed_count_env(f"job{i}", seed=i, count=100)
            fabric.submit(env)
        result = fabric.run()
        assert result.all_finished
        summary = result.summary()
        assert summary["preemptions"] > 0
        # Everyone got multiple slices — nobody ran to completion while
        # others starved.
        for handle in result.tenants.values():
            assert handle.slices > 1


class TestFairness:
    def test_equal_weights_share_equally(self):
        """Long-running equal tenants on one slot consume slot time within
        a quantum of each other while all are live."""
        fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
        for i in range(3):
            env, _ = keyed_count_env(f"job{i}", seed=i, count=400, rate=2000.0)
            fabric.submit(env)
        result = fabric.run()
        consumed = [h.consumed for h in result.tenants.values()]
        assert max(consumed) - min(consumed) < 0.05, consumed

    def test_weight_buys_proportional_share(self):
        """A weight-3 tenant gets 3x-long slices, so while both compete for
        the single slot it makes ~3x the progress: when it finishes, the
        weight-1 neighbour has consumed roughly a third as much slot time."""
        fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
        heavy_env, _ = keyed_count_env("heavy", seed=0, count=300, rate=2000.0)
        heavy = fabric.submit(heavy_env, weight=3.0)
        light_env, _ = keyed_count_env("light", seed=1, count=300, rate=2000.0)
        fabric.submit(light_env, weight=1.0)

        at_first_finish = {}

        def capture(_engine):
            if at_first_finish:
                return
            for tenant in (handle._tenant for handle in fabric.tenants.values()):
                consumed = tenant.consumed
                if tenant.state == "running":
                    consumed += fabric.kernel.now() - tenant.admitted_at
                at_first_finish[tenant.name] = consumed

        for handle in (heavy, fabric.tenant("light")):
            handle.engine.on_finish_callbacks.append(capture)

        result = fabric.run()
        assert result.all_finished
        ratio = at_first_finish["heavy"] / max(at_first_finish["light"], 1e-9)
        assert ratio > 1.8, at_first_finish

    def test_crash_looping_tenant_burns_only_its_own_quanta(self):
        """A tenant stuck in a kill/restart loop still rotates on schedule;
        its neighbour's total slot time is unaffected (within a quantum)."""
        from repro.fault.injection import FailureInjector

        def victim_consumed(with_crasher: bool) -> float:
            fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
            venv, _ = keyed_count_env("victim", seed=1, count=200, rate=2000.0)
            fabric.submit(venv)
            if with_crasher:
                cenv, _ = keyed_count_env("crasher", seed=2, count=200, rate=2000.0)
                crasher = fabric.submit(cenv)
                injector = FailureInjector(crasher.engine)
                for k in range(5):
                    injector.schedule_kill("count[0]", 0.01 + 0.02 * k)
                injector.on_detection(
                    lambda event: crasher.engine.restart_from_scratch()
                )
            else:
                nenv, _ = keyed_count_env("neighbour", seed=2, count=200, rate=2000.0)
                fabric.submit(nenv)
            result = fabric.run()
            assert result.tenant("victim").state == "done"
            return result.tenant("victim").consumed

        calm = victim_consumed(with_crasher=False)
        noisy = victim_consumed(with_crasher=True)
        assert abs(noisy - calm) < 0.05, (calm, noisy)


class TestQuota:
    def test_quota_enforced_even_without_contention(self):
        """The runtime cap holds on an idle fabric too — checks stay armed
        for capped tenants after contention ends."""
        fabric = JobFabric(FabricConfig(slots=4, quantum=0.02))
        env, _ = keyed_count_env("hog", count=100_000, rate=2000.0)
        fabric.submit(env, runtime_quota=0.1)
        result = fabric.run()
        assert result.tenant("hog").state == "failed"
        assert fabric.scheduler.quota_evictions == 1
