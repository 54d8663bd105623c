"""Exact equivalence pins for the recovery verbs.

Every value below was recorded on the implementation in which each recovery
granularity (global, regional, from scratch, without replay, job failure)
was its own hand-written engine path. The one restart routine that replaced
them must reproduce each verb's observable behaviour exactly: the sink
output (values and virtual emission times), the resume time the verb
reports, the bytes its restore pulls, the kernel's event count and the
final execution epoch. The standby and upstream-backup scenarios pin the
shared task-revival helper.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.fault.guarantees import config_for_guarantee
from repro.fault.standby import ActiveStandby, PassiveStandby
from repro.fault.upstream import UpstreamBackup
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import CollectionWorkload, SensorWorkload
from repro.load.migration import Rescaler
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, EngineConfig, GuaranteeLevel
from repro.windows import TumblingEventTimeWindows

#: scenario -> (sink digest, resume_at, restore bytes, kernel events,
#: execution epoch)
PINS = {
    "global": (
        "90b302b0571318766b5b7721b6f56de727c28dba103d278f735c4da9c2019ad1",
        0.215001776,
        888,
        11022,
        1,
    ),
    "global-incremental": (
        "791368dc4c6049e7c3a715faf7cd3bce29a0b5d12dbd02f74730734e35ad6120",
        0.33500735200000004,
        3676,
        11043,
        1,
    ),
    "global-after-scale-out": (
        "f417c49838050a42cdb0970f7c682144c362c46952802a5ad2150608d623b7d8",
        0.19500177600000002,
        888,
        12551,
        1,
    ),
    "global-after-scale-in": (
        "2d9bcce08becac38d867ff1ec6accd69be74d37579d7c17b9a73f2097a617430",
        0.195002032,
        1016,
        12506,
        1,
    ),
    "region-slice": (
        "33b01bcf9c9559378ae32d903338c30f2ecd5cd51fc4da2ed87cabd91261553e",
        0.055000384,
        192,
        974,
        1,
    ),
    "scratch": (
        "f8c019b6d9c52ae58c7358af74fd6d169b5c57738e5dbaf160b595e69fa443b6",
        0.015,
        0,
        619,
        1,
    ),
    "without-replay": (
        "a9e72b24f4f7e9d9a296bf972df5a9dcc397ed0ce5a62b36cee61d4d966006de",
        None,
        0,
        847,
        1,
    ),
    "fail-job": (
        "93402228789042fbe0de1a2402b3962a297465945fa9fa60f8ae80455d0378ae",
        None,
        0,
        642,
        1,
    ),
    "active-standby-promote": (
        "2b2d939db898ff6fb3df93c4a8c43395c301ca959d354d39abcf9df0383c1ade",
        0.082,
        0,
        3684,
        0,
    ),
    "passive-standby": (
        "8403319a9f28867299925b181cfe259dfd133f0bd394b26faac7dbad66905129",
        0.100000296,
        148,
        3510,
        0,
    ),
    "upstream-backup": (
        "aa806390c99d6a20f9fafae94535efc43e20afb298c7a109abbe716f43a44567",
        0.155,
        0,
        7997,
        0,
    ),
}


def _digest(results) -> str:
    rows = [(r.key, r.value, r.event_time, r.emitted_at) for r in results]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _keyed_count(parallelism=2, interval=0.02, incremental=False):
    """src -> HASH -> count (p) -> sink, exactly-once checkpoints."""
    env = StreamExecutionEnvironment(
        EngineConfig(
            seed=4,
            default_channel_capacity=64,
            checkpoints=CheckpointConfig(
                interval=interval, incremental=incremental, write_base_cost=5e-3
            ),
        ),
        name="rq",
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=1500, rate=3000.0, key_count=24, seed=41))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1,
            name="count", parallelism=parallelism, processing_cost=1e-4,
        )
        .sink(sink, parallelism=1)
    )
    return env, env.build(), sink


def _sliced(level=GuaranteeLevel.AT_LEAST_ONCE, parallelism=2, sink=None):
    """FORWARD src -> double -> out, one failover region per slice."""
    config = config_for_guarantee(
        level, checkpoint_interval=0.02, seed=5, chaining_enabled=False
    )
    env = StreamExecutionEnvironment(config, name="regional")
    sink = sink if sink is not None else CollectSink("out")
    (
        env.from_workload(
            CollectionWorkload(list(range(120)), rate=2000.0), name="src",
            parallelism=parallelism,
        )
        .map(lambda v: v * 2, name="double", parallelism=parallelism)
        .sink(sink, name="out", parallelism=parallelism)
    )
    return env.build(), sink


def _global_restore(engine, victim):
    """Kill ``victim`` and restore the job from its latest checkpoint."""
    observed = {}

    def fail():
        engine.kill_task(victim)
        observed["bytes"] = engine.restore_bytes(engine.latest_checkpoint())
        observed["resume_at"] = engine.recover_from_checkpoint()

    return observed, fail


def _finish(engine, sink_results, observed):
    assert engine.job_finished or engine.job_failed
    return (
        _digest(sink_results),
        observed.get("resume_at"),
        observed.get("bytes", 0),
        engine.kernel.dispatched_events,
        engine.execution_epoch,
    )


def scenario_global():
    _env, engine, sink = _keyed_count()
    observed, fail = _global_restore(engine, "count[0]")
    engine.kernel.call_at(0.21, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.results, observed)


def scenario_global_incremental():
    _env, engine, sink = _keyed_count(incremental=True)
    observed, fail = _global_restore(engine, "count[1]")
    engine.kernel.call_at(0.33, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.results, observed)


def _rescaled_restore(parallelism, target):
    # The checkpoint restored from (t=0.1) predates the rescale (t=0.15), so
    # the restore must re-home keyed state to the current layout.
    _env, engine, sink = _keyed_count(parallelism=parallelism, interval=0.1)
    rescaler = Rescaler(engine)
    engine.kernel.call_at(0.15, lambda: rescaler.rescale("count", target))
    observed, fail = _global_restore(engine, "count[0]")
    engine.kernel.call_at(0.19, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.results, observed)


def scenario_global_after_scale_out():
    return _rescaled_restore(2, 4)


def scenario_global_after_scale_in():
    return _rescaled_restore(3, 1)


def scenario_region_slice():
    engine, sink = _sliced()
    region = ["src[0]", "double[0]", "out[0]"]
    observed = {}

    def fail():
        engine.kill_task("double[0]")
        observed["bytes"] = engine.restore_bytes(engine.latest_checkpoint(), set(region))
        observed["resume_at"] = engine.recover_region(region)

    engine.kernel.call_at(0.05, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.results, observed)


def scenario_scratch():
    engine, sink = _sliced(
        GuaranteeLevel.EXACTLY_ONCE, parallelism=1, sink=TransactionalSink("out")
    )
    observed = {}

    def fail():
        engine.kill_task("double[0]")
        observed["resume_at"] = engine.restart_from_scratch()

    engine.kernel.call_at(0.015, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.committed, observed)


def scenario_without_replay():
    engine, sink = _sliced(GuaranteeLevel.AT_MOST_ONCE)

    def fail():
        engine.kill_task("double[0]")
        engine.recover_without_replay()

    engine.kernel.call_at(0.03, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.results, {})


def scenario_fail_job():
    engine, sink = _sliced(GuaranteeLevel.EXACTLY_ONCE, sink=TransactionalSink("out"))
    engine.kernel.call_at(0.045, lambda: engine.fail_job("budget"))
    engine.run(until=30.0)
    return _finish(engine, sink.committed, {})


def _standby_job():
    env = StreamExecutionEnvironment(EngineConfig(checkpoints=CheckpointConfig(interval=0.05)))
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=600, rate=4000.0, key_count=4, seed=1))
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count")
        .sink(sink)
    )
    return env.build(), sink


def scenario_active_standby_promote():
    engine, sink = _standby_job()
    standby = ActiveStandby(engine, "count[0]", switchover_delay=2e-3)
    standby.arm()
    observed = {}

    def fail():
        engine.kill_task("count[0]")
        observed["resume_at"] = standby.promote().resumed_at

    engine.kernel.call_at(0.08, fail)
    engine.run(until=10.0)
    return _finish(engine, sink.results, observed)


def scenario_passive_standby():
    engine, sink = _standby_job()
    standby = PassiveStandby(engine, "count[0]", deploy_delay=0.02)
    observed = {}

    def fail():
        report = standby.fail_and_recover()
        observed["resume_at"] = report.resumed_at
        observed["bytes"] = report.restored_bytes

    engine.kernel.call_at(0.08, fail)
    engine.run(until=10.0)
    return _finish(engine, sink.results, observed)


def scenario_upstream_backup():
    env = StreamExecutionEnvironment(EngineConfig(seed=41), name="ub")
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=1200, rate=4000.0, key_count=4, seed=151),
            watermarks=BoundedOutOfOrderness(0.02),
        )
        .map(lambda v: v, name="pre")
        .key_by(field_selector("sensor"), name="kb")
        .window(TumblingEventTimeWindows(0.2))
        .count()
        .sink(sink)
    )
    engine = env.build()
    backup = UpstreamBackup(engine, "kb[0]", "window-count[0]", retention=0.3)
    observed = {}

    def fail():
        observed["resume_at"] = backup.fail_and_recover().resumed_at

    engine.kernel.call_at(0.15, fail)
    engine.run(until=30.0)
    return _finish(engine, sink.results, observed)


SCENARIOS = {
    "global": scenario_global,
    "global-incremental": scenario_global_incremental,
    "global-after-scale-out": scenario_global_after_scale_out,
    "global-after-scale-in": scenario_global_after_scale_in,
    "region-slice": scenario_region_slice,
    "scratch": scenario_scratch,
    "without-replay": scenario_without_replay,
    "fail-job": scenario_fail_job,
    "active-standby-promote": scenario_active_standby_promote,
    "passive-standby": scenario_passive_standby,
    "upstream-backup": scenario_upstream_backup,
}


def test_every_scenario_is_pinned():
    assert sorted(SCENARIOS) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_recovery_matches_pin(name):
    assert SCENARIOS[name]() == PINS[name]
