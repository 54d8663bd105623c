"""E8 — §3.3: DS2-style scaling decisions converge in a few steps.

A step-function input rate (1x → 3x capacity → back) drives the DS2
controller. Expected shape ("three steps is all you need"): a handful of
reconfigurations per load change, no hunting at steady state, the final
parallelism matching demand/true-rate, and zero data loss across every
live migration.
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload, RateFunction
from repro.load.elasticity import DS2Controller
from repro.runtime.config import EngineConfig

EVENTS = 40000
COST = 1e-3
PROFILE = RateFunction.step(base=900.0, peak=2700.0, start=4.0, end=12.0)


def run():
    env = StreamExecutionEnvironment(
        EngineConfig(seed=6, default_channel_capacity=64), name="ds2"
    )
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=EVENTS, rate=PROFILE, key_count=512, seed=53))
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", processing_cost=COST)
        .sink(sink)
    )
    engine = env.build()
    controller = DS2Controller(engine, ["count"], interval=0.5, headroom=1.3, max_parallelism=8)
    controller.start()
    env.execute(until=300.0)
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    changes = [d for d in controller.decisions if d.changed]
    return {
        "changes": changes,
        "counted": sum(per_key.values()),
        "final_parallelism": len(engine.tasks_of("count")),
        "moved_bytes": sum(r.moved_bytes for r in controller.rescaler.reports),
        "makespan": max((r.emitted_at for r in sink.results), default=0.0),
    }


def test_elasticity_convergence(benchmark):
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "E8 — DS2 scaling decisions over a step-function load",
        ["at (s)", "parallelism", "target", "required rate", "true rate/instance"],
        [
            [fmt(d.at, 1), d.current, d.target, fmt(d.required_rate, 0), fmt(d.true_rate, 0)]
            for d in report["changes"]
        ],
    )
    print(f"final parallelism: {report['final_parallelism']}   "
          f"state moved: {report['moved_bytes']}B   makespan: {report['makespan']:.1f}s")

    changes = report["changes"]
    # Scale-out happens shortly after the step up; scale-in after the step
    # down; the total number of reconfigurations stays small.
    assert 2 <= len(changes) <= 6
    ups = [d for d in changes if d.target > d.current]
    downs = [d for d in changes if d.target < d.current]
    assert ups and downs
    # (An initial right-sizing step at startup is fine; the burst response
    # itself must land shortly after the step up at t=4.)
    assert any(4.0 <= d.at <= 9.0 for d in ups), "scale-out tracks the burst start"
    assert all(d.at >= 12.0 for d in downs), "scale-in tracks the burst end"
    # Per load change, convergence within ~3 decisions (the paper's claim).
    assert len(ups) <= 3 and len(downs) <= 3
    # Steady state after the last change — no hunting.
    # Correct final sizing: back at base rate, 1-2 instances suffice.
    assert report["final_parallelism"] <= 3
    # Live migrations moved state and lost nothing.
    assert report["moved_bytes"] > 0
    assert report["counted"] == EVENTS
