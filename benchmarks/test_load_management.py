"""E7 — §3.3: the three answers to overload.

A 3x burst hits an underprovisioned keyed aggregation. The old and new
worlds respond differently:

* load shedding (gen1): drops tuples → latency stays low, results lossy;
* backpressure (gen2): stalls the source → complete results, but the
  burst's latency bill is paid in queueing/stall time;
* elasticity (gen2/3, DS2): scales out → complete results AND post-scale
  latency recovery, at the cost of reconfigurations.

Expected shape: completeness {shed < backpressure = elastic = 100%};
p99 latency {shed lowest, backpressure highest, elastic in between};
only elastic changes parallelism.
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload, RateFunction
from repro.load.elasticity import DS2Controller
from repro.load.shedding import RandomShedder
from repro.runtime.config import EngineConfig

EVENTS = 9000
BURST = RateFunction.step(base=800.0, peak=3000.0, start=2.0, end=5.0)
COST = 1e-3  # one instance saturates at ~1000 rec/s


def workload():
    return SensorWorkload(count=EVENTS, rate=BURST, key_count=256, seed=47)


def build(env, shed=False):
    stream = env.from_workload(workload())
    shedder = None
    if shed:
        shedder = RandomShedder(seed=1, activate_at=32, target_queue=16, pressure_node="count")
        stream = stream.apply_operator(lambda: shedder, name="shed")
    sink = CollectSink("out")
    (
        stream.key_by(field_selector("sensor"))
        .aggregate(
            create=lambda: 0, add=lambda a, _v: a + 1, name="count", processing_cost=COST
        )
        .sink(sink)
    )
    return sink, shedder


def run_shedding():
    env = StreamExecutionEnvironment(EngineConfig(seed=5), name="shed")
    sink, shedder = build(env, shed=True)
    env.execute(until=120.0)
    return summarize("shedding", env, sink, parallelism=1, dropped=shedder.dropped)


def run_backpressure():
    env = StreamExecutionEnvironment(EngineConfig(seed=5, default_channel_capacity=64), name="bp")
    sink, _ = build(env)
    env.execute(until=120.0)
    return summarize("backpressure", env, sink, parallelism=1, dropped=0)


def run_elastic():
    env = StreamExecutionEnvironment(
        EngineConfig(seed=5, default_channel_capacity=64), name="elastic"
    )
    sink, _ = build(env)
    engine = env.build()
    controller = DS2Controller(engine, ["count"], interval=0.5, headroom=1.2, max_parallelism=8)
    controller.start()
    env.execute(until=120.0)
    return summarize(
        "elasticity (DS2)",
        env,
        sink,
        parallelism=len(engine.plan.subtasks("count")),
        dropped=0,
        reconfigs=controller.reconfigurations,
    )


def summarize(strategy, env, sink, parallelism, dropped, reconfigs=0):
    received = len(sink.results)
    # Latency vs the OFFERED schedule (the workload's event times): this is
    # what the user experiences, and it includes time spent stalled at a
    # backpressured source — which ingest-stamped latency would hide.
    lag = sink.lag_summary()
    makespan = max((r.emitted_at for r in sink.results), default=0.0)
    return {
        "strategy": strategy,
        "results": received,
        "completeness": received / EVENTS,
        "p50": lag.p50,
        "p99": lag.p99,
        "parallelism": parallelism,
        "dropped": dropped,
        "reconfigs": reconfigs,
        "duration": makespan,
    }


def run_all():
    return [run_shedding(), run_backpressure(), run_elastic()]


def test_load_management(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E7 — overload responses: 3x burst on a 1x-provisioned operator",
        ["strategy", "results", "completeness", "p50 lat", "p99 lat", "final parallelism",
         "dropped", "reconfigs", "makespan"],
        [
            [r["strategy"], r["results"], f"{r['completeness']:.1%}", fmt(r["p50"], 3),
             fmt(r["p99"], 3), r["parallelism"], r["dropped"], r["reconfigs"], fmt(r["duration"], 1)]
            for r in rows
        ],
    )
    shed, backpressure, elastic = rows
    # Shedding: lossy but low-latency.
    assert shed["completeness"] < 0.95
    assert shed["dropped"] > 0
    assert shed["p99"] < backpressure["p99"] / 3
    # Backpressure: complete, pays the burst in latency/stall.
    assert backpressure["completeness"] == 1.0
    # Elasticity: complete AND faster than pure backpressure, via scale-out.
    assert elastic["completeness"] == 1.0
    assert elastic["parallelism"] > 1
    assert elastic["reconfigs"] >= 1
    assert elastic["p99"] < backpressure["p99"]
    assert elastic["duration"] < backpressure["duration"]
