"""T1 — Table 1: requirements of the new application classes.

The paper's Table 1 marks which of ten requirements each emerging
application class (Cloud Apps, Machine Learning, Graph Processing) needs.
This benchmark regenerates the matrix and — because this reproduction
*implements* every requirement — runs an executable probe per requirement
demonstrating the library satisfies it. A cell is rendered only if the
paper marks it AND the probe passes.
"""

import numpy as np
from conftest import print_table

REQUIREMENTS = [
    "programming-models",
    "transactions",
    "advanced-state-backends",
    "loops-and-cycles",
    "elasticity-reconfiguration",
    "dynamic-topologies",
    "shared-mutable-state",
    "queryable-state",
    "state-versioning",
    "hardware-acceleration",
]

# Table 1 as printed in the paper (✓ per application class).
PAPER_MATRIX = {
    "cloud-apps": {
        "programming-models", "transactions", "advanced-state-backends",
        "loops-and-cycles", "elasticity-reconfiguration", "dynamic-topologies",
        "queryable-state", "state-versioning",
    },
    "machine-learning": {
        "programming-models", "advanced-state-backends", "loops-and-cycles",
        "dynamic-topologies", "shared-mutable-state", "queryable-state",
        "state-versioning", "hardware-acceleration",
    },
    "graph-processing": {
        "programming-models", "advanced-state-backends", "loops-and-cycles",
        "shared-mutable-state",
    },
}


# ---------------------------------------------------------------------------
# one executable probe per requirement
# ---------------------------------------------------------------------------
def probe_programming_models():
    """Functional pipeline API + actor-like stateful functions coexist."""
    from repro.core.datastream import StreamExecutionEnvironment
    from repro.functions import Address, StatefulFunctionRuntime
    from repro.sim import Kernel

    env = StreamExecutionEnvironment()
    sink = env.from_collection(range(10)).map(lambda v: v * 2).collect()
    env.execute()
    kernel = Kernel()
    app = StatefulFunctionRuntime(kernel)
    app.register("f", lambda ctx, msg: ctx.storage.set(ctx.storage.get(0) + msg))
    app.send(Address("f", "x"), 5)
    kernel.run()
    return sink.values() == [v * 2 for v in range(10)] and app.state_of(Address("f", "x")) == 5


def probe_transactions():
    from repro.txn import Decision, Participant, TwoPhaseCoordinator, TxnConfig, TxnStateStore

    store = TxnStateStore("probe", config=TxnConfig(locking="nowait"))
    txn = store.begin("probe", "op-1")
    txn.write("a", 1)
    store.finish_attempt(txn)
    a, b = Participant("a"), Participant("b")
    result = TwoPhaseCoordinator().execute({a: {"x": 1}, b: {"y": 2}})
    return store.committed_get("a") == 1 and result.decision is Decision.COMMIT


def probe_advanced_state_backends():
    from repro.state import (
        ExternalStateBackend, LSMStateBackend, PersistentMemoryBackend,
        RemoteStore, ValueStateDescriptor,
    )

    desc = ValueStateDescriptor("v")
    ok = True
    for backend in (LSMStateBackend(memtable_limit=2), ExternalStateBackend(RemoteStore()), PersistentMemoryBackend()):
        backend.put(desc, "k", {"big": list(range(10))})
        ok = ok and backend.get(desc, "k") == {"big": list(range(10))}
    return ok


def probe_loops_and_cycles():
    from repro.ml.iterations import BulkIterationDriver, make_separable_dataset, partition_dataset

    xs, ys = make_separable_dataset(400, 3, seed=1)
    driver = BulkIterationDriver(partition_dataset(xs, ys, 2), 3, learning_rate=1.0)
    report = driver.run(max_supersteps=50)
    return report.losses[-1] < report.losses[0]


def probe_elasticity():
    from repro.core.datastream import StreamExecutionEnvironment
    from repro.core.keys import field_selector
    from repro.io import SensorWorkload
    from repro.load.migration import Rescaler
    from repro.runtime.config import EngineConfig

    env = StreamExecutionEnvironment(EngineConfig())
    sink = (
        env.from_workload(SensorWorkload(count=800, rate=4000.0, key_count=8, seed=1))
        .key_by(field_selector("sensor"), parallelism=2)
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count", parallelism=2)
        .collect()
    )
    engine = env.build()
    engine.kernel.call_at(0.1, lambda: Rescaler(engine).rescale("count", 4, mode="live"))
    env.execute(until=60.0)
    per_key = {}
    for r in sink.results:
        per_key[r.key] = max(per_key.get(r.key, 0), r.value)
    return sum(per_key.values()) == 800


def probe_dynamic_topologies():
    from repro.core.datastream import StreamExecutionEnvironment
    from repro.core.operators.basic import SinkOperator
    from repro.dynamic import TopologyManager
    from repro.io import CollectSink, SensorWorkload

    env = StreamExecutionEnvironment()
    env.from_workload(SensorWorkload(count=400, rate=2000.0, seed=2)).map(lambda v: v, name="m").collect()
    engine = env.build()
    tap = CollectSink("tap")
    engine.kernel.call_at(0.05, lambda: TopologyManager(engine).attach_tap("m", lambda: SinkOperator(tap, "tap")))
    env.execute()
    return 0 < len(tap.results) < 400


def probe_shared_mutable_state():
    from repro.txn import TxnStateStore

    store = TxnStateStore("shared")
    keys = frozenset({"shared"})

    def deposit(txn, amount):
        txn.write("shared", txn.read("shared", 0) + amount)

    for op_id in range(50):
        store.run("probe", op_id, (keys, keys), deposit, 1, None)
    return store.committed_get("shared") == 50 and store.committed == 50


def probe_queryable_state():
    from repro.core.datastream import StreamExecutionEnvironment
    from repro.core.keys import field_selector
    from repro.io import SensorWorkload
    from repro.queryable import QueryableStateService
    from repro.state.api import ValueStateDescriptor

    env = StreamExecutionEnvironment()
    (
        env.from_workload(SensorWorkload(count=500, rate=4000.0, key_count=4, seed=3))
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count")
        .collect()
    )
    engine = env.build()
    service = QueryableStateService(engine)
    seen = []
    engine.kernel.call_at(0.06, lambda: seen.append(service.query("count", ValueStateDescriptor("count-acc"), "s0").value))
    env.execute()
    return seen and seen[0] is not None and seen[0] > 0


def probe_state_versioning():
    from repro.versioning import SchemaRegistry, VersionedSerde

    registry = SchemaRegistry()
    registry.register_migration("m", 1, lambda v: {**v, "new_field": 0})
    old = VersionedSerde(registry, "m", version=1)
    new = VersionedSerde(registry, "m")
    return new.deserialize(old.serialize({"a": 1})) == {"a": 1, "new_field": 0}


def probe_hardware_acceleration():
    from repro.hardware import AcceleratorModel, scalar_window_sums, vectorized_window_sums

    model = AcceleratorModel(launch_overhead=20e-6, speedup=16.0)
    values = [float(i % 5) for i in range(512)]
    agree = np.allclose(scalar_window_sums(values, 16), vectorized_window_sums(np.array(values), 16))
    return agree and model.wins(4096, 2e-6) and not model.wins(1, 2e-6)


PROBES = {
    "programming-models": probe_programming_models,
    "transactions": probe_transactions,
    "advanced-state-backends": probe_advanced_state_backends,
    "loops-and-cycles": probe_loops_and_cycles,
    "elasticity-reconfiguration": probe_elasticity,
    "dynamic-topologies": probe_dynamic_topologies,
    "shared-mutable-state": probe_shared_mutable_state,
    "queryable-state": probe_queryable_state,
    "state-versioning": probe_state_versioning,
    "hardware-acceleration": probe_hardware_acceleration,
}


def run_probes():
    return {name: probe() for name, probe in PROBES.items()}


def test_table1_requirements(benchmark):
    results = benchmark.pedantic(run_probes, rounds=1, iterations=1)

    rows = []
    for app, needed in PAPER_MATRIX.items():
        row = [app]
        for requirement in REQUIREMENTS:
            if requirement in needed:
                row.append("X" if results[requirement] else "FAIL")
            else:
                row.append(".")
        rows.append(row)
    print_table("Table 1 — applications x requirements", ["application"] + REQUIREMENTS, rows)

    failing = [name for name, ok in results.items() if not ok]
    assert not failing, f"probes failed: {failing}"
    # The paper's row sums: 8 for cloud apps, 8 for ML, 4 for graphs.
    assert len(PAPER_MATRIX["cloud-apps"]) == 8
    assert len(PAPER_MATRIX["machine-learning"]) == 8
    assert len(PAPER_MATRIX["graph-processing"]) == 4
