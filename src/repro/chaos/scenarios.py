"""Chaos scenarios: (pipeline shape, guarantee config, fault palette).

Each scenario pairs one of the physical-plan shapes the engine grows —
forward chain (fusable under chaining), keyed shuffle (hash exchange,
multi-input alignment), fan-in join (two sources into one aligned task),
feedback loop (cyclic dataflow) — with the guarantee configuration a
production job of that shape would run, the deterministic expected output,
and the fault kinds that are *survivable* at that guarantee:

* kills are excluded from the feedback loop (records circulating on the
  feedback edge live outside any snapshot, so fail-stop loses them by
  design — the survey's known limitation of loop-carried state);
* drops appear only where losses are part of the contract (at-most-once);
* reorder/duplicate appear only where the audit tolerates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos.schedule import (
    BARRIER_LOSS,
    DELAY,
    DROP,
    DUPLICATE,
    KILL,
    REORDER,
    RESCALE,
    STALL,
    PaletteConfig,
)
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.events import Record
from repro.core.graph import Partitioning
from repro.core.operators.base import Operator, OperatorContext
from repro.fault.guarantees import config_for_guarantee
from repro.io.sinks import CollectSink, Sink, TransactionalSink
from repro.io.sources import CollectionWorkload, SensorWorkload
from repro.runtime.config import EngineConfig, GuaranteeLevel
from repro.runtime.engine import Engine


@dataclass
class ScenarioRun:
    """One freshly built, not-yet-started execution of a scenario."""

    engine: Engine
    expected: list[Any]
    observed: Callable[[], list[Any]]
    #: extra scenario-specific oracles (e.g. a SerializabilityOracle bound
    #: to the run's shared transactional store) the runner adds to the suite
    oracles: list[Any] = field(default_factory=list)


@dataclass
class Scenario:
    name: str
    #: the guarantee the engine is *configured* for (sink type, checkpoint
    #: mode, recovery policy all follow from it)
    level: GuaranteeLevel
    build: Callable[[EngineConfig], ScenarioRun]
    palette: PaletteConfig
    #: the guarantee the delivery oracle *checks* — defaults to ``level``;
    #: set higher to model a deliberately broken deployment
    expect_level: GuaranteeLevel | None = None
    horizon: float = 60.0
    checkpoint_interval: float = 0.02
    detection_delay: float = 0.005
    config_overrides: dict[str, Any] = field(default_factory=dict)
    #: True when the topology forwards every source record to exactly one
    #: sink record (1:1 maps/filters-that-keep-all): the metric-invariant
    #: oracle then checks source→sink record conservation on clean-palette
    #: runs (feedback loops and expanding/contracting shapes opt out)
    conserves_records: bool = False

    @property
    def expectation_level(self) -> GuaranteeLevel:
        return self.expect_level or self.level

    def make_config(self, seed: int, chaining: bool) -> EngineConfig:
        """Engine config for this scenario's guarantee, chaining on or off."""
        config = config_for_guarantee(
            self.level,
            checkpoint_interval=self.checkpoint_interval,
            seed=seed,
            chaining_enabled=chaining,
            **self.config_overrides,
        )
        if config.checkpoints is not None:
            # Chaos can lose barriers / stall snapshots: never let one
            # wedged checkpoint freeze the coordinator.
            config.checkpoints.timeout = 5 * self.checkpoint_interval
        return config


def _make_sink(level: GuaranteeLevel) -> tuple[Sink, Callable[[], list[Any]]]:
    """The sink a job at ``level`` would use, plus its observation lens:
    committed results for exactly-once, raw results otherwise."""
    if level is GuaranteeLevel.EXACTLY_ONCE:
        sink = TransactionalSink("chaos-out")
        return sink, lambda: [r.value for r in sink.committed]
    collect = CollectSink("chaos-out")
    return collect, lambda: [r.value for r in collect.results]


# ----------------------------------------------------------------------
# shape 1: forward chain — source -> map -> filter -> map -> sink
# ----------------------------------------------------------------------
def forward_chain(level: GuaranteeLevel = GuaranteeLevel.EXACTLY_ONCE) -> Scenario:
    """Straight-line pipeline, parallelism 1 — fully fusable under chaining."""
    events = 240
    workload = SensorWorkload(count=events, rate=3000.0, key_count=4, seed=911)
    expected = [value * 2 + 1 for value in range(events)]

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(level)
        env = StreamExecutionEnvironment(config, name="chaos-forward-chain")
        (
            env.from_workload(workload, name="src")
            .map(lambda v: v["seq"] * 2, name="double")
            .filter(lambda v: v >= 0, name="keep")
            .map(lambda v: v + 1, name="inc")
            .sink(sink, name="out")
        )
        return ScenarioRun(env.build(), list(expected), observed)

    # Reorder is safe at every level here: the audit is a multiset
    # comparison and the chain has no order-sensitive state.
    kinds: tuple[str, ...] = (KILL, DELAY, STALL, REORDER)
    if level is GuaranteeLevel.AT_MOST_ONCE:
        kinds = (KILL, DROP, DELAY, STALL, REORDER)
    elif level is GuaranteeLevel.AT_LEAST_ONCE:
        kinds = (KILL, DUPLICATE, DELAY, STALL, REORDER)
    return Scenario(
        name=f"forward-chain/{level.value}",
        level=level,
        build=build,
        palette=PaletteConfig(kinds=kinds, window=0.12, max_magnitude=0.03),
        conserves_records=True,
    )


# ----------------------------------------------------------------------
# shape 2: keyed shuffle — source -> key_by -> reduce(count) -> sink
# ----------------------------------------------------------------------
def keyed_shuffle(level: GuaranteeLevel = GuaranteeLevel.AT_LEAST_ONCE) -> Scenario:
    """Hash-partitioned running count, parallelism 2, flow control on."""
    events = 240
    workload = SensorWorkload(count=events, rate=3000.0, key_count=4, seed=417)
    counts: dict[str, int] = {}
    expected: list[Any] = []
    for event in workload.events():
        sensor = event.value["sensor"]
        counts[sensor] = counts.get(sensor, 0) + 1
        expected.append((sensor, counts[sensor]))

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(level)
        env = StreamExecutionEnvironment(config, name="chaos-keyed-shuffle")
        (
            env.from_workload(workload, name="src")
            .map(lambda v: (v["sensor"], 1), name="pair")
            .key_by(lambda v: v[0], parallelism=2)
            .reduce(lambda a, b: (a[0], a[1] + b[1]), name="count", parallelism=2)
            .sink(sink, name="out", parallelism=1)
        )
        return ScenarioRun(env.build(), list(expected), observed)

    kinds: tuple[str, ...] = (KILL, DELAY, STALL, BARRIER_LOSS)
    if level is GuaranteeLevel.AT_LEAST_ONCE:
        kinds = (KILL, DUPLICATE, DELAY, STALL, BARRIER_LOSS)
    elif level is GuaranteeLevel.AT_MOST_ONCE:
        kinds = (KILL, DROP, DELAY, STALL)
    return Scenario(
        name=f"keyed-shuffle/{level.value}",
        level=level,
        build=build,
        palette=PaletteConfig(kinds=kinds, window=0.12, max_magnitude=0.03),
        config_overrides={"default_channel_capacity": 64},
        conserves_records=True,
    )


# ----------------------------------------------------------------------
# shape 3: fan-in join — two sources -> union (aligned 2-input) -> sink
# ----------------------------------------------------------------------
def fan_in_join(level: GuaranteeLevel = GuaranteeLevel.EXACTLY_ONCE) -> Scenario:
    """Two sources into one union task — exercises 2-input barrier alignment."""
    left_values = list(range(0, 150))
    right_values = list(range(1000, 1150))
    expected = [v * 10 for v in left_values + right_values]

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(level)
        env = StreamExecutionEnvironment(config, name="chaos-fan-in")
        left = env.from_workload(CollectionWorkload(left_values, rate=2500.0), name="left")
        right = env.from_workload(CollectionWorkload(right_values, rate=2500.0), name="right")
        (
            left.union(right, name="merge", parallelism=1)
            .map(lambda v: v * 10, name="scale")
            .sink(sink, name="out")
        )
        return ScenarioRun(env.build(), list(expected), observed)

    kinds: tuple[str, ...] = (KILL, DELAY, STALL, BARRIER_LOSS)
    if level is GuaranteeLevel.AT_LEAST_ONCE:
        kinds = (KILL, DUPLICATE, DELAY, STALL, BARRIER_LOSS)
    elif level is GuaranteeLevel.AT_MOST_ONCE:
        kinds = (KILL, DROP, DELAY, STALL)
    return Scenario(
        name=f"fan-in-join/{level.value}",
        level=level,
        build=build,
        palette=PaletteConfig(kinds=kinds, window=0.1, max_magnitude=0.03),
        conserves_records=True,
    )


# ----------------------------------------------------------------------
# shape 4: feedback loop — Collatz refinement on a cyclic dataflow
# ----------------------------------------------------------------------
class _CollatzStep(Operator):
    """One loop iteration: emits ('done', n, steps) at 1, else loops."""

    def process(self, record: Record, ctx: OperatorContext) -> None:
        origin, value, steps = record.value
        if value == 1:
            ctx.emit(record.with_value(("done", origin, steps)))
            return
        next_value = value // 2 if value % 2 == 0 else 3 * value + 1
        ctx.emit(record.with_value(("loop", (origin, next_value, steps + 1))))


def _collatz_steps(n: int) -> int:
    steps = 0
    while n != 1:
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        steps += 1
    return steps


def feedback_loop() -> Scenario:
    """Cyclic dataflow under delay/stall/duplicate chaos.

    Configured without checkpoints (barriers would orbit a cycle forever)
    and without kills (loop-carried records are unsnapshottable), but the
    *expectation* is still exactly-once: delays and stalls must never lose
    or duplicate a loop result.
    """
    inputs = [3, 6, 7, 11, 19, 27]
    expected = [("done", n, _collatz_steps(n)) for n in inputs]

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(GuaranteeLevel.AT_MOST_ONCE)  # CollectSink
        env = StreamExecutionEnvironment(config, name="chaos-feedback")
        seeded = env.from_workload(
            CollectionWorkload([(n, n, 0) for n in inputs], rate=2000.0), name="numbers"
        )
        step = seeded.apply_operator(_CollatzStep, name="step")
        done = step.filter(lambda v: v[0] == "done", name="done").map(
            lambda v: v, name="fwd"
        )
        looped = step.filter(lambda v: v[0] == "loop", name="looped").map(
            lambda v: v[1], name="unpack"
        )
        env.graph.add_edge(
            looped.node, step.node, partitioning=Partitioning.REBALANCE, is_feedback=True
        )
        done.sink(sink, name="out")
        return ScenarioRun(env.build(), list(expected), observed)

    return Scenario(
        name="feedback-loop",
        level=GuaranteeLevel.AT_MOST_ONCE,
        expect_level=GuaranteeLevel.EXACTLY_ONCE,
        build=build,
        # Stall/delay magnitudes stay well under the loop's drain-quiescence
        # window (3 probes x 0.05s): a perturbation may slow the loop but
        # must never outlast drain detection.
        palette=PaletteConfig(
            kinds=(DELAY, STALL, DUPLICATE), window=0.1, max_magnitude=0.03
        ),
    )


# ----------------------------------------------------------------------
# shape 5: parallel slices — FORWARD pipeline at parallelism 2
# ----------------------------------------------------------------------
def parallel_slices(level: GuaranteeLevel = GuaranteeLevel.AT_LEAST_ONCE) -> Scenario:
    """Two independent FORWARD slices end to end (parallelism 2).

    The shape whose failover regions are strict subsets of the job: every
    edge is FORWARD at matching parallelism, so slice 0 and slice 1 never
    exchange records and a supervised run restores only the failed slice
    (regional recovery), leaving the healthy one untouched. Each source
    subtask emits the full workload, so the expectation is two copies of
    the mapped values.
    """
    events = 160
    values = list(range(events))
    workload = CollectionWorkload(values, rate=2500.0)
    expected = [v * 3 for v in values] * 2  # one copy per slice

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(level)
        env = StreamExecutionEnvironment(config, name="chaos-parallel-slices")
        (
            env.from_workload(workload, name="src", parallelism=2)
            .map(lambda v: v * 3, name="triple", parallelism=2)
            .sink(sink, name="out", parallelism=2)
        )
        return ScenarioRun(env.build(), list(expected), observed)

    kinds: tuple[str, ...] = (KILL, DELAY, STALL, BARRIER_LOSS)
    if level is GuaranteeLevel.AT_LEAST_ONCE:
        kinds = (KILL, DUPLICATE, DELAY, STALL, BARRIER_LOSS)
    elif level is GuaranteeLevel.AT_MOST_ONCE:
        kinds = (KILL, DROP, DELAY, STALL)
    return Scenario(
        name=f"parallel-slices/{level.value}",
        level=level,
        build=build,
        palette=PaletteConfig(kinds=kinds, window=0.12, max_magnitude=0.03),
        conserves_records=True,
    )


# ----------------------------------------------------------------------
# shape 6: rescale shuffle — keyed running count that chaos live-rescales
# ----------------------------------------------------------------------
def rescale_shuffle(level: GuaranteeLevel = GuaranteeLevel.EXACTLY_ONCE) -> Scenario:
    """The keyed-shuffle shape with live rescales *in* the fault timeline.

    RESCALE faults change the ``count`` stage's parallelism mid-run —
    interleaved with kills, stalls, and lost barriers — while the delivery
    oracle still demands a byte-identical committed output: migration must
    move every key's state and timers to its new owner, reroute in-flight
    records, and recovery must re-home checkpointed state taken under the
    old layout.
    """
    events = 240
    workload = SensorWorkload(count=events, rate=3000.0, key_count=6, seed=733)
    counts: dict[str, int] = {}
    expected: list[Any] = []
    for event in workload.events():
        sensor = event.value["sensor"]
        counts[sensor] = counts.get(sensor, 0) + 1
        expected.append((sensor, counts[sensor]))

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(level)
        env = StreamExecutionEnvironment(config, name="chaos-rescale-shuffle")
        (
            env.from_workload(workload, name="src")
            .map(lambda v: (v["sensor"], 1), name="pair")
            .key_by(lambda v: v[0], parallelism=2)
            .reduce(lambda a, b: (a[0], a[1] + b[1]), name="count", parallelism=2)
            .sink(sink, name="out", parallelism=1)
        )
        return ScenarioRun(env.build(), list(expected), observed)

    return Scenario(
        name=f"rescale-shuffle/{level.value}",
        level=level,
        build=build,
        palette=PaletteConfig(
            kinds=(KILL, STALL, BARRIER_LOSS, RESCALE),
            min_faults=2,
            max_faults=5,
            window=0.12,
            max_magnitude=0.03,
            rescale_targets=("count",),
            rescale_max_parallelism=3,
        ),
        config_overrides={"default_channel_capacity": 64},
        conserves_records=True,
    )


# ----------------------------------------------------------------------
# transactional shapes: multi-partition txns over one shared TxnStateStore
# ----------------------------------------------------------------------
_TXN_BALANCE = 100


def _txn_conservation(items: dict[Any, Any]) -> str | None:
    """Balance invariant: transfers move money, never create or destroy it,
    so the committed table always sums to ``_TXN_BALANCE`` per account."""
    if not items:
        return None
    total = sum(items.values())
    want = _TXN_BALANCE * len(items)
    if total != want:
        return f"balance sum {total} != {want} over {len(items)} accounts"
    return None


def _transfer_body(handle: Any, value: Any) -> Any:
    _kind, op_id, src, dst, amount = value
    debit = handle.read(src, _TXN_BALANCE)
    credit = handle.read(dst, _TXN_BALANCE)
    handle.write(src, debit - amount)
    handle.write(dst, credit + amount)
    return op_id


def _txn_ops_expected(ops: list[tuple]) -> list[Any]:
    return [op[1] for op in ops]


def _build_txn_scenario(
    name: str,
    ops: list[tuple],
    keys_fn: Callable[[Any], Any],
    body: Callable[[Any, Any], Any],
    locking: str = "ordered",
    partitions: int = 4,
    parallelism: int = 2,
    rate: float = 2000.0,
) -> Scenario:
    """Common harness for the transactional shapes: a shared store of
    ``partitions`` partitions behind ``parallelism`` transact subtasks, an
    exactly-once sink observing the committed op ids, a serializability
    oracle bound to the run's store, and a fault palette that includes kill
    and barrier loss (the two that stress the atomic-cut and unwedge
    paths). DUPLICATE/DROP stay out: exactly-once configs never tolerate
    them, matching the other exactly-once shapes. ``locking`` picks the
    store's discipline; a NO-WAIT shape is named ``<name>-nowait``."""
    from repro.chaos.oracles import SerializabilityOracle
    from repro.txn.store import TxnConfig, TxnStateStore

    expected = _txn_ops_expected(ops)
    if locking != "ordered":
        name = f"{name}-{locking}"

    def build(config: EngineConfig) -> ScenarioRun:
        sink, observed = _make_sink(GuaranteeLevel.EXACTLY_ONCE)
        env = StreamExecutionEnvironment(config, name=f"chaos-{name}")
        store = TxnStateStore(
            f"{name}-store", partitions=partitions, config=TxnConfig(locking=locking)
        )
        (
            env.from_workload(CollectionWorkload(ops, rate=rate), name="src")
            .transact(
                body,
                keys_fn=keys_fn,
                store=store,
                op_id_fn=lambda v: v[1],
                name="txn",
                parallelism=parallelism,
            )
            .sink(sink, name="out", parallelism=1)
        )
        return ScenarioRun(
            env.build(),
            list(expected),
            observed,
            oracles=[SerializabilityOracle(store, invariant=_txn_conservation)],
        )

    return Scenario(
        name=f"{name}/exactly_once",
        level=GuaranteeLevel.EXACTLY_ONCE,
        build=build,
        palette=PaletteConfig(
            kinds=(KILL, DELAY, STALL, BARRIER_LOSS), window=0.12, max_magnitude=0.03
        ),
        conserves_records=True,
    )


def txn_transfer(locking: str = "ordered") -> Scenario:
    """Cross-partition account transfers: every txn read-modify-writes two
    accounts that usually live in different store partitions, so commits pay
    the multi-partition cost and snapshots need the whole-store fence."""
    accounts = [f"acct-{i}" for i in range(8)]
    ops = []
    for i in range(160):
        src = accounts[(i * 5) % len(accounts)]
        dst = accounts[(i * 5 + 3) % len(accounts)]
        ops.append(("xfer", f"t{i}", src, dst, 1 + (i % 9)))
    return _build_txn_scenario(
        "txn-transfer", ops, keys_fn=lambda v: [v[2], v[3]], body=_transfer_body, locking=locking
    )


def txn_hot_account(locking: str = "ordered") -> Scenario:
    """Contention shape: every transfer touches one hot account, so X-lock
    queues are always populated — ordered acquisition must stay deadlock-free
    and strict-FIFO fair while kills and lost barriers land mid-queue."""
    spread = [f"acct-{i}" for i in range(6)]
    ops = []
    for i in range(140):
        other = spread[(i * 7) % len(spread)]
        src, dst = ("hot", other) if i % 2 == 0 else (other, "hot")
        ops.append(("xfer", f"h{i}", src, dst, 1 + (i % 5)))
    return _build_txn_scenario(
        "txn-hot-account",
        ops,
        keys_fn=lambda v: [v[2], v[3]],
        body=_transfer_body,
        locking=locking,
    )


def txn_mixed_readonly(locking: str = "ordered") -> Scenario:
    """Mixed workload: transfers interleaved with read-only audits that
    S-lock three accounts. Shared grants batch behind exclusive writers;
    the serial replay cross-checks every audited balance against the
    committed history."""
    accounts = [f"acct-{i}" for i in range(8)]
    ops: list[tuple] = []
    for i in range(150):
        if i % 3 == 2:
            base = (i * 3) % len(accounts)
            ops.append(
                (
                    "audit",
                    f"a{i}",
                    accounts[base],
                    accounts[(base + 2) % len(accounts)],
                    accounts[(base + 5) % len(accounts)],
                )
            )
        else:
            src = accounts[(i * 3) % len(accounts)]
            dst = accounts[(i * 3 + 4) % len(accounts)]
            ops.append(("xfer", f"m{i}", src, dst, 1 + (i % 7)))

    def body(handle: Any, value: Any) -> Any:
        if value[0] == "audit":
            _kind, op_id, *keys = value
            for key in keys:
                handle.read(key, _TXN_BALANCE)
            return op_id
        return _transfer_body(handle, value)

    def keys_fn(value: Any) -> Any:
        if value[0] == "audit":
            return (tuple(value[2:]), ())  # reads only: shared locks
        return [value[2], value[3]]

    return _build_txn_scenario(
        "txn-mixed-readonly", ops, keys_fn=keys_fn, body=body, locking=locking
    )


def txn_scenarios() -> list[Scenario]:
    """The transactional grid: three shapes of serializable multi-partition
    transactions over shared state, each under ordered locking and under
    NO-WAIT, each judged by the serializability oracle under a palette that
    includes kill and barrier loss."""
    return [
        shape(locking)
        for locking in ("ordered", "nowait")
        for shape in (txn_transfer, txn_hot_account, txn_mixed_readonly)
    ]


# ----------------------------------------------------------------------
# macro suite: the five ESPBench-style queries under one fault timeline
# ----------------------------------------------------------------------
def macro_mixed(scale: float = 0.3, seed: int = 0) -> Scenario:
    """The whole macro benchmark (Q1–Q5, ``repro.macro``) as one chaos
    scenario: enrichment join, CEP fraud pattern, sliding windows, embedded
    ML scoring, and serializable transfers share a single interleaved
    source while kills, delays, and stalls land anywhere in the plan.

    The expectation is a *golden run*: the same job executed once, clean,
    at factory time; every chaos run must reproduce its tagged sink
    multiset exactly-once (cross-flag output equivalence is pinned
    separately by ``tests/runtime/test_macro_equivalence.py``). The
    serializability oracle is armed on Q5's shared store with the
    balance-conservation invariant."""
    from repro.chaos.oracles import SerializabilityOracle
    from repro.macro.queries import QUERIES, balance_conservation, build_macro_job

    def tagged(job: Any) -> list[Any]:
        out: list[Any] = []
        for query in QUERIES:
            out.extend((query,) + item for item in job.sink_tuples(query))
        return out

    golden = build_macro_job(
        config_for_guarantee(GuaranteeLevel.EXACTLY_ONCE, checkpoint_interval=0.02, seed=seed),
        seed=seed,
        scale=scale,
        transactional_sinks=True,
    )
    golden.env.build()
    golden.env.execute()
    expected = tagged(golden)

    def build(config: EngineConfig) -> ScenarioRun:
        job = build_macro_job(config, seed=seed, scale=scale, transactional_sinks=True)
        engine = job.env.build()
        return ScenarioRun(
            engine,
            list(expected),
            lambda: tagged(job),
            oracles=[
                SerializabilityOracle(job.store, invariant=balance_conservation)
            ],
        )

    return Scenario(
        name="macro-mixed/exactly_once",
        level=GuaranteeLevel.EXACTLY_ONCE,
        build=build,
        palette=PaletteConfig(kinds=(KILL, DELAY, STALL), window=0.12, max_magnitude=0.03),
    )


def macro_scenarios() -> list[Scenario]:
    """The macro-suite chaos grid (``--macro``): every subsystem the macro
    queries touch — NFA state, window panes, ML weights, txn locks — must
    recover together under one fault timeline."""
    return [macro_mixed()]


# ----------------------------------------------------------------------
def broken_at_most_once() -> Scenario:
    """Deliberately mis-deployed job: a plain (at-most-once) sink with no
    checkpoints, but the operator *claims* exactly-once. Any kill loses the
    in-flight backlog — the exactly-once oracle must catch it and shrinking
    must reduce the schedule to the kill alone."""
    scenario = forward_chain(GuaranteeLevel.AT_MOST_ONCE)
    return Scenario(
        name="broken-at-most-once",
        level=GuaranteeLevel.AT_MOST_ONCE,
        expect_level=GuaranteeLevel.EXACTLY_ONCE,
        build=scenario.build,
        palette=PaletteConfig(kinds=(KILL, DELAY, STALL), window=0.05, max_magnitude=0.02),
    )


def standard_scenarios() -> list[Scenario]:
    """The shape x guarantee grid the chaos test suite sweeps."""
    return [
        forward_chain(GuaranteeLevel.EXACTLY_ONCE),
        keyed_shuffle(GuaranteeLevel.AT_LEAST_ONCE),
        fan_in_join(GuaranteeLevel.EXACTLY_ONCE),
        feedback_loop(),
    ]


def rescale_scenarios() -> list[Scenario]:
    """The rescale-chaos grid: live rescales interleaved with kills, stalls,
    and lost barriers, checked against exactly-once committed output."""
    return [rescale_shuffle(GuaranteeLevel.EXACTLY_ONCE)]


def supervised_scenarios() -> list[Scenario]:
    """The grid for supervised-mode sweeps: the standard shapes (where the
    supervisor must match the fixed per-guarantee policy end to end) plus
    the parallel-slices shape whose failover regions make regional recovery
    observable."""
    return standard_scenarios() + [parallel_slices(GuaranteeLevel.AT_LEAST_ONCE)]
