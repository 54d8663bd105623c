"""Serializability under chaos: the tentpole's proof obligation.

Seeded concurrent transactional workloads (account transfers with a
balance-conservation invariant) run under the full recoverable fault
palette — kills, stalls, delays, lost barriers — and every committed
history must check out as serializable: commit-order replay reproduces all
recorded reads and the final state, the conflict graph is acyclic, effects
are exactly-once, and the invariant holds at every probe. Reruns with the
same (seed, chaining, schedule index) are byte-identical down to the store
digest, and a deliberately mis-deployed variant shrinks to a minimal
reproducer.
"""

from __future__ import annotations

from repro.chaos.oracles import SerializabilityOracle
from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import (
    Scenario,
    ScenarioRun,
    StreamExecutionEnvironment,
    _txn_conservation,
    txn_hot_account,
    txn_mixed_readonly,
    txn_scenarios,
    txn_transfer,
)
from repro.chaos.schedule import (
    BARRIER_LOSS,
    DUPLICATE,
    KILL,
    STALL,
    PaletteConfig,
    schedule_from_faults,
)
from repro.chaos.smoke import SMOKE_MATRIX
from repro.io.sinks import CollectSink
from repro.io.sources import CollectionWorkload
from repro.runtime.config import EngineConfig, GuaranteeLevel
from repro.sim.kernel import Kernel
from repro.txn.store import LockMode, TxnStateStore

SEEDS = (0, 1, 2, 3, 4)


class TestSerializabilitySweep:
    def test_seeded_sweep_every_history_serializable(self):
        """3 shapes x 2 locking disciplines x full palette x 5 seeds: the
        acceptance sweep."""
        for scenario in txn_scenarios():
            palette_kinds = set(scenario.palette.kinds)
            assert KILL in palette_kinds and BARRIER_LOSS in palette_kinds
            for seed in SEEDS:
                runner = ChaosRunner(
                    scenario, seed=seed, schedules_per_config=1, matrix=SMOKE_MATRIX
                )
                for report in runner.sweep():
                    assert report.ok, (
                        f"{scenario.name} seed={seed} {report.chaining}:\n"
                        f"{report.schedule.format()}\n{report.verdict()}"
                    )
                    assert report.finished, (
                        f"{scenario.name} seed={seed} {report.chaining}: job hung\n"
                        f"{report.schedule.format()}"
                    )
                    assert report.txn_digests, "no transactional store registered"

    def test_sweep_rerun_is_byte_identical(self):
        for factory in (txn_transfer, txn_hot_account, txn_mixed_readonly):
            def run_once():
                runner = ChaosRunner(
                    factory(), seed=7, schedules_per_config=1, matrix=(SMOKE_MATRIX[0],)
                )
                report = runner.run_one(SMOKE_MATRIX[0], schedule_index=0)
                return (
                    report.schedule.format(),
                    tuple(report.injection_log),
                    report.txn_digests,
                    report.verdict(),
                )

            assert run_once() == run_once()


class TestShrinking:
    def broken_txn_scenario(self) -> Scenario:
        """Mis-deployed transactional job: an at-most-once deployment (no
        checkpoints, restart without replay) claiming exactly-once. A kill
        loses the in-flight backlog; shrinking must reduce the schedule to
        (essentially) the kill."""
        ops = [(f"b{i}", f"acct-{i % 4}", f"acct-{(i + 1) % 4}", 1) for i in range(120)]

        def body(handle, value):
            op_id, src, dst, amount = value
            handle.write(src, handle.read(src, 100) - amount)
            handle.write(dst, handle.read(dst, 100) + amount)
            return op_id

        def build(config) -> ScenarioRun:
            sink = CollectSink("chaos-out")
            env = StreamExecutionEnvironment(config, name="chaos-txn-broken")
            store = TxnStateStore("broken-store", partitions=2)
            (
                env.from_workload(CollectionWorkload(ops, rate=2000.0), name="src")
                .transact(
                    body,
                    keys_fn=lambda v: [v[1], v[2]],
                    store=store,
                    op_id_fn=lambda v: v[0],
                    name="txn",
                    parallelism=2,
                )
                .sink(sink, name="out", parallelism=1)
            )
            return ScenarioRun(
                env.build(),
                [op[0] for op in ops],
                lambda: [r.value for r in sink.results],
                oracles=[SerializabilityOracle(store, invariant=_txn_conservation)],
            )

        return Scenario(
            name="txn-broken",
            level=GuaranteeLevel.AT_MOST_ONCE,
            expect_level=GuaranteeLevel.EXACTLY_ONCE,
            build=build,
            palette=PaletteConfig(kinds=(KILL, STALL), window=0.05, max_magnitude=0.02),
        )

    def test_violation_shrinks_to_minimal_reproducer(self):
        runner = ChaosRunner(
            self.broken_txn_scenario(), seed=2, schedules_per_config=2, matrix=SMOKE_MATRIX
        )
        violating = None
        for chaining in SMOKE_MATRIX:
            for index in range(2):
                report = runner.run_one(chaining, schedule_index=index)
                if not report.ok and any(
                    f.kind == KILL for f in report.schedule.faults
                ):
                    violating = report
                    break
            if violating:
                break
        assert violating is not None, "no kill-bearing schedule violated"
        minimal = runner.shrink(violating)
        assert not minimal.ok
        assert len(minimal.schedule) <= len(violating.schedule)
        # 1-minimality: every remaining fault is necessary.
        for index in range(len(minimal.schedule)):
            candidate = runner.run_one(
                minimal.chaining, schedule=minimal.schedule.without(index)
            )
            assert not (candidate.violated_oracles() & violating.violated_oracles())
        reproducer = runner.format_reproducer(minimal)
        assert "schedule =" in reproducer and "txn-broken" in reproducer


class _FakeStore:
    """History-only store stub for oracle negative tests."""

    def __init__(self, history, items):
        self.history = history
        self._items = items

    def committed_items(self):
        return dict(self._items)


class _Entry:
    def __init__(self, seq, op_id, reads=(), writes=()):
        self.seq = seq
        self.txn_id = seq + 1
        self.op_id = op_id
        self.origin = "p"
        self.committed_at = float(seq)
        self.reads = tuple(reads)
        self.writes = tuple(writes)


class _FakeEngine:
    def __init__(self):
        self.kernel = Kernel()


class TestOracleCatchesViolations:
    """The oracle is not vacuous: corrupted histories must fire."""

    def finish(self, history, items, invariant=None):
        oracle = SerializabilityOracle(_FakeStore(history, items), invariant=invariant)
        return oracle.finish(_FakeEngine())

    def test_clean_history_passes(self):
        history = [
            _Entry(0, "a", reads=(("k", 0, None),), writes=(("k", 1, 10),)),
            _Entry(1, "b", reads=(("k", 1, 10),), writes=(("k", 2, 20),)),
        ]
        assert self.finish(history, {"k": 20}) == []

    def test_duplicate_op_id_fires(self):
        history = [
            _Entry(0, "a", writes=(("k", 1, 1),)),
            _Entry(1, "a", writes=(("k", 2, 2),)),
        ]
        violations = self.finish(history, {"k": 2})
        assert any("committed twice" in v.message for v in violations)

    def test_duplicate_op_id_allowed_with_duplicate_faults(self):
        schedule = schedule_from_faults([])
        history = [
            _Entry(0, "a", writes=(("k", 1, 1),)),
            _Entry(1, "a", writes=(("k", 2, 2),)),
        ]

        class _DupSchedule:
            def kinds(self):
                return {DUPLICATE}

        oracle = SerializabilityOracle(
            _FakeStore(history, {"k": 2}), schedule=_DupSchedule()
        )
        assert all(
            "committed twice" not in v.message for v in oracle.finish(_FakeEngine())
        )
        del schedule

    def test_stale_read_breaks_serial_replay(self):
        # Txn b claims it read k at version 1 value 10, but the replay holds
        # version 2 — a lost-update style anomaly.
        history = [
            _Entry(0, "a", writes=(("k", 1, 10),)),
            _Entry(1, "x", writes=(("k", 2, 15),)),
            _Entry(2, "b", reads=(("k", 1, 10),), writes=(("j", 1, 1),)),
        ]
        violations = self.finish(history, {"k": 15, "j": 1})
        assert any("serial replay" in v.message for v in violations)

    def test_cyclic_conflict_graph_fires(self):
        history = [
            _Entry(0, "seed", writes=(("a", 1, 0), ("b", 1, 0))),
            _Entry(1, "t1", reads=(("a", 1, 0),), writes=(("b", 2, 1),)),
            _Entry(2, "t2", reads=(("b", 1, 0),), writes=(("a", 2, 1),)),
        ]
        violations = self.finish(history, {"a": 1, "b": 1})
        assert any("cyclic" in v.message for v in violations)

    def test_version_gap_fires(self):
        history = [_Entry(0, "a", writes=(("k", 3, 1),))]
        violations = self.finish(history, {"k": 1})
        assert any("version gap" in v.message for v in violations)

    def test_state_divergence_fires(self):
        history = [_Entry(0, "a", writes=(("k", 1, 10),))]
        violations = self.finish(history, {"k": 999})
        assert any("diverges" in v.message for v in violations)

    def test_invariant_violation_fires(self):
        def invariant(items):
            return "broke" if sum(items.values()) != 0 else None

        violations = self.finish(
            [_Entry(0, "a", writes=(("k", 1, 5),))], {"k": 5}, invariant=invariant
        )
        assert any("invariant violated: broke" in v.message for v in violations)


class TestSharedLockAudits:
    def test_mixed_readonly_audits_take_shared_locks(self):
        # Audit the lock plan the mixed scenario's keys_fn induces: pure
        # reads get S locks, so concurrent audits never conflict.
        scenario = txn_mixed_readonly()
        del scenario
        store = TxnStateStore("audit", partitions=2)
        txn = store.begin("p", "audit-op", declared=(("a", "b", "c"), ()))
        plan = store.lock_plan(txn)
        assert all(mode is LockMode.SHARED for _key, mode in plan)
