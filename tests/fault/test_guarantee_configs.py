"""Processing guarantee configuration and end-to-end auditing."""

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.fault.guarantees import audit_delivery, config_for_guarantee
from repro.io import CollectSink, DedupSink, SensorWorkload, TransactionalSink
from repro.runtime.config import CheckpointMode, GuaranteeLevel


class TestAudit:
    def test_exactly_once_classification(self):
        audit = audit_delivery([1, 2, 3], [1, 2, 3])
        assert audit.achieved is GuaranteeLevel.EXACTLY_ONCE
        assert audit.is_exactly_once

    def test_at_least_once_classification(self):
        audit = audit_delivery([1, 2, 3], [1, 2, 2, 3])
        assert audit.achieved is GuaranteeLevel.AT_LEAST_ONCE
        assert audit.duplicates == 1
        assert audit.losses == 0

    def test_at_most_once_classification(self):
        audit = audit_delivery([1, 2, 3], [1, 3])
        assert audit.achieved is GuaranteeLevel.AT_MOST_ONCE
        assert audit.losses == 1

    def test_multiset_semantics(self):
        # Two legitimate occurrences of the same value are not duplicates.
        audit = audit_delivery([1, 1, 2], [1, 1, 2])
        assert audit.duplicates == 0


class TestConfigs:
    def test_levels_map_to_checkpoint_modes(self):
        none_cfg = config_for_guarantee(GuaranteeLevel.AT_MOST_ONCE)
        assert none_cfg.checkpoints is None
        alo = config_for_guarantee(GuaranteeLevel.AT_LEAST_ONCE)
        assert alo.checkpoints.mode is CheckpointMode.UNALIGNED
        eo = config_for_guarantee(GuaranteeLevel.EXACTLY_ONCE)
        assert eo.checkpoints.mode is CheckpointMode.ALIGNED


class TestEndToEnd:
    def run(self, level, sink, recover):
        # Flow control keeps the backlog bounded so checkpoint barriers
        # reach the slow operator promptly.
        config = config_for_guarantee(level, checkpoint_interval=0.05, seed=31, default_channel_capacity=64)
        env = StreamExecutionEnvironment(config)
        (
            env.from_workload(SensorWorkload(count=600, rate=4000.0, key_count=4, seed=131))
            .key_by(field_selector("sensor"))
            # Slow operator: a backlog is queued at the kill instant, so
            # recovery policy decides whether those records are lost.
            .map(lambda v: v["seq"], name="seq", processing_cost=1e-3)
            .sink(sink)
        )
        engine = env.build()

        def fail():
            engine.kill_task("seq[0]")
            recover(engine)

        engine.kernel.call_at(0.2, fail)
        env.execute(until=30.0)
        return engine

    def test_at_most_once_loses_but_never_duplicates(self):
        sink = DedupSink("out", identity=lambda v: v)
        self.run(
            GuaranteeLevel.AT_MOST_ONCE, sink, lambda engine: engine.recover_without_replay()
        )
        audit = audit_delivery(range(600), [r.value for r in sink.results])
        assert audit.duplicates == 0
        assert audit.losses > 0
        assert audit.achieved is GuaranteeLevel.AT_MOST_ONCE

    def test_at_least_once_duplicates_but_never_loses(self):
        sink = CollectSink("out")
        self.run(
            GuaranteeLevel.AT_LEAST_ONCE, sink, lambda engine: engine.recover_from_checkpoint()
        )
        audit = audit_delivery(range(600), [r.value for r in sink.results])
        assert audit.losses == 0
        assert audit.duplicates > 0
        assert audit.achieved is GuaranteeLevel.AT_LEAST_ONCE

    def test_exactly_once_neither(self):
        sink = TransactionalSink("out")
        self.run(
            GuaranteeLevel.EXACTLY_ONCE, sink, lambda engine: engine.recover_from_checkpoint()
        )
        audit = audit_delivery(range(600), [r.value for r in sink.committed])
        assert audit.is_exactly_once, (audit.duplicates, audit.losses)
