"""Oracle unit tests: each invariant trips on the state it polices."""

from __future__ import annotations

from types import SimpleNamespace

from repro.chaos import (
    CheckpointConsistencyOracle,
    CreditConservationOracle,
    DeliveryOracle,
    GuaranteeExpectation,
    WatermarkMonotonicityOracle,
    schedule_from_faults,
)
from repro.chaos.schedule import FaultSpec
from repro.runtime.config import GuaranteeLevel


class _FakeKernel:
    def now(self):
        return 1.5


def _engine(**attrs):
    attrs.setdefault("job_finished", True)
    return SimpleNamespace(kernel=_FakeKernel(), **attrs)


# ----------------------------------------------------------------------
# expectation model
# ----------------------------------------------------------------------
def test_expectation_floor_by_level():
    eo = GuaranteeExpectation.for_run(GuaranteeLevel.EXACTLY_ONCE)
    assert not eo.allow_losses and not eo.allow_duplicates
    alo = GuaranteeExpectation.for_run(GuaranteeLevel.AT_LEAST_ONCE)
    assert not alo.allow_losses and alo.allow_duplicates
    amo = GuaranteeExpectation.for_run(GuaranteeLevel.AT_MOST_ONCE)
    assert amo.allow_losses and not amo.allow_duplicates


def test_expectation_relaxed_by_injected_faults():
    lossy = schedule_from_faults([FaultSpec(kind="drop", target="a[0]->b[0]", at=0.0)])
    duping = schedule_from_faults([FaultSpec(kind="duplicate", target="a[0]->b[0]", at=0.0)])
    benign = schedule_from_faults([FaultSpec(kind="delay", target="a[0]->b[0]", at=0.0)])
    eo = GuaranteeLevel.EXACTLY_ONCE
    assert GuaranteeExpectation.for_run(eo, lossy).allow_losses
    assert not GuaranteeExpectation.for_run(eo, lossy).allow_duplicates
    assert GuaranteeExpectation.for_run(eo, duping).allow_duplicates
    assert not GuaranteeExpectation.for_run(eo, duping).allow_losses
    relaxed_none = GuaranteeExpectation.for_run(eo, benign)
    assert not relaxed_none.allow_losses and not relaxed_none.allow_duplicates


# ----------------------------------------------------------------------
# delivery oracle
# ----------------------------------------------------------------------
def _delivery(expected, observed, level, schedule=None):
    oracle = DeliveryOracle(
        expected, lambda: observed, GuaranteeExpectation.for_run(level, schedule)
    )
    return oracle.finish(_engine())


def test_delivery_oracle_flags_loss_under_exactly_once():
    violations = _delivery([1, 2, 3], [1, 3], GuaranteeLevel.EXACTLY_ONCE)
    assert any("losses" in v.message for v in violations)


def test_delivery_oracle_flags_duplicate_under_exactly_once():
    violations = _delivery([1, 2], [1, 2, 2], GuaranteeLevel.EXACTLY_ONCE)
    assert any("duplicates" in v.message for v in violations)


def test_delivery_oracle_allows_contracted_slack():
    assert not _delivery([1, 2, 3], [1, 3], GuaranteeLevel.AT_MOST_ONCE)
    assert not _delivery([1, 2], [1, 2, 2], GuaranteeLevel.AT_LEAST_ONCE)


def test_delivery_oracle_flags_liveness():
    oracle = DeliveryOracle(
        [1], lambda: [1], GuaranteeExpectation.for_run(GuaranteeLevel.EXACTLY_ONCE)
    )
    violations = oracle.finish(_engine(job_finished=False))
    assert any("liveness" in v.message for v in violations)


# ----------------------------------------------------------------------
# watermark monotonicity
# ----------------------------------------------------------------------
def _task(watermark, incarnation=0):
    return SimpleNamespace(current_watermark=watermark, incarnation=incarnation)


def test_watermark_oracle_flags_regression_within_incarnation():
    oracle = WatermarkMonotonicityOracle()
    engine = _engine(tasks={"map[0]": _task(5.0)})
    assert not oracle.probe(engine)
    engine.tasks["map[0]"] = _task(3.0)
    violations = oracle.probe(engine)
    assert violations and "regressed" in violations[0].message


def test_watermark_oracle_allows_rewind_across_incarnations():
    oracle = WatermarkMonotonicityOracle()
    assert not oracle.probe(_engine(tasks={"map[0]": _task(5.0, incarnation=0)}))
    # a kill+restore legitimately rewinds the watermark
    assert not oracle.probe(_engine(tasks={"map[0]": _task(0.0, incarnation=1)}))


# ----------------------------------------------------------------------
# credit conservation
# ----------------------------------------------------------------------
def _channel(credits, capacity, backlog=0):
    return SimpleNamespace(
        spec=SimpleNamespace(capacity=capacity),
        credits=credits,
        backlog_size=backlog,
        sender=SimpleNamespace(name="a[0]"),
        receiver=SimpleNamespace(name="b[0]"),
    )


def test_credit_oracle_flags_overflow_and_leak():
    oracle = CreditConservationOracle()
    over = _engine(iter_physical_channels=lambda: [_channel(5, 4)])
    assert any("outside" in v.message for v in oracle.probe(over))
    leak = _engine(iter_physical_channels=lambda: [_channel(-1, 4)])
    assert any("outside" in v.message for v in oracle.probe(leak))
    idle_backlog = _engine(iter_physical_channels=lambda: [_channel(2, 4, backlog=3)])
    assert any("backlog" in v.message for v in oracle.probe(idle_backlog))
    clean = _engine(iter_physical_channels=lambda: [_channel(0, 4, backlog=3), _channel(4, 4)])
    assert not oracle.probe(clean)


def test_credit_oracle_skips_unbounded_channels():
    oracle = CreditConservationOracle()
    engine = _engine(iter_physical_channels=lambda: [_channel(None, None)])
    assert not oracle.probe(engine)


# ----------------------------------------------------------------------
# checkpoint consistency
# ----------------------------------------------------------------------
def _record(cid, triggered, completed, offsets):
    return SimpleNamespace(
        checkpoint_id=cid,
        triggered_at=triggered,
        completed_at=completed,
        snapshots={
            name: SimpleNamespace(source_offset=offset) for name, offset in offsets.items()
        },
    )


def test_checkpoint_oracle_accepts_monotone_offsets():
    oracle = CheckpointConsistencyOracle()
    engine = _engine(
        coordinator=SimpleNamespace(completed=[1, 2]),
        checkpoints={
            1: _record(1, 0.1, 0.2, {"src[0]": 10}),
            2: _record(2, 0.3, 0.4, {"src[0]": 25}),
        },
    )
    assert not oracle.finish(engine)


def test_checkpoint_oracle_flags_offset_rewind_and_holes():
    oracle = CheckpointConsistencyOracle()
    engine = _engine(
        coordinator=SimpleNamespace(completed=[1, 2, 3]),
        checkpoints={
            1: _record(1, 0.1, 0.2, {"src[0]": 25}),
            2: _record(2, 0.3, 0.4, {"src[0]": 10}),  # rewind
            3: _record(3, 0.5, 0.6, {}),  # no source snapshot
        },
    )
    messages = [v.message for v in oracle.finish(engine)]
    assert any("rewinds" in m for m in messages)
    assert any("no source snapshot" in m for m in messages)


def test_checkpoint_oracle_flags_missing_record():
    oracle = CheckpointConsistencyOracle()
    engine = _engine(coordinator=SimpleNamespace(completed=[7]), checkpoints={})
    assert any("no record" in v.message for v in oracle.finish(engine))
