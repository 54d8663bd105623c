"""Two-phase commit and saga workflows."""

import pytest

from repro.txn.saga import SagaExecutor, SagaStep
from repro.txn.twophase import (
    Decision,
    Participant,
    TwoPhaseCoordinator,
    Vote,
)


class BalanceParticipant(Participant):
    """Votes NO when a change would drive a balance negative."""

    def validate(self, changes):
        for key, value in changes.items():
            if isinstance(value, (int, float)) and value < 0:
                return f"negative balance for {key}"
        return None


class TestTwoPhaseCommit:
    def test_all_yes_commits_everywhere(self):
        a, b = BalanceParticipant("a"), BalanceParticipant("b")
        coordinator = TwoPhaseCoordinator()
        result = coordinator.execute({a: {"x": 10}, b: {"y": 20}})
        assert result.decision is Decision.COMMIT
        assert a.state == {"x": 10}
        assert b.state == {"y": 20}
        assert a.in_doubt == 0

    def test_one_no_aborts_all(self):
        a, b = BalanceParticipant("a"), BalanceParticipant("b")
        coordinator = TwoPhaseCoordinator()
        result = coordinator.execute({a: {"x": 10}, b: {"y": -5}})
        assert result.decision is Decision.ABORT
        assert a.state == {}  # prepared but rolled back
        assert b.state == {}
        assert a.in_doubt == 0
        assert result.votes == {"a": Vote.YES, "b": Vote.NO}

    def test_participant_failure_aborts(self):
        a, b = BalanceParticipant("a"), BalanceParticipant("b")
        b.fail_on_prepare = True
        coordinator = TwoPhaseCoordinator()
        result = coordinator.execute({a: {"x": 1}, b: {"y": 1}})
        assert result.decision is Decision.ABORT
        assert a.state == {} and b.state == {}

    def test_atomicity_over_many_transactions(self):
        a, b = BalanceParticipant("a"), BalanceParticipant("b")
        coordinator = TwoPhaseCoordinator()
        for i in range(10):
            coordinator.execute({a: {"x": i}, b: {"y": -1 if i % 3 == 0 else i}})
        assert coordinator.commit_count + coordinator.abort_count == 10
        # Both participants observed exactly the committed transactions.
        assert a.state.get("x") == b.state.get("y")


class TestSaga:
    def make_order_saga(self, fail_at=None):
        log = []

        def step(name):
            def action(ctx):
                if name == fail_at:
                    raise RuntimeError(f"{name} failed")
                log.append(f"+{name}")
                ctx[name] = True

            def compensate(ctx):
                log.append(f"-{name}")
                ctx[name] = False

            return SagaStep(name, action, compensate)

        steps = [step("reserve"), step("charge"), step("ship")]
        return SagaExecutor(steps), log

    def test_happy_path_runs_all_steps(self):
        saga, log = self.make_order_saga()
        report = saga.execute()
        assert report.succeeded
        assert report.completed == ["reserve", "charge", "ship"]
        assert log == ["+reserve", "+charge", "+ship"]

    def test_failure_compensates_in_reverse(self):
        saga, log = self.make_order_saga(fail_at="ship")
        report = saga.execute()
        assert not report.succeeded
        assert report.failed_step == "ship"
        assert report.compensated == ["charge", "reserve"]
        assert log == ["+reserve", "+charge", "-charge", "-reserve"]

    def test_first_step_failure_compensates_nothing(self):
        saga, log = self.make_order_saga(fail_at="reserve")
        report = saga.execute()
        assert report.compensated == []
        assert log == []

    def test_counters(self):
        saga, _log = self.make_order_saga(fail_at="charge")
        saga.execute()
        ok_saga, _ = self.make_order_saga()
        ok_saga.execute()
        assert saga.rollback_count == 1
        assert ok_saga.success_count == 1

    def test_empty_saga_rejected(self):
        with pytest.raises(ValueError):
            SagaExecutor([])
