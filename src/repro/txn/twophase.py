"""Two-phase commit across components (survey §4.2: "a single success or
fail response that mirrors the recording of all state changes or none").

Cloud applications span services; coordinating their state changes needs an
atomic commitment protocol. Participants stage changes on ``prepare`` and
expose them only after ``commit``; any NO vote or participant failure turns
the decision into a global abort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import TransactionError


class Vote(enum.Enum):
    YES = "yes"
    NO = "no"


class Decision(enum.Enum):
    COMMIT = "commit"
    ABORT = "abort"


class Participant:
    """A resource manager holding its own state."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.state: dict[Any, Any] = {}
        self._staged: dict[int, dict[Any, Any]] = {}
        self.fail_on_prepare = False
        self.prepared_log: list[int] = []

    # --- protocol ---------------------------------------------------------
    def prepare(self, txn_id: int, changes: dict[Any, Any]) -> Vote:
        """Phase 1: validate and stage the changes; vote YES/NO."""
        if self.fail_on_prepare:
            return Vote.NO
        invalid = self.validate(changes)
        if invalid:
            return Vote.NO
        self._staged[txn_id] = dict(changes)
        self.prepared_log.append(txn_id)
        return Vote.YES

    def validate(self, changes: dict[Any, Any]) -> str | None:
        """Hook: return an error string to vote NO (e.g. negative balance)."""
        return None

    def commit(self, txn_id: int) -> None:
        """Phase 2: expose the staged changes."""
        staged = self._staged.pop(txn_id, None)
        if staged is None:
            raise TransactionError(f"{self.name}: commit for unprepared txn {txn_id}")
        self.state.update(staged)

    def abort(self, txn_id: int) -> None:
        """Phase 2: discard the staged changes."""
        self._staged.pop(txn_id, None)

    @property
    def in_doubt(self) -> int:
        return len(self._staged)


@dataclass
class TwoPCResult:
    txn_id: int
    decision: Decision
    votes: dict[str, Vote] = field(default_factory=dict)


class TwoPhaseCoordinator:
    """Drives prepare/commit across participants; logs every outcome."""

    def __init__(self) -> None:
        self._next_txn = 1
        self.log: list[TwoPCResult] = []

    def execute(self, changes_by_participant: dict[Participant, dict[Any, Any]]) -> TwoPCResult:
        """Run 2PC over the participants; returns the decision and votes."""
        txn_id = self._next_txn
        self._next_txn += 1
        votes: dict[str, Vote] = {}
        prepared: list[Participant] = []
        decision = Decision.COMMIT
        for participant, changes in changes_by_participant.items():
            vote = participant.prepare(txn_id, changes)
            votes[participant.name] = vote
            if vote is Vote.YES:
                prepared.append(participant)
            else:
                decision = Decision.ABORT
                break
        if decision is Decision.COMMIT:
            for participant in prepared:
                participant.commit(txn_id)
        else:
            for participant in prepared:
                participant.abort(txn_id)
            # Participants never contacted hold nothing; participants that
            # voted NO staged nothing.
        result = TwoPCResult(txn_id=txn_id, decision=decision, votes=votes)
        self.log.append(result)
        return result

    @property
    def commit_count(self) -> int:
        return sum(1 for r in self.log if r.decision is Decision.COMMIT)

    @property
    def abort_count(self) -> int:
        return sum(1 for r in self.log if r.decision is Decision.ABORT)
