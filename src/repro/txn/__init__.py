"""Streaming transactions (survey §4.2): the engine-integrated transactional
state store (``TxnStateStore`` + ``DataStream.transact``, ordered 2PL or
NO-WAIT), the no-isolation baseline operator, 2PC and sagas."""

from repro.txn.operator import TransactOperator, UnisolatedOperator
from repro.txn.saga import SagaExecutor, SagaReport, SagaStep
from repro.txn.store import (
    CommittedTxn,
    LockMode,
    StoreCapture,
    StoreTxn,
    TxnConfig,
    TxnStateStore,
    TxnStatus,
)
from repro.txn.twophase import (
    Decision,
    Participant,
    TwoPCResult,
    TwoPhaseCoordinator,
    Vote,
)

__all__ = [
    "CommittedTxn",
    "Decision",
    "LockMode",
    "Participant",
    "SagaExecutor",
    "SagaReport",
    "SagaStep",
    "StoreCapture",
    "StoreTxn",
    "TransactOperator",
    "TwoPCResult",
    "TwoPhaseCoordinator",
    "TxnConfig",
    "TxnStateStore",
    "TxnStatus",
    "UnisolatedOperator",
    "Vote",
]
