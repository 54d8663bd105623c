"""Streaming transactions (survey §4.2): 2PL manager, 2PC, sagas, S-Store ops,
and the engine-integrated transactional state store (``TxnStateStore`` +
``DataStream.transact``)."""

from repro.txn.manager import LockMode, Transaction, TransactionManager, TxnStatus
from repro.txn.operator import TransactOperator
from repro.txn.saga import SagaExecutor, SagaReport, SagaStep
from repro.txn.sstore import NonTransactionalOperator, TransactionalOperator
from repro.txn.store import CommittedTxn, StoreCapture, StoreTxn, TxnConfig, TxnStateStore
from repro.txn.twophase import (
    AsyncParticipant,
    Decision,
    Participant,
    TwoPCResult,
    TwoPhaseCoordinator,
    Vote,
)

__all__ = [
    "AsyncParticipant",
    "CommittedTxn",
    "Decision",
    "LockMode",
    "NonTransactionalOperator",
    "Participant",
    "SagaExecutor",
    "SagaReport",
    "SagaStep",
    "StoreCapture",
    "StoreTxn",
    "TransactOperator",
    "Transaction",
    "TransactionManager",
    "TransactionalOperator",
    "TwoPCResult",
    "TwoPhaseCoordinator",
    "TxnConfig",
    "TxnStateStore",
    "TxnStatus",
    "Vote",
]
