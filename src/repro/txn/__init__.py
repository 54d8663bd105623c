"""Streaming transactions (survey §4.2): the engine-integrated transactional
state store (``TxnStateStore`` + ``DataStream.transact``, ordered 2PL or
NO-WAIT), the no-isolation baseline operator and 2PC. Saga compensation runs on
the function runtime (see ``examples/cloud_order_app.py``)."""

from repro.txn.operator import TransactOperator, UnisolatedOperator
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
