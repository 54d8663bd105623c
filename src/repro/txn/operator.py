"""The ``transact`` operator: one record = one ACID transaction.

Each incoming record runs ``body(txn, value)`` against the shared
:class:`~repro.txn.store.TxnStateStore`; the transaction is its own handle
(``txn.read`` / ``txn.write`` / ``txn.txn_id`` / ``txn.op_id``). Under
ordered locking the key set is declared up front via ``keys_fn(value)`` and
the whole transaction — lock plan, waits, body, deferred commit — is one
:meth:`~repro.txn.store.TxnStateStore.run` call; under NO-WAIT the body
acquires dynamically and this operator retries with backoff on conflict.

While a transaction is in flight the store holds the owner task
(``TxnStateStore.hold``): its mailbox (including checkpoint barriers) stays
queued, so a barrier can never be processed mid-transaction — the "txn
never straddles a snapshot" half of the atomic-cut argument. The commit
callback emits the output record out-of-band and releases the hold.

:class:`UnisolatedOperator` is the anomaly baseline experiment E10
measures against: the same read-modify-write over a plain ``dict``, no
isolation.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.operators.base import Operator, OperatorContext
from repro.errors import TransactionAborted, TransactionError
from repro.txn.store import StoreTxn, TxnStateStore

#: virtual seconds charged to run a transaction body
EXECUTE_COST = 5e-5
#: NO-WAIT retries wait ``NOWAIT_BACKOFF * attempt`` virtual seconds
NOWAIT_BACKOFF = 2e-4

#: what may stand for a read or a write set in a ``(reads, writes)`` pair
_KEY_COLLECTIONS = (set, frozenset, list, tuple)


def _declared_keys(declared: Any) -> tuple[frozenset, frozenset]:
    """``keys_fn``'s answer as ``(reads, writes)``. A 2-tuple of key
    collections is ``(reads, writes)``; anything else — a 2-tuple of plain
    keys included — is the key set, read and written."""
    if isinstance(declared, tuple) and len(declared) == 2:
        reads, writes = declared
        if isinstance(reads, _KEY_COLLECTIONS) and isinstance(writes, _KEY_COLLECTIONS):
            return frozenset(reads), frozenset(writes)
    keys = frozenset(declared)
    return keys, keys


class TransactOperator(Operator):
    """Engine operator executing one serializable txn per record."""

    def __init__(
        self,
        store: TxnStateStore,
        body: Callable[[StoreTxn, Any], Any],
        keys_fn: Callable[[Any], Any] | None = None,
        op_id_fn: Callable[[Any], Any] | None = None,
        name: str = "transact",
    ) -> None:
        config = store.config
        self._ordered = config.locking == "ordered"
        if self._ordered and keys_fn is None:
            raise TransactionError("ordered locking requires keys_fn to declare the key set")
        self._max_retries = config.max_retries
        self.store = store
        self.body = body
        self.keys_fn = keys_fn
        self.op_id_fn = op_id_fn
        #: the Task checkpoint machinery looks this attribute up to run the
        #: whole-store fence protocol around barriers
        self.txn_gate = store
        self._name = name
        self._task = None
        self._origin = name
        #: the record in flight and the task incarnation it arrived in: the
        #: hold admits one transaction per task at a time
        self._record = None
        self._incarnation = 0

    # ------------------------------------------------------------------
    def open(self, ctx: OperatorContext) -> None:
        task = ctx.task
        self._task = task
        self._origin = task.name
        self.store.bind_task(task)

    # ------------------------------------------------------------------
    def process(self, record: Any, ctx: OperatorContext) -> None:
        ctx.add_cost(EXECUTE_COST)
        task = self._task
        value = record.value
        op_id = value if self.op_id_fn is None else self.op_id_fn(value)
        self._record = record
        self._incarnation = task.incarnation
        if not self._ordered:
            self.store.hold(task.name)
            self._attempt_nowait(op_id, 0, task.incarnation)
            return
        declared = _declared_keys(self.keys_fn(value))
        self.store.hold(task.name)
        self.store.run(task.name, op_id, declared, self.body, value, self._on_commit)

    # --- NO-WAIT path --------------------------------------------------
    def _attempt_nowait(self, op_id: Any, tries: int, incarnation: int) -> None:
        task = self._task
        if task.incarnation != incarnation or task.dead:
            return
        txn = self.store.begin(task.name, op_id)
        try:
            out = self.body(txn, self._record.value)
        except TransactionAborted:
            self.store.note_retry()
            if tries + 1 >= self._max_retries:
                # permanent abort: drop the record (counted, so record
                # conservation still balances) and release the hold
                task.metrics.dropped += 1
                self.store.release(task.name)
                return
            delay = NOWAIT_BACKOFF * (tries + 1)
            task.kernel.call_after(delay, self._attempt_nowait, op_id, tries + 1, incarnation)
            return
        except Exception:
            self.store.abort(txn)
            self.store.release(task.name)
            raise
        self.store.finish_attempt(txn, self._on_commit, out)

    # --- commit completion ---------------------------------------------
    def _on_commit(self, out: Any) -> None:
        task = self._task
        if task.incarnation != self._incarnation or task.dead:
            return
        if out is not None:
            task.collect_output(self._record.with_value(out))
        task.flush_outputs()
        self.store.release(task.name)

    # ------------------------------------------------------------------
    def snapshot_state(self) -> Any:
        return self.store.take_operator_snapshot(self._origin)

    def restore_state(self, snapshot: Any) -> None:
        if snapshot is not None:
            self.store.restore_capture(snapshot)

    @property
    def name(self) -> str:
        return self._name


class UnisolatedOperator(Operator):
    """The anomaly baseline: read-modify-write over a plain shared ``dict``
    with no isolation.

    ``read_phase(data, value) -> snapshot`` reads and ``write_phase(data,
    value, snapshot) -> output`` writes. To surface lost updates under the
    cooperative kernel, a record's write lands only after the *next*
    record's read — the racy interleaving two unsynchronized workers
    produce — so two records on one key clobber each other's update.
    """

    def __init__(
        self,
        data: dict,
        read_phase: Callable[[dict, Any], Any],
        write_phase: Callable[[dict, Any, Any], Any],
        attempt_cost: float = 5e-5,
        name: str = "dirty",
    ) -> None:
        self.data = data
        self.read_phase = read_phase
        self.write_phase = write_phase
        self.attempt_cost = attempt_cost
        self._name = name
        #: the previous record and the value it read, its write not yet landed
        self._staged: tuple | None = None

    @property
    def name(self) -> str:
        return self._name

    def process(self, record: Any, ctx: OperatorContext) -> None:
        ctx.add_cost(self.attempt_cost)
        snapshot = self.read_phase(self.data, record.value)
        self._write_staged(ctx)
        self._staged = (record, snapshot)

    def flush(self, ctx: OperatorContext) -> None:
        self._write_staged(ctx)

    def _write_staged(self, ctx: OperatorContext) -> None:
        if self._staged is not None:
            record, snapshot = self._staged
            self._staged = None
            output = self.write_phase(self.data, record.value, snapshot)
            if output is not None:
                ctx.emit(record.with_value(output))
