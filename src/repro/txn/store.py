"""Engine-integrated transactional state store (survey §4.2, S-Store).

``TxnStateStore`` is shared mutable state partitioned across the subtasks of
a ``transact`` node: one record may atomically read-modify-write multiple
keys across multiple partitions. Two locking disciplines are provided:

* ``ordered`` (default) — strict 2PL with *global ordered acquisition*: the
  transaction declares its key set up front, locks are acquired in a global
  total order (sorted ``repr``) with strict-FIFO per-key wait queues, so the
  waits-for graph cannot form a cycle — deadlock-free without aborts;
* ``nowait`` — S-Store's NO-WAIT policy: any conflict aborts the requester
  immediately, callers retry with backoff. Livelock-prone under contention
  but requires no declared key set.

Commits are *deferred on the virtual clock*: committing costs
``COMMIT_BASE_COST + COMMIT_COST_PER_PARTITION * (partitions_touched - 1)``,
modelling the 2PC round-trips a multi-partition commit would need. The
window between execute and commit is where real interleavings (and hence
serializability hazards) appear in the simulation.

Checkpoint interaction — a transaction never straddles a snapshot. The
store holds owners with the task's nesting ``suspend`` and drops exactly
its own holds when an owner dies:

* *drain*: an owner is held while its transaction is in flight (``hold``
  / ``release``), so the barrier cannot be popped from its mailbox mid-txn;
* *fence*: each owner parks (a hold) on the barrier (``request_fence``);
  when every live owner has parked, one **whole-store capture** is taken
  at a single kernel instant and shared by reference into every owner's
  snapshot, then owners resume (``inject_barrier``, then the hold is
  released) in deterministic order; a resume whose park was cancelled or
  whose owner died is void. Any one surviving owner's snapshot restores
  the whole store, closing the finished-owner / killed-owner partition
  holes.

The committed history (``CommittedTxn`` log with per-key versions) is what
the chaos serializability oracle replays and checks.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.core.keys import stable_hash
from repro.errors import TransactionAborted, TransactionError


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


_MISSING = object()
_ACTIVE = TxnStatus.ACTIVE
_SHARED = LockMode.SHARED
_EXCLUSIVE = LockMode.EXCLUSIVE

#: virtual seconds a single-partition commit takes, and what each further
#: partition the transaction touched adds (the 2PC round-trips)
COMMIT_BASE_COST = 2e-4
COMMIT_COST_PER_PARTITION = 1e-4


@dataclass(frozen=True)
class TxnConfig:
    """Knobs for the transactional state store.

    ``locking`` picks the discipline (``"ordered"`` | ``"nowait"``);
    ``max_retries`` bounds a NO-WAIT record's attempts. Frozen: a store
    reads it once, at construction."""

    locking: str = "ordered"
    max_retries: int = 25

    def __post_init__(self) -> None:
        if self.locking not in ("ordered", "nowait"):
            raise TransactionError(f"unknown locking discipline {self.locking!r}")
        if self.max_retries < 1:
            raise TransactionError(f"max_retries must be >= 1, got {self.max_retries!r}")


class StoreTxn:
    """One in-flight transaction against a :class:`TxnStateStore`, and the
    handle its body sees: ``read`` / ``write`` / ``txn_id`` / ``op_id``."""

    __slots__ = (
        "_store",
        "txn_id",
        "origin",
        "op_id",
        "started_at",
        "declared_reads",
        "declared_writes",
        "status",
        "locks",
        "undo",
        "reads",
        "touched_partitions",
        "waiting_on",
        "wait_started",
    )

    def __init__(
        self,
        store: "TxnStateStore",
        txn_id: int,
        origin: str,
        op_id: Any,
        started_at: float,
        declared_reads: frozenset | None = None,
        declared_writes: frozenset | None = None,
    ) -> None:
        self._store = store
        self.txn_id = txn_id
        self.origin = origin
        self.op_id = op_id
        self.started_at = started_at
        self.declared_reads = declared_reads
        self.declared_writes = declared_writes
        self.status = _ACTIVE
        self.locks: dict = {}  # key -> LockMode, in acquisition order
        #: key -> pre-image (_MISSING = absent); its keys are the write set
        self.undo: dict = {}
        #: key -> (key, version, value) for external reads, in first-read order
        self.reads: dict = {}
        self.touched_partitions: set = set()
        self.waiting_on: Any = _MISSING  # key whose wait queue holds this txn
        self.wait_started = 0.0

    def _inactive(self) -> TransactionError:
        return TransactionError(f"txn {self.txn_id} is {self.status.value}")

    def read(self, key: Any, default: Any = None) -> Any:
        """Read ``key`` inside the transaction (own writes visible). Ordered
        locking requires the key to be declared (its lock was taken up
        front); NO-WAIT acquires it now, aborting on conflict."""
        if self.status is not _ACTIVE:
            raise self._inactive()
        store = self._store
        if key not in self.locks:
            if store._ordered:
                raise TransactionError(
                    f"txn {self.txn_id}: read of undeclared key {key!r} under ordered locking"
                )
            store._acquire_nowait(self, key, _SHARED)
        memo = store._partition_memo
        part = memo[key] if key in memo else store.partition_of(key)
        self.touched_partitions.add(part)
        value = store._data[part].get(key, default)
        if key not in self.undo and key not in self.reads:
            # External read: any uncommitted writer holds X, so this value
            # is committed — record (key, version, value) for the oracle.
            self.reads[key] = (key, store._versions.get(key, 0), value)
        return value

    def write(self, key: Any, value: Any) -> None:
        """Write ``key`` inside the transaction (in place, undone on abort)."""
        if self.status is not _ACTIVE:
            raise self._inactive()
        store = self._store
        if self.locks.get(key) is not _EXCLUSIVE:
            if store._ordered:
                raise TransactionError(
                    f"txn {self.txn_id}: write of undeclared key {key!r} under ordered locking"
                )
            store._acquire_nowait(self, key, _EXCLUSIVE)
        memo = store._partition_memo
        part = memo[key] if key in memo else store.partition_of(key)
        self.touched_partitions.add(part)
        data = store._data[part]
        undo = self.undo
        if key not in undo:
            undo[key] = data.get(key, _MISSING)
        data[key] = value


@dataclass(slots=True)
class CommittedTxn:
    """One entry of the committed history log (the oracle's input)."""

    seq: int
    txn_id: int
    op_id: Any
    origin: str
    committed_at: float
    reads: tuple  # ((key, version_read, value_read), ...) external reads only
    writes: tuple  # ((key, new_version, value), ...) sorted by repr(key)


@dataclass
class StoreCapture:
    """A whole-store snapshot: every partition at one kernel instant.

    Shared by reference into each owner's ``TaskSnapshot``; restoring any
    one of them reinstalls the entire store."""

    checkpoint_id: int | None
    data: list  # list[dict] — one committed dict per partition
    versions: dict
    log_len: int


def _compatible(holders: dict, txn_id: int, mode: LockMode) -> bool:
    """May ``txn_id`` hold ``mode`` beside a key's other ``holders``?"""
    if mode is _SHARED:
        for holder, held in holders.items():
            if held is _EXCLUSIVE and holder != txn_id:
                return False
        return True
    return not holders or (len(holders) == 1 and txn_id in holders)


class TxnStateStore:
    """Shared transactional state partitioned across the owner subtasks."""

    def __init__(self, name: str, partitions: int = 1, config: TxnConfig | None = None) -> None:
        if partitions < 1:
            raise TransactionError(f"partitions must be >= 1, got {partitions}")
        self.name = name
        self.partitions = partitions
        self.config = config = config or TxnConfig()
        #: the discipline, read once (the config is frozen)
        self._ordered = config.locking == "ordered"
        self._data: list[dict] = [dict() for _ in range(partitions)]
        #: key -> partition memo: a transaction asks six times per key and
        #: the answer hashes with blake2b. One int per distinct key asked
        #: about, beside the value, version and lock the store already keeps
        #: for it; ``partitions`` never changes after construction
        self._partition_memo: dict[Any, int] = {}
        self._versions: dict[Any, int] = {}
        self._history: list[CommittedTxn] = []
        #: the lock table: key -> {txn_id: LockMode}, and key -> strict-FIFO
        #: deque of (txn, mode, continuation). An entry exists only while the
        #: key has holders (resp. waiters); a key with waiters has holders
        self._locks: dict[Any, dict[int, LockMode]] = {}
        self._waiters: dict[Any, deque] = {}
        self._active: dict[int, StoreTxn] = {}
        self._ids = itertools.count(1)
        self._kernel = None
        self._owners: dict[str, Any] = {}  # task name -> Task
        #: owners held by a transaction in flight / parked on a fence
        #: (origin -> the checkpoint it waits on); one hold each
        self._holding: set[str] = set()
        self._parked: dict[str, int] = {}
        self._fence_rounds: dict[int, dict[str, tuple]] = {}  # cid -> origin -> (task, barrier)
        self._staged_by_origin: dict[str, StoreCapture] = {}
        self._metrics: dict[str, Any] | None = None
        # plain counters (mirrored into obs when bound)
        self.committed = 0
        self.aborted = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # partitioning
    # ------------------------------------------------------------------
    def partition_of(self, key: Any) -> int:
        """Deterministic, process-independent partition assignment."""
        part = self._partition_memo.get(key)
        if part is None:
            part = self._partition_memo[key] = stable_hash(key) % self.partitions
        return part

    def _now(self) -> float:
        return self._kernel.now() if self._kernel is not None else 0.0

    # ------------------------------------------------------------------
    # engine binding
    # ------------------------------------------------------------------
    def bind_task(self, task: Any) -> None:
        """Register an owner subtask; wires the kernel, the engine-level
        store registry, and obs metrics on first contact."""
        self._owners[task.name] = task
        engine = getattr(task, "engine", None)
        if engine is None:
            return
        if self._kernel is None:
            self._kernel = engine.kernel
        stores = getattr(engine, "txn_stores", None)
        if stores is not None:
            stores[self.name] = self
        if self._metrics is None:
            obs = getattr(engine, "obs", None)
            if obs is not None:
                self.bind_metrics(obs.registry, f"{obs.job}/txn/{self.name}/0")

    def bind_metrics(self, registry: Any, prefix: str) -> None:
        """Expose commit/abort/retry counters, lock-wait and commit-latency
        histograms, and a surviving-commits gauge under ``prefix``."""
        self._metrics = {
            "commits": registry.counter(f"{prefix}/commits"),
            "aborts": registry.counter(f"{prefix}/aborts"),
            "retries": registry.counter(f"{prefix}/retries"),
            "lock_wait": registry.histogram(f"{prefix}/lock_wait_seconds"),
            "commit_latency": registry.histogram(f"{prefix}/commit_seconds"),
        }
        # A gauge, not a counter: recovery truncates the history, so the
        # surviving-commit count may shrink.
        registry.gauge(f"{prefix}/committed_surviving", lambda: len(self._history))

    # ------------------------------------------------------------------
    # ordered transactions: one call
    # ------------------------------------------------------------------
    def run(
        self,
        origin: str,
        op_id: Any,
        declared: tuple[frozenset, frozenset],
        body: Callable[[StoreTxn, Any], Any],
        value: Any,
        done: Callable[[Any], None],
    ) -> None:
        """Run one ordered-locking transaction: begin it, take its lock plan
        (granting inline, parking strict-FIFO at the first key that must
        wait), run ``body(txn, value)`` and schedule the deferred commit,
        which calls ``done(out)`` with the body's result. ``declared`` is
        ``(read_keys, write_keys)`` as frozensets. A kill or restore in any
        window aborts the transaction, and ``done`` never fires. A body that
        raises aborts the transaction, releases ``origin``'s hold and the
        exception propagates."""
        reads, writes = declared
        kernel = self._kernel
        txn = StoreTxn(
            self,
            next(self._ids),
            origin,
            op_id,
            kernel.now() if kernel is not None else 0.0,
            reads,
            writes,
        )
        self._active[txn.txn_id] = txn
        plan = sorted(writes if reads is writes else reads | writes, key=repr)
        self._take_locks(txn, plan, 0, body, value, done)

    def _take_locks(
        self, txn: StoreTxn, plan: list, index: int, body: Callable, value: Any, done: Callable
    ) -> None:
        """Acquire ``plan[index:]`` in order, then run the body and schedule
        the commit. A continuation exists only for a key that must wait: it
        resumes here, at the next key, once the wait queue grants it."""
        if txn.status is not _ACTIVE:
            return  # killed or restored while parked; the kill dropped the hold
        table = self._locks
        waiting = self._waiters
        held = txn.locks
        writes = txn.declared_writes
        txn_id = txn.txn_id
        for index in range(index, len(plan)):  # acquire()'s grant rule, inline
            key = plan[index]
            mode = _EXCLUSIVE if key in writes else _SHARED
            if key not in table:
                table[key] = {txn_id: mode}
            elif key in waiting or not _compatible(table[key], txn_id, mode):
                resume = partial(self._take_locks, txn, plan, index + 1, body, value, done)
                self._park(txn, key, mode, resume)
                return
            else:
                table[key][txn_id] = mode
            held[key] = mode
        try:
            out = body(txn, value)
        except Exception:
            # also after a lock wait, where this runs as a kernel event
            self.abort(txn)
            self.release(txn.origin)
            raise
        self.finish_attempt(txn, done, out)

    def lock_plan(self, txn: StoreTxn) -> list:
        """Global-order lock plan: keys sorted by ``repr``; writes (and
        read∩write keys) take X directly — no S→X upgrades, ever."""
        writes = txn.declared_writes
        return [
            (key, _EXCLUSIVE if key in writes else _SHARED)
            for key in sorted(txn.declared_reads | writes, key=repr)
        ]

    # ------------------------------------------------------------------
    # transaction lifecycle, a step at a time (NO-WAIT, tests)
    # ------------------------------------------------------------------
    def begin(
        self,
        origin: str,
        op_id: Any,
        declared: tuple | None = None,
    ) -> StoreTxn:
        """Start a transaction. ``declared`` is ``(read_keys, write_keys)``
        and is mandatory under ordered locking (the lock plan needs the full
        key set up front)."""
        reads = writes = None
        if declared is not None:
            reads = frozenset(declared[0])
            writes = frozenset(declared[1])
        elif self._ordered:
            raise TransactionError("ordered locking requires a declared key set")
        txn = StoreTxn(self, next(self._ids), origin, op_id, self._now(), reads, writes)
        self._active[txn.txn_id] = txn
        return txn

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def acquire(
        self, txn: StoreTxn, key: Any, mode: LockMode, cont: Callable[[], None] | None
    ) -> bool:
        """Ordered-locking acquire. Returns True if granted now; otherwise
        enqueues ``(txn, cont)`` strict-FIFO on the key's wait queue and
        returns False — ``cont`` fires (via the kernel) once granted."""
        if txn.status is not _ACTIVE:
            raise txn._inactive()
        mine = txn.locks.get(key)
        if mine is _EXCLUSIVE or mine is mode:
            return True
        holders = self._locks.get(key)
        if holders is None:
            self._locks[key] = {txn.txn_id: mode}
        elif key in self._waiters or not _compatible(holders, txn.txn_id, mode):
            if cont is None:
                raise TransactionError(
                    f"txn {txn.txn_id}: lock wait on {key!r} without a kernel continuation"
                )
            self._park(txn, key, mode, cont)
            return False
        else:
            holders[txn.txn_id] = mode
        txn.locks[key] = mode
        return True

    def _park(self, txn: StoreTxn, key: Any, mode: LockMode, cont: Callable) -> None:
        waiters = self._waiters.get(key)
        if waiters is None:
            waiters = self._waiters[key] = deque()
        waiters.append((txn, mode, cont))
        txn.waiting_on = key
        txn.wait_started = self._now()

    def _acquire_nowait(self, txn: StoreTxn, key: Any, mode: LockMode) -> None:
        """NO-WAIT acquire of a lock ``txn`` does not yet hold strongly
        enough: a conflict aborts the requester immediately."""
        holders = self._locks.get(key)
        if holders is None:
            self._locks[key] = {txn.txn_id: mode}
        elif _compatible(holders, txn.txn_id, mode):
            holders[txn.txn_id] = mode
        else:
            self.abort(txn)
            raise TransactionAborted(
                f"txn {txn.txn_id}: {mode.value}-lock conflict on {key!r}"
            )
        txn.locks[key] = mode

    def _release_locks(self, txn: StoreTxn) -> None:
        """Release in ``repr`` order. An ordered transaction's locks are
        already in it: they were taken in plan order."""
        held = txn.locks
        table = self._locks
        waiting = self._waiters
        txn_id = txn.txn_id
        for key in held if self._ordered else sorted(held, key=repr):
            holders = table[key]
            del holders[txn_id]
            if key in waiting:
                self._wake(key, holders, waiting[key])
            elif not holders:
                del table[key]

    def _wake(self, key: Any, holders: dict, waiters: deque) -> None:
        """Grant to the wait-queue head (and batch consecutive S waiters)."""
        granted = []
        while waiters:
            waiter, mode, cont = waiters[0]
            if waiter.status is not _ACTIVE:
                waiters.popleft()
                continue
            if not _compatible(holders, waiter.txn_id, mode):
                break
            waiters.popleft()
            holders[waiter.txn_id] = mode
            waiter.locks[key] = mode
            waiter.waiting_on = _MISSING
            if self._metrics is not None:
                self._metrics["lock_wait"].record(self._now() - waiter.wait_started)
            granted.append(cont)
            if mode is _EXCLUSIVE:
                break
        if not waiters:
            del self._waiters[key]
        if not holders:
            # no holder left means no waiter left: a free key grants its head
            del self._locks[key]
        for cont in granted:
            if self._kernel is not None:
                self._kernel.call_soon(cont)
            else:
                cont()

    def _dequeue_waiter(self, txn: StoreTxn) -> None:
        key = txn.waiting_on
        if key is _MISSING:
            return
        waiters = self._waiters.get(key)
        if waiters is not None:
            kept = deque(entry for entry in waiters if entry[0].txn_id != txn.txn_id)
            if kept:
                self._waiters[key] = kept
            else:
                del self._waiters[key]
        txn.waiting_on = _MISSING

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------
    def commit_cost(self, txn: StoreTxn) -> float:
        """Virtual seconds a commit costs: base + per extra partition."""
        parts = max(1, len(txn.touched_partitions))
        return COMMIT_BASE_COST + COMMIT_COST_PER_PARTITION * (parts - 1)

    def finish_attempt(
        self, txn: StoreTxn, done: Callable[..., None] | None = None, *args: Any
    ) -> None:
        """Schedule the deferred commit ``commit_cost`` virtual seconds out;
        it calls ``done(*args)``. The commit (and so ``done``) only happens
        if the txn is still ACTIVE when the commit event runs (a kill or
        restore in the window aborts it instead)."""
        if txn.status is not _ACTIVE:
            raise txn._inactive()
        kernel = self._kernel
        if kernel is None:
            self._commit(txn, done, *args)
        else:
            kernel.call_at(kernel.now() + self.commit_cost(txn), self._commit, txn, done, *args)

    def _commit(self, txn: StoreTxn, done: Callable[..., None] | None, *args: Any) -> None:
        if txn.status is not _ACTIVE:
            return  # aborted by a kill or restore while the commit was in flight
        versions = self._versions
        data = self._data
        memo = self._partition_memo
        undo = txn.undo
        writes = []
        # In repr order: an ordered transaction wrote only keys of its plan,
        # and took their locks in that order.
        for key in txn.locks if self._ordered else sorted(undo, key=repr):
            if key in undo:
                version = versions.get(key, 0) + 1
                versions[key] = version
                writes.append((key, version, data[memo[key]][key]))
        kernel = self._kernel
        now = kernel.now() if kernel is not None else 0.0
        history = self._history
        history.append(
            CommittedTxn(
                len(history),
                txn.txn_id,
                txn.op_id,
                txn.origin,
                now,
                tuple(txn.reads.values()),
                tuple(writes),
            )
        )
        txn.status = TxnStatus.COMMITTED
        del self._active[txn.txn_id]
        self.committed += 1
        if self._metrics is not None:
            self._metrics["commits"].inc()
            self._metrics["commit_latency"].record(now - txn.started_at)
        self._release_locks(txn)
        if done is not None:
            done(*args)

    def abort(self, txn: StoreTxn) -> None:
        """Roll back via the undo log, release locks, wake waiters."""
        if txn.status is TxnStatus.ABORTED:
            return
        if txn.status is TxnStatus.COMMITTED:
            raise TransactionError(f"cannot abort committed txn {txn.txn_id}")
        for key, old in reversed(txn.undo.items()):
            data = self._data[self.partition_of(key)]
            if old is _MISSING:
                data.pop(key, None)
            else:
                data[key] = old
        txn.undo = {}
        txn.status = TxnStatus.ABORTED
        self._active.pop(txn.txn_id, None)
        self.aborted += 1
        if self._metrics is not None:
            self._metrics["aborts"].inc()
        self._dequeue_waiter(txn)
        self._release_locks(txn)

    def note_retry(self) -> None:
        """Count a NO-WAIT retry (plain counter + bound metric)."""
        self.retries += 1
        if self._metrics is not None:
            self._metrics["retries"].inc()

    # ------------------------------------------------------------------
    # committed views (queryable state: never sees uncommitted writes)
    # ------------------------------------------------------------------
    def committed_get(self, key: Any, default: Any = None) -> Any:
        """Committed value of ``key`` — in-flight writes are undone."""
        part = self._data[self.partition_of(key)]
        for txn in self._active.values():
            if key in txn.undo:
                old = txn.undo[key]
                return default if old is _MISSING else old
        return part.get(key, default)

    def committed_snapshot(self) -> list:
        """Per-partition committed dicts (active txns' writes undone)."""
        parts = [dict(p) for p in self._data]
        for txn in self._active.values():
            for key, old in txn.undo.items():
                part = parts[self.partition_of(key)]
                if old is _MISSING:
                    part.pop(key, None)
                else:
                    part[key] = old
        return parts

    def committed_items(self) -> dict:
        """All partitions' committed entries merged into one dict."""
        merged: dict = {}
        for part in self.committed_snapshot():
            merged.update(part)
        return merged

    @property
    def history(self) -> list:
        return self._history

    @property
    def active_count(self) -> int:
        return len(self._active)

    def digest(self) -> str:
        """Deterministic digest of committed history + committed state —
        the byte-identity witness for same-seed chaos reruns."""
        h = hashlib.sha256()
        for entry in self._history:
            h.update(repr((entry.seq, entry.txn_id, entry.op_id, entry.origin,
                           round(entry.committed_at, 9), entry.reads, entry.writes)).encode())
        for part in self.committed_snapshot():
            h.update(repr(sorted(part.items(), key=lambda kv: repr(kv[0]))).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # owner holds: a transaction in flight, and the checkpoint fence
    # (txn_gate protocol driven by Task)
    # ------------------------------------------------------------------
    def hold(self, origin: str) -> None:
        """Hold ``origin`` while its transaction is in flight (idempotent)."""
        if origin not in self._holding:
            self._holding.add(origin)
            self._owners[origin].suspend()

    def release(self, origin: str) -> None:
        """Release the hold :meth:`hold` took; a no-op once a kill dropped it."""
        if origin in self._holding:
            self._holding.remove(origin)
            self._owners[origin].resume_processing()

    def request_fence(self, task: Any, barrier: Any) -> None:
        """An owner reached ``barrier`` with no in-flight txn of its own
        (the drain hold guarantees that). Park it — a hold on its mailbox;
        once every live owner is parked, capture the whole store at this
        instant and resume them all."""
        cid = barrier.checkpoint_id
        if task.name not in self._parked:
            task.suspend()
        self._parked[task.name] = cid
        fence_round = self._fence_rounds.setdefault(cid, {})
        fence_round[task.name] = (task, barrier)
        self._maybe_complete_round(cid)

    def cancel_fence(self, task: Any, checkpoint_id: int) -> None:
        """The checkpoint was aborted: withdraw the owner's park on it, if any."""
        fence_round = self._fence_rounds.get(checkpoint_id)
        if fence_round is not None:
            fence_round.pop(task.name, None)
            if not fence_round:
                self._fence_rounds.pop(checkpoint_id, None)
        staged = self._staged_by_origin.get(task.name)
        if staged is not None and staged.checkpoint_id == checkpoint_id:
            self._staged_by_origin.pop(task.name, None)
        if self._parked.get(task.name) == checkpoint_id:
            del self._parked[task.name]
            task.resume_processing()

    def _resume(self, task: Any, barrier: Any) -> None:
        """A completed round resumes the owner: it injects the barrier (its
        snapshot takes the staged capture), unless its park is gone or it is down."""
        if task.dead or task.finished or self._parked.get(task.name) != barrier.checkpoint_id:
            return
        del self._parked[task.name]
        task.inject_barrier(barrier)
        task.resume_processing()

    def _live_owner_names(self) -> set:
        return {
            name
            for name, task in self._owners.items()
            if not task.dead and not task.finished
        }

    def _maybe_complete_round(self, cid: int) -> None:
        fence_round = self._fence_rounds.get(cid)
        if fence_round is None:
            return
        needed = self._live_owner_names()
        if not needed:
            self._fence_rounds.pop(cid, None)
            return
        if not needed <= set(fence_round):
            return
        capture = self._make_capture(cid)
        for origin in fence_round:
            self._staged_by_origin[origin] = capture
        self._fence_rounds.pop(cid, None)
        for origin in sorted(fence_round):
            task, barrier = fence_round[origin]
            if self._kernel is not None:
                self._kernel.call_soon(self._resume, task, barrier)
            else:
                self._resume(task, barrier)

    def _make_capture(self, cid: int | None) -> StoreCapture:
        return StoreCapture(
            checkpoint_id=cid,
            data=self.committed_snapshot(),
            versions=dict(self._versions),
            log_len=len(self._history),
        )

    def take_operator_snapshot(self, origin: str) -> StoreCapture:
        """Operator ``snapshot_state`` hook: the staged fence capture if one
        is pending for this origin, else a fresh solo (committed) capture —
        the solo path serves state handoff outside the barrier protocol."""
        staged = self._staged_by_origin.pop(origin, None)
        if staged is not None:
            return staged
        return self._make_capture(None)

    def restore_capture(self, capture: StoreCapture) -> None:
        """Full-install restore: abort in-flight txns, truncate history to
        the capture's prefix, replace every partition. Idempotent within a
        restore round (owners share one capture by reference; the engine's
        restore loop is synchronous, so repeated installs see no interleaved
        mutation)."""
        for txn in list(self._active.values()):
            self.abort(txn)
        self._locks.clear()
        self._waiters.clear()
        del self._history[capture.log_len:]
        self._versions = dict(capture.versions)
        self._data = [dict(part) for part in capture.data]
        self._fence_rounds.clear()
        self._staged_by_origin.clear()

    def reset(self) -> None:
        """Wipe the store to its initial empty state (restart from scratch:
        sources rewind to offset zero, so committed effects must too)."""
        for txn in list(self._active.values()):
            self.abort(txn)
        self._locks.clear()
        self._waiters.clear()
        self._partition_memo.clear()
        self._history.clear()
        self._versions = {}
        self._data = [dict() for _ in range(self.partitions)]
        self._fence_rounds.clear()
        self._staged_by_origin.clear()

    # ------------------------------------------------------------------
    # failure hooks (driven by Task.kill / Task finish)
    # ------------------------------------------------------------------
    def on_task_killed(self, task: Any) -> None:
        """An owner died: drop exactly the holds this store took on it, its
        fence park included (a chaos stall keeps its own), abort its
        in-flight txns (releasing locks so other origins' waiters proceed),
        and re-evaluate pending rounds — the engine clears the pending
        checkpoint on a kill *without* cancelling alignment, so parked
        survivors must be unwedged from here (their snapshots for the doomed
        checkpoint are ignored upstream)."""
        name = task.name
        self.release(name)
        if name in self._parked:
            self.cancel_fence(task, self._parked[name])
        for txn in [t for t in self._active.values() if t.origin == name]:
            self.abort(txn)
        for cid in list(self._fence_rounds):
            self._maybe_complete_round(cid)

    def on_owner_finished(self, task: Any) -> None:
        """An owner drained to EOS: rounds no longer wait for it."""
        for cid in list(self._fence_rounds):
            self._maybe_complete_round(cid)
