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
``commit_base_cost + commit_cost_per_partition * (partitions_touched - 1)``,
modelling the 2PC round-trips a multi-partition commit would need. The
window between execute and commit is where real interleavings (and hence
serializability hazards) appear in the simulation.

Checkpoint interaction — a transaction never straddles a snapshot:

* *drain*: an owner task holds ``_txn_hold`` while a transaction is in
  flight, so the barrier cannot be popped from its mailbox mid-txn;
* *fence*: each owner parks on the barrier (``request_fence``); when every
  live owner has parked, one **whole-store capture** is taken at a single
  kernel instant and shared by reference into every owner's snapshot, then
  owners resume (snapshot + barrier forward) in deterministic order. Any
  one surviving owner's snapshot restores the whole store, closing the
  finished-owner / killed-owner partition holes.

The committed history (``CommittedTxn`` log with per-key versions) is what
the chaos serializability oracle replays and checks.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.keys import stable_hash
from repro.errors import TransactionAborted, TransactionError
from repro.txn.manager import LockMode, TxnStatus

_MISSING = object()


@dataclass
class TxnConfig:
    """Knobs for the transactional state store.

    ``locking`` picks the discipline (``"ordered"`` | ``"nowait"``); the
    commit costs price the deferred multi-partition commit on the virtual
    clock; ``nowait_backoff`` spaces NO-WAIT retries (linear backoff,
    ``backoff * attempt``)."""

    locking: str = "ordered"
    execute_cost: float = 5e-5
    commit_base_cost: float = 2e-4
    commit_cost_per_partition: float = 1e-4
    nowait_backoff: float = 2e-4
    max_retries: int = 25
    read_locks_shared: bool = True

    def __post_init__(self) -> None:
        if self.locking not in ("ordered", "nowait"):
            raise TransactionError(f"unknown locking discipline {self.locking!r}")


@dataclass
class StoreTxn:
    """One in-flight transaction against a :class:`TxnStateStore`."""

    txn_id: int
    origin: str
    op_id: Any
    started_at: float
    declared_reads: frozenset | None = None
    declared_writes: frozenset | None = None
    status: TxnStatus = TxnStatus.ACTIVE
    locks: dict = field(default_factory=dict)  # key -> LockMode
    undo: dict = field(default_factory=dict)  # key -> pre-image (_MISSING = absent)
    reads: list = field(default_factory=list)  # (key, version, value) external reads
    read_keys: set = field(default_factory=set)
    written: set = field(default_factory=set)
    touched_partitions: set = field(default_factory=set)
    waiting_on: Any = _MISSING  # key whose wait queue holds this txn
    wait_started: float = 0.0


@dataclass
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


class _Lock:
    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}  # txn_id -> mode
        self.waiters: deque = deque()  # (txn, mode, continuation)


class TxnStateStore:
    """Shared transactional state partitioned across the owner subtasks."""

    def __init__(self, name: str, partitions: int = 1, config: TxnConfig | None = None) -> None:
        if partitions < 1:
            raise TransactionError(f"partitions must be >= 1, got {partitions}")
        self.name = name
        self.partitions = partitions
        self.config = config or TxnConfig()
        self._data: list[dict] = [dict() for _ in range(partitions)]
        #: key -> partition memo: a transaction asks six times per key and
        #: the answer hashes with blake2b. One int per distinct key asked
        #: about, beside the value, version and lock the store already keeps
        #: for it; ``partitions`` never changes after construction
        self._partition_memo: dict[Any, int] = {}
        self._versions: dict[Any, int] = {}
        self._history: list[CommittedTxn] = []
        self._locks: dict[Any, _Lock] = {}
        self._active: dict[int, StoreTxn] = {}
        self._ids = itertools.count(1)
        self._kernel = None
        self._owners: dict[str, Any] = {}  # task name -> Task
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
    # transaction lifecycle
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
        elif self.config.locking == "ordered":
            raise TransactionError("ordered locking requires a declared key set")
        txn = StoreTxn(
            txn_id=next(self._ids),
            origin=origin,
            op_id=op_id,
            started_at=self._now(),
            declared_reads=reads,
            declared_writes=writes,
        )
        self._active[txn.txn_id] = txn
        return txn

    def lock_plan(self, txn: StoreTxn) -> list:
        """Global-order lock plan: keys sorted by ``repr``; writes (and
        read∩write keys) take X directly — no S→X upgrades, ever."""
        plan = []
        for key in sorted(txn.declared_reads | txn.declared_writes, key=repr):
            if key in txn.declared_writes or not self.config.read_locks_shared:
                plan.append((key, LockMode.EXCLUSIVE))
            else:
                plan.append((key, LockMode.SHARED))
        return plan

    def _check_active(self, txn: StoreTxn) -> None:
        if txn.status is not TxnStatus.ACTIVE:
            raise TransactionError(f"txn {txn.txn_id} is {txn.status.value}")

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def _holds_sufficient(self, txn: StoreTxn, key: Any, mode: LockMode) -> bool:
        mine = txn.locks.get(key)
        return mine is LockMode.EXCLUSIVE or mine is mode

    def _compatible(self, lock: _Lock, txn: StoreTxn, mode: LockMode) -> bool:
        others = [m for tid, m in lock.holders.items() if tid != txn.txn_id]
        if mode is LockMode.SHARED:
            return not any(m is LockMode.EXCLUSIVE for m in others)
        return not others

    def acquire(
        self, txn: StoreTxn, key: Any, mode: LockMode, cont: Callable[[], None] | None
    ) -> bool:
        """Ordered-locking acquire. Returns True if granted now; otherwise
        enqueues ``(txn, cont)`` strict-FIFO on the key's wait queue and
        returns False — ``cont`` fires (via the kernel) once granted."""
        self._check_active(txn)
        if self._holds_sufficient(txn, key, mode):
            return True
        lock = self._locks.setdefault(key, _Lock())
        if not lock.waiters and self._compatible(lock, txn, mode):
            lock.holders[txn.txn_id] = mode
            txn.locks[key] = mode
            return True
        if cont is None:
            raise TransactionError(
                f"txn {txn.txn_id}: lock wait on {key!r} without a kernel continuation"
            )
        lock.waiters.append((txn, mode, cont))
        txn.waiting_on = key
        txn.wait_started = self._now()
        return False

    def acquire_nowait(self, txn: StoreTxn, key: Any, mode: LockMode) -> None:
        """NO-WAIT acquire: a conflict aborts the requester immediately."""
        self._check_active(txn)
        if self._holds_sufficient(txn, key, mode):
            return
        lock = self._locks.setdefault(key, _Lock())
        if not self._compatible(lock, txn, mode):
            self.abort(txn)
            raise TransactionAborted(
                f"txn {txn.txn_id}: {mode.value}-lock conflict on {key!r}"
            )
        lock.holders[txn.txn_id] = mode
        txn.locks[key] = mode

    def _release_locks(self, txn: StoreTxn) -> None:
        keys = sorted(txn.locks, key=repr)
        txn.locks = {}
        for key in keys:
            lock = self._locks.get(key)
            if lock is None:
                continue
            lock.holders.pop(txn.txn_id, None)
            self._wake(key, lock)

    def _wake(self, key: Any, lock: _Lock) -> None:
        """Grant to the wait-queue head (and batch consecutive S waiters)."""
        granted = []
        while lock.waiters:
            waiter, mode, cont = lock.waiters[0]
            if waiter.status is not TxnStatus.ACTIVE:
                lock.waiters.popleft()
                continue
            if not self._compatible(lock, waiter, mode):
                break
            lock.waiters.popleft()
            lock.holders[waiter.txn_id] = mode
            waiter.locks[key] = mode
            waiter.waiting_on = _MISSING
            if self._metrics is not None:
                self._metrics["lock_wait"].record(self._now() - waiter.wait_started)
            granted.append(cont)
            if mode is LockMode.EXCLUSIVE:
                break
        if not lock.holders and not lock.waiters:
            self._locks.pop(key, None)
        for cont in granted:
            if self._kernel is not None:
                self._kernel.call_soon(cont)
            else:
                cont()

    def _dequeue_waiter(self, txn: StoreTxn) -> None:
        if txn.waiting_on is _MISSING:
            return
        lock = self._locks.get(txn.waiting_on)
        if lock is not None:
            lock.waiters = deque(
                (t, m, c) for (t, m, c) in lock.waiters if t.txn_id != txn.txn_id
            )
            if not lock.holders and not lock.waiters:
                self._locks.pop(txn.waiting_on, None)
        txn.waiting_on = _MISSING

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def txn_read(self, txn: StoreTxn, key: Any, default: Any = None) -> Any:
        """Read under the txn. Ordered mode requires the key to be declared
        (the lock was acquired up front); NO-WAIT acquires dynamically."""
        self._check_active(txn)
        if self.config.locking == "ordered":
            if not self._holds_sufficient(txn, key, LockMode.SHARED):
                raise TransactionError(
                    f"txn {txn.txn_id}: read of undeclared key {key!r} under ordered locking"
                )
        else:
            mode = LockMode.SHARED if self.config.read_locks_shared else LockMode.EXCLUSIVE
            self.acquire_nowait(txn, key, mode)
        part = self.partition_of(key)
        txn.touched_partitions.add(part)
        value = self._data[part].get(key, default)
        if key not in txn.written and key not in txn.read_keys:
            # External read: any uncommitted writer holds X, so this value
            # is committed — record (key, version, value) for the oracle.
            txn.read_keys.add(key)
            txn.reads.append((key, self._versions.get(key, 0), value))
        return value

    def txn_write(self, txn: StoreTxn, key: Any, value: Any) -> None:
        """Write under the txn (in place, with undo logging)."""
        self._check_active(txn)
        if self.config.locking == "ordered":
            if txn.locks.get(key) is not LockMode.EXCLUSIVE:
                raise TransactionError(
                    f"txn {txn.txn_id}: write of undeclared key {key!r} under ordered locking"
                )
        else:
            self.acquire_nowait(txn, key, LockMode.EXCLUSIVE)
        part = self.partition_of(key)
        txn.touched_partitions.add(part)
        data = self._data[part]
        if key not in txn.undo:
            txn.undo[key] = data.get(key, _MISSING)
        data[key] = value
        txn.written.add(key)

    # ------------------------------------------------------------------
    # commit / abort
    # ------------------------------------------------------------------
    def commit_cost(self, txn: StoreTxn) -> float:
        """Virtual seconds a commit costs: base + per extra partition."""
        parts = max(1, len(txn.touched_partitions))
        return self.config.commit_base_cost + self.config.commit_cost_per_partition * (parts - 1)

    def finish_attempt(self, txn: StoreTxn, commit_cb: Callable[[], None] | None = None) -> None:
        """Schedule the deferred commit ``commit_cost`` virtual seconds out.
        The callback only fires if the txn is still ACTIVE when the commit
        event runs (a kill/restore in the window aborts it instead)."""
        self._check_active(txn)
        if self._kernel is None:
            self._commit(txn, commit_cb)
            return
        self._kernel.call_after(self.commit_cost(txn), lambda: self._commit(txn, commit_cb))

    def _commit(self, txn: StoreTxn, commit_cb: Callable[[], None] | None) -> None:
        if txn.status is not TxnStatus.ACTIVE:
            return  # aborted by a kill or restore while the commit was in flight
        writes = []
        for key in sorted(txn.written, key=repr):
            version = self._versions.get(key, 0) + 1
            self._versions[key] = version
            writes.append((key, version, self._data[self.partition_of(key)].get(key)))
        self._history.append(
            CommittedTxn(
                seq=len(self._history),
                txn_id=txn.txn_id,
                op_id=txn.op_id,
                origin=txn.origin,
                committed_at=self._now(),
                reads=tuple(txn.reads),
                writes=tuple(writes),
            )
        )
        txn.status = TxnStatus.COMMITTED
        self._active.pop(txn.txn_id, None)
        self.committed += 1
        if self._metrics is not None:
            self._metrics["commits"].inc()
            self._metrics["commit_latency"].record(self._now() - txn.started_at)
        self._release_locks(txn)
        if commit_cb is not None:
            commit_cb()

    def abort(self, txn: StoreTxn) -> None:
        """Roll back via the undo log, release locks, wake waiters."""
        if txn.status is TxnStatus.ABORTED:
            return
        if txn.status is TxnStatus.COMMITTED:
            raise TransactionError(f"cannot abort committed txn {txn.txn_id}")
        for key, old in reversed(list(txn.undo.items())):
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
    # checkpoint fence (txn_gate protocol driven by Task)
    # ------------------------------------------------------------------
    def request_fence(self, task: Any, barrier: Any) -> None:
        """An owner reached ``barrier`` with no in-flight txn of its own
        (the ``_txn_hold`` drain guarantees that). Park it; once every live
        owner is parked, capture the whole store at this instant and resume
        them all."""
        cid = barrier.checkpoint_id
        fence_round = self._fence_rounds.setdefault(cid, {})
        fence_round[task.name] = (task, barrier)
        self._maybe_complete_round(cid)

    def cancel_fence(self, task: Any, checkpoint_id: int) -> None:
        """The checkpoint was aborted while this owner was parked."""
        fence_round = self._fence_rounds.get(checkpoint_id)
        if fence_round is not None:
            fence_round.pop(task.name, None)
            if not fence_round:
                self._fence_rounds.pop(checkpoint_id, None)
        staged = self._staged_by_origin.get(task.name)
        if staged is not None and staged.checkpoint_id == checkpoint_id:
            self._staged_by_origin.pop(task.name, None)

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
                self._kernel.call_soon(
                    lambda t=task, b=barrier: t.txn_resume_snapshot(b)
                )
            else:
                task.txn_resume_snapshot(barrier)

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
        """An owner died: abort its in-flight txns (releasing locks so other
        origins' waiters proceed), drop its fence participation, and
        re-evaluate pending rounds — the engine clears the pending checkpoint
        on a kill *without* cancelling alignment, so parked survivors must be
        unwedged from here (their snapshots for the doomed checkpoint are
        ignored upstream)."""
        name = task.name
        for txn in [t for t in self._active.values() if t.origin == name]:
            self.abort(txn)
        self._staged_by_origin.pop(name, None)
        for cid in list(self._fence_rounds):
            fence_round = self._fence_rounds[cid]
            if name in fence_round:
                fence_round.pop(name, None)
                if not fence_round:
                    self._fence_rounds.pop(cid, None)
        for cid in list(self._fence_rounds):
            self._maybe_complete_round(cid)

    def on_owner_finished(self, task: Any) -> None:
        """An owner drained to EOS: rounds no longer wait for it."""
        for cid in list(self._fence_rounds):
            self._maybe_complete_round(cid)
