"""The store's lock table against a reference lock table (hypothesis).

Random interleavings of begin / acquire (waits included) / read / write /
commit / abort / kill over 2–5 transactions and at most 4 keys drive a
kernel-less :class:`TxnStateStore` (a granted waiter's continuation fires
inline) and a small reference kept here: holders and strict-FIFO wait
queues per key, the list-based compatibility rule, release in ``repr``
order, undo by first pre-image. After every step the grants, the wake order,
the lock table and the data must agree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn.store import LockMode, TxnStateStore

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
KEYS = ("a", "b", "c", "d")
ORIGINS = ("p0", "p1")


class FakeTask:
    def __init__(self, name):
        self.name = name
        self.dead = True
        self.finished = False


def compatible(holders, name, mode):
    """The list-based rule: S fits beside other S holders, X beside none."""
    others = [held for holder, held in holders.items() if holder != name]
    if mode is S:
        return not any(held is X for held in others)
    return not others


class Reference:
    """Reference lock table, keyed by transaction name."""

    def __init__(self):
        self.holders = {}  # key -> {name: mode}
        self.waiters = {}  # key -> [(name, mode)]
        self.status = {}  # name -> "active" | "committed" | "aborted"
        self.held = {}  # name -> {key: mode}
        self.waiting_on = {}  # name -> key | None
        self.undo = {}  # name -> {key: pre-image}
        self.data = {}
        self.fired = []
        self.history = []  # (name, ((key, value), ...) in repr order)

    def begin(self, name):
        self.status[name] = "active"
        self.held[name] = {}
        self.waiting_on[name] = None
        self.undo[name] = {}

    def acquire(self, name, key, mode):
        mine = self.held[name].get(key)
        if mine is X or mine is mode:
            return True
        holders = self.holders.setdefault(key, {})
        if not self.waiters.get(key) and compatible(holders, name, mode):
            holders[name] = mode
            self.held[name][key] = mode
            return True
        self.waiters.setdefault(key, []).append((name, mode))
        self.waiting_on[name] = key
        return False

    def write(self, name, key, value):
        self.undo[name].setdefault(key, self.data.get(key, _ABSENT))
        self.data[key] = value

    def commit(self, name):
        undo = self.undo[name]
        self.history.append((name, tuple((k, self.data[k]) for k in sorted(undo, key=repr))))
        self.status[name] = "committed"
        self.release(name)

    def abort(self, name):
        for key, old in reversed(list(self.undo[name].items())):
            if old is _ABSENT:
                self.data.pop(key, None)
            else:
                self.data[key] = old
        self.undo[name] = {}
        self.status[name] = "aborted"
        key = self.waiting_on[name]
        if key is not None:
            self.waiters[key] = [w for w in self.waiters[key] if w[0] != name]
            self.waiting_on[name] = None
        self.release(name)

    def release(self, name):
        for key in sorted(self.held[name], key=repr):
            self.holders[key].pop(name)
            self.wake(key)

    def wake(self, key):
        queue = self.waiters.get(key, [])
        holders = self.holders[key]
        while queue:
            waiter, mode = queue[0]
            if self.status[waiter] != "active":
                queue.pop(0)
                continue
            if not compatible(holders, waiter, mode):
                break
            queue.pop(0)
            holders[waiter] = mode
            self.held[waiter][key] = mode
            self.waiting_on[waiter] = None
            self.fired.append(waiter)
            if mode is X:
                break

    def table(self, ids):
        holders = {k: {ids[n]: m for n, m in h.items()} for k, h in self.holders.items() if h}
        waiters = {k: [(ids[n], m) for n, m in q] for k, q in self.waiters.items() if q}
        return holders, waiters


_ABSENT = object()


@st.composite
def plans(draw):
    """2-5 transactions: an origin and a declared (key, mode) plan each,
    over a universe of 1-4 keys (fewer keys, more conflicts)."""
    count = draw(st.integers(2, 5))
    universe = KEYS[: draw(st.integers(1, len(KEYS)))]
    result = []
    for _ in range(count):
        keys = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4, unique=True))
        modes = draw(st.lists(st.sampled_from((S, X)), min_size=len(keys), max_size=len(keys)))
        plan = sorted(zip(keys, modes), key=lambda km: repr(km[0]))
        result.append((draw(st.sampled_from(ORIGINS)), plan))
    return result


def store_table(store):
    holders = {k: dict(h) for k, h in store._locks.items()}
    waiters = {k: [(t.txn_id, m) for t, m, _c in q] for k, q in store._waiters.items()}
    return holders, waiters


@settings(max_examples=300, deadline=None)
@given(txns=plans(), data=st.data())
def test_store_lock_table_matches_reference(txns, data):
    store = TxnStateStore("ref", partitions=2)
    ref = Reference()
    fired = []
    handles = {}  # name -> StoreTxn
    ids = {}
    names = [f"t{i}" for i in range(len(txns))]
    plan_of = dict(zip(names, (plan for _origin, plan in txns)))
    origin_of = dict(zip(names, (origin for origin, _plan in txns)))
    value = 0

    def ready(name):
        return ref.status.get(name) == "active" and ref.waiting_on[name] is None

    for _step in range(data.draw(st.integers(5, 40), label="steps")):
        # weighted towards begin and acquire, so that wait queues build up
        moves = []
        if len(handles) < len(names):
            moves += ["begin"] * 2
        if any(ready(n) and len(ref.held[n]) < len(plan_of[n]) for n in handles):
            moves += ["acquire"] * 3
        if any(ready(n) and ref.held[n] for n in handles):
            moves += ["read", "write"]
        if any(ready(n) for n in handles):
            moves.append("commit")
        if any(ref.status[n] == "active" for n in handles):
            moves += ["abort", "kill"]
        if not moves:
            break
        move = data.draw(st.sampled_from(moves), label="move")
        if move == "begin":
            name = names[len(handles)]
            _origin, plan = txns[len(handles)]
            reads = [k for k, m in plan if m is S]
            writes = [k for k, m in plan if m is X]
            txn = store.begin(origin_of[name], name, declared=(reads, writes))
            handles[name] = txn
            ids[name] = txn.txn_id
            ref.begin(name)
        elif move == "acquire":
            name = data.draw(
                st.sampled_from(
                    [n for n in handles if ready(n) and len(ref.held[n]) < len(plan_of[n])]
                )
            )
            key, mode = plan_of[name][len(ref.held[name])]
            granted = store.acquire(
                handles[name], key, mode, lambda name=name: fired.append(name)
            )
            assert granted == ref.acquire(name, key, mode)
        elif move == "read":
            name = data.draw(st.sampled_from([n for n in handles if ready(n) and ref.held[n]]))
            key = data.draw(st.sampled_from(sorted(ref.held[name])))
            assert handles[name].read(key, _ABSENT) is ref.data.get(key, _ABSENT)
        elif move == "write":
            name = data.draw(st.sampled_from([n for n in handles if ready(n) and ref.held[n]]))
            key = data.draw(st.sampled_from(sorted(ref.held[name])))
            value += 1
            if ref.held[name][key] is X:
                handles[name].write(key, value)
                ref.write(name, key, value)
        elif move == "commit":
            name = data.draw(st.sampled_from([n for n in handles if ready(n)]))
            store.finish_attempt(handles[name])
            ref.commit(name)
        elif move == "abort":
            name = data.draw(st.sampled_from([n for n in handles if ref.status[n] == "active"]))
            store.abort(handles[name])
            ref.abort(name)
        else:
            origin = data.draw(st.sampled_from(ORIGINS))
            store.on_task_killed(FakeTask(origin))
            for name in handles:  # begin order = txn id order
                if origin_of[name] == origin and ref.status[name] == "active":
                    ref.abort(name)
        assert fired == ref.fired
        assert store_table(store) == ref.table(ids)
        merged = {}
        for part in store._data:
            merged.update(part)
        assert merged == ref.data

    history = [(e.op_id, tuple((k, v) for k, _version, v in e.writes)) for e in store.history]
    assert history == ref.history
