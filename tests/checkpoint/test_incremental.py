"""Incremental snapshot chains."""

import pytest

from repro.checkpoint.incremental import IncrementalSnapshotter, restore_chain
from repro.core.serde import PickleSerde
from repro.errors import CheckpointError
from repro.state import InMemoryStateBackend, ValueStateDescriptor
from repro.state.api import TOMBSTONE

DESC = ValueStateDescriptor("acc")


def make():
    snapshotter = IncrementalSnapshotter(InMemoryStateBackend())
    snapshotter.register(DESC)
    return snapshotter


class TestDeltaTracking:
    def test_first_snapshot_is_full(self):
        snapshotter = make()
        snapshotter.put(DESC, "a", 1)
        snapshot = snapshotter.delta_snapshot()
        assert snapshot.is_full

    def test_delta_contains_only_changes(self):
        snapshotter = make()
        for key in range(100):
            snapshotter.put(DESC, key, key)
        base = snapshotter.full_snapshot()
        snapshotter.put(DESC, 5, 500)
        snapshotter.put(DESC, 200, 200)
        delta = snapshotter.delta_snapshot()
        assert not delta.is_full
        assert set(delta.entries["acc"].keys()) == {5, 200}
        assert delta.size_bytes() < base.size_bytes() / 5

    def test_deletes_tracked_as_tombstones(self):
        snapshotter = make()
        snapshotter.put(DESC, "a", 1)
        snapshotter.put(DESC, "b", 2)
        base = snapshotter.full_snapshot()
        snapshotter.delete(DESC, "a")
        delta = snapshotter.delta_snapshot()
        target = InMemoryStateBackend()
        target.register(DESC)
        restore_chain(target, [base, delta])
        assert target.get(DESC, "a") is None
        assert target.get(DESC, "b") == 2

    def test_rewrite_after_delete_is_a_put(self):
        snapshotter = make()
        snapshotter.put(DESC, "a", 1)
        snapshotter.full_snapshot()
        snapshotter.delete(DESC, "a")
        snapshotter.put(DESC, "a", 9)
        delta = snapshotter.delta_snapshot()
        assert list(delta.entries["acc"].keys()) == ["a"]


class TestExpiryBetweenCaptures:
    """An entry the backend expires (TTL) between two captures is deleted
    state: the delta must carry its tombstone, or a restore resurrects the
    value the base holds."""

    def setup_method(self):
        self.clock = {"now": 0.0}
        self.desc = ValueStateDescriptor("ttl", ttl=1.0)
        self.snapshotter = IncrementalSnapshotter(
            InMemoryStateBackend(clock=lambda: self.clock["now"])
        )
        self.snapshotter.register(self.desc)

    def restored(self, chain):
        target = InMemoryStateBackend()
        target.register(self.desc)
        restore_chain(target, chain)
        return target.snapshot()

    def test_an_expiry_on_read_reaches_the_delta(self):
        snapshotter, desc = self.snapshotter, self.desc
        snapshotter.put(desc, "k", 1)
        snapshotter.put(desc, "j", 2)
        base = snapshotter.full_snapshot()
        self.clock["now"] = 0.5
        snapshotter.put(desc, "j", 3)
        self.clock["now"] = 2.0
        assert snapshotter.get(desc, "k") is None
        assert snapshotter.get(desc, "j") is None
        delta = snapshotter.delta_snapshot()
        assert delta.entries == {"ttl": {"k": TOMBSTONE, "j": TOMBSTONE}}
        assert self.restored([base, delta]) == snapshotter.snapshot() == {"ttl": {}}

    def test_an_entry_expiring_untouched_reaches_the_delta(self):
        snapshotter, desc = self.snapshotter, self.desc
        snapshotter.put(desc, "k", 1)
        base = snapshotter.full_snapshot()
        self.clock["now"] = 0.5
        snapshotter.put(desc, "j", 2)
        self.clock["now"] = 1.2  # k expired, j still live
        delta = snapshotter.delta_snapshot()
        assert self.restored([base, delta]) == snapshotter.snapshot()
        assert snapshotter.snapshot()["ttl"].keys() == {"j"}


class TestRestoreChain:
    def build_chain(self):
        snapshotter = make()
        snapshotter.put(DESC, "a", 1)
        snapshotter.put(DESC, "b", 2)
        base = snapshotter.full_snapshot()
        snapshotter.put(DESC, "a", 10)
        snapshotter.delete(DESC, "b")
        snapshotter.put(DESC, "c", 3)
        delta1 = snapshotter.delta_snapshot()
        snapshotter.put(DESC, "d", 4)
        delta2 = snapshotter.delta_snapshot()
        return [base, delta1, delta2]

    def test_roundtrip(self):
        chain = self.build_chain()
        target = InMemoryStateBackend()
        target.register(DESC)
        restore_chain(target, chain)
        assert target.get(DESC, "a") == 10
        assert target.get(DESC, "b") is None
        assert target.get(DESC, "c") == 3
        assert target.get(DESC, "d") == 4

    def test_empty_chain_rejected(self):
        with pytest.raises(CheckpointError):
            restore_chain(InMemoryStateBackend(), [])

    def test_chain_must_start_full(self):
        chain = self.build_chain()
        with pytest.raises(CheckpointError, match="full"):
            restore_chain(InMemoryStateBackend(), chain[1:])

    def test_broken_chain_order_rejected(self):
        chain = self.build_chain()
        with pytest.raises(CheckpointError, match="broken chain"):
            restore_chain(InMemoryStateBackend(), [chain[0], chain[2]])


class _CountingSerde(PickleSerde):
    def __init__(self):
        self.serialized = 0

    def serialize(self, value):
        self.serialized += 1
        return super().serialize(value)


class TestCaptureSerialisesOnce:
    """The engine sizes the backend right after every capture
    (``_record_capture_metrics``): the capture hands the entries it
    serialized to the size cache, so the sizing query serializes nothing
    again."""

    def test_capture_then_sizing_serializes_each_captured_entry_once(self):
        serde = _CountingSerde()
        desc = ValueStateDescriptor("acc", serde=serde)
        snapshotter = IncrementalSnapshotter(InMemoryStateBackend())
        snapshotter.register(desc)
        for capture in range(6):
            for key in range(capture, capture + 40):
                snapshotter.put(desc, key, (key, capture, "payload"))
            snapshotter.delete(desc, capture)
            before = serde.serialized
            # captures 0 and 3 rebase, as a full chain segment would
            delta = snapshotter.full_snapshot() if capture % 3 == 0 else snapshotter.delta_snapshot()
            size = snapshotter.snapshot_bytes()
            live = [data for data in delta.entries["acc"].values() if data != TOMBSTONE]
            assert len(live) >= 39
            assert serde.serialized - before == len(live)
            assert size == sum(len(data) for data in snapshotter.snapshot()["acc"].values())

    def test_a_write_after_the_capture_is_sized_again(self):
        snapshotter = make()
        snapshotter.put(DESC, "a", "short")
        snapshotter.delta_snapshot()
        before = snapshotter.snapshot_bytes()
        snapshotter.put(DESC, "a", "a much longer value than before")
        assert snapshotter.snapshot_bytes() > before
        snapshotter.delta_snapshot()
        snapshotter.delete(DESC, "a")
        assert snapshotter.snapshot_bytes() == 0
