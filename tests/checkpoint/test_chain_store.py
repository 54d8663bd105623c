"""The base + delta chain store: append, rebase, compaction, lookup."""

import pytest

from repro.checkpoint.coordinator import CheckpointCoordinator
from repro.checkpoint.incremental import DeltaSnapshot, TaskChainStore
from repro.errors import CheckpointError
from repro.runtime.config import CheckpointConfig
from repro.runtime.task import TaskSnapshot


def full(snapshot_id):
    return DeltaSnapshot(snapshot_id=snapshot_id, base_id=None)


def delta(snapshot_id, base_id):
    return DeltaSnapshot(snapshot_id=snapshot_id, base_id=base_id)


def snapshot(checkpoint_id, link):
    return TaskSnapshot("t", checkpoint_id, {}, None, [], 0.0, delta=link)


class TestCaptureSide:
    def test_first_capture_wants_full(self):
        store = TaskChainStore()
        assert store.wants_full("t")

    def test_segment_limit_triggers_rebase_request(self):
        store = TaskChainStore(max_chain_length=3)
        store.append("t", full(1))
        assert not store.wants_full("t")
        store.append("t", delta(2, 1))
        assert not store.wants_full("t")
        store.append("t", delta(3, 2))
        # segment length reached max_chain_length -> next capture rebases
        assert store.wants_full("t")

    def test_rebase_counted_only_after_first_full(self):
        store = TaskChainStore(max_chain_length=2)
        store.append("t", full(1))
        assert store.rebases == 0
        store.append("t", delta(2, 1))
        store.append("t", full(3))
        assert store.rebases == 1

    def test_segment_length_tracks_current_segment(self):
        store = TaskChainStore(max_chain_length=10)
        store.append("t", full(1))
        store.append("t", delta(2, 1))
        assert store.segment_length("t") == 2
        store.append("t", full(3))
        assert store.segment_length("t") == 1
        assert store.max_segment_length() == 1


class TestRestoreSide:
    def build(self):
        store = TaskChainStore(max_chain_length=10)
        links = [full(1), delta(2, 1), delta(3, 2)]
        for link in links:
            store.append("t", link)
        return store, links

    def test_chain_walks_back_to_base(self):
        store, links = self.build()
        assert store.chain_to("t", links[2]) == links
        assert store.chain_to("t", links[0]) == links[:1]

    def test_chain_to_resolves_by_identity(self):
        # Snapshot ids restart at 1 after a task reincarnates; identity
        # lookup keeps standby restores unambiguous.
        store, links = self.build()
        twin = delta(3, 2)
        assert store.chain_to("t", links[2]) == links
        with pytest.raises(CheckpointError, match="no longer in the chain"):
            store.chain_to("t", twin)

    def test_chain_bytes_sums_the_chain(self):
        store, links = self.build()
        links[0].entries = {"s": {"a": b"xxxx"}}
        links[2].entries = {"s": {"b": b"yy"}}
        expected = sum(link.size_bytes() for link in links)
        assert store.chain_bytes("t", links[2]) == expected


def kept(*links):
    return lambda _task_name: list(links)


class TestCompaction:
    def test_prune_drops_links_behind_newest_covering_full(self):
        store = TaskChainStore(max_chain_length=2)
        links = [full(1), delta(2, 1), full(3)]
        for link in links:
            store.append("t", link)
        # only the last round is retained; links 1 and 2 are unreachable
        store.prune(kept(links[2]))
        assert store.chain_length("t") == 1
        assert store.links_pruned == 2
        with pytest.raises(CheckpointError):
            store.chain_to("t", links[0])
        assert store.chain_to("t", links[2]) == [links[2]]

    def test_in_flight_checkpoints_block_pruning(self):
        # Round 2 is still persisting (never completed) when a rebase lands:
        # its links must survive compaction.
        store = TaskChainStore(max_chain_length=2)
        links = [full(1), delta(2, 1), full(3)]
        for link in links:
            store.append("t", link)
        store.prune(kept(links[2], links[1]), "t")
        assert store.chain_to("t", links[1])[0].is_full
        assert store.chain_length("t") == 3

    def test_aborted_checkpoint_no_longer_blocks_pruning(self):
        store = TaskChainStore(max_chain_length=2)
        links = [full(1), delta(2, 1), full(3)]
        for link in links:
            store.append("t", link)
        store.prune(kept(links[2]))  # round 2 was aborted: nothing keeps it
        assert store.chain_length("t") == 1
        with pytest.raises(CheckpointError):
            store.chain_to("t", links[1])

    def test_continuity_only_link_is_kept_but_not_restorable(self):
        # A barrier that arrives after the coordinator gave up on its round
        # still appends its link (the snapshotter's next delta bases on it),
        # but no round in the table holds it.
        coordinator = CheckpointCoordinator(CheckpointConfig(incremental=True), persist=None)
        coordinator.trigger(0.0, expected=2)
        coordinator.ack(snapshot(1, full(1)))
        coordinator.abort(1)
        orphan = delta(2, 1)
        coordinator.ack(snapshot(1, orphan))
        coordinator.trigger(1.0, expected=2)
        follow = delta(3, 2)
        coordinator.ack(snapshot(2, follow))
        assert coordinator.store.chain_to("t", follow)[-2] is orphan
        assert 1 not in coordinator.checkpoints
        assert list(coordinator.checkpoints[2].snapshots.values())[0].delta is follow
