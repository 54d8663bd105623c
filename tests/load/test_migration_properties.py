"""Property suite for live key-group migration.

Three invariants, each under randomized inputs:

* **Ownership partition** — after any sequence of parallelism transitions
  and hot-group splits, every key routes to exactly one live owner index.
* **Chain-replay equivalence** — for any churn pattern, replaying a task's
  base+delta chain and overlaying the still-dirty entries reconstructs the
  backend's current contents exactly (the invariant that makes delta-chain
  state handoff sound).
* **Timers follow keys** — after a mid-run rescale, every pending event
  timer lives on the task that owns its key.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.incremental import (
    IncrementalSnapshotter,
    TaskChainStore,
    restore_chain,
)
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector, key_group_for
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.load.migration import Rescaler
from repro.load.routing import KeyRouter
from repro.runtime.config import EngineConfig
from repro.state.api import ValueStateDescriptor
from repro.state.memory import InMemoryStateBackend

MAX_P = 128


class TestOwnershipPartition:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.one_of(st.text(max_size=8), st.integers()), min_size=1, max_size=40),
        transitions=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
    )
    def test_every_key_has_exactly_one_owner_after_any_transition(self, keys, transitions):
        router = KeyRouter(2, MAX_P)
        for parallelism in transitions:
            router.set_parallelism(parallelism)
            for key in keys:
                owner = router.owner_index(key)
                assert 0 <= owner < parallelism
                # Deterministic: the same key asks again, same answer.
                assert router.owner_index(key) == owner

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=4, max_size=60),
        parallelism=st.integers(min_value=2, max_value=8),
        fanout=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    def test_split_spreads_one_group_and_leaves_the_rest(self, keys, parallelism, fanout, data):
        router = KeyRouter(parallelism, MAX_P)
        groups = sorted({key_group_for(k, MAX_P) for k in keys})
        hot = data.draw(st.sampled_from(groups))
        before = {k: router.owner_index(k) for k in keys}
        router.split_group(hot, min(fanout, parallelism))
        for key in keys:
            owner = router.owner_index(key)
            assert 0 <= owner < parallelism
            if key_group_for(key, MAX_P) != hot:
                # Only the split group's keys may move.
                assert owner == before[key]
        # Unsplit restores the original range routing exactly.
        router.unsplit_group(hot)
        assert {k: router.owner_index(k) for k in keys} == before

    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
        transitions=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=5),
    )
    def test_epoch_bumps_on_every_routing_change(self, keys, transitions):
        router = KeyRouter(2, MAX_P)
        epoch = router.epoch
        for parallelism in transitions:
            changed = parallelism != router.parallelism
            router.set_parallelism(parallelism)
            if changed:
                assert router.epoch > epoch
            epoch = router.epoch


class TestChainReplayEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "snapshot"]),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=0, max_value=999),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_chain_plus_dirty_overlay_reconstructs_current_state(self, ops):
        """Replaying the persisted chain and overlaying the live dirty set
        must equal the backend's current contents — for any churn pattern.
        This is exactly what delta-chain handoff ships for a moved key."""
        descriptor = ValueStateDescriptor("v", default=None)
        backend = IncrementalSnapshotter(InMemoryStateBackend())
        backend.register(descriptor)
        store = TaskChainStore()
        for op, key, value in ops:
            if op == "put":
                backend.put(descriptor, key, value)
            elif op == "delete":
                backend.delete(descriptor, key)
            else:
                link = (
                    backend.full_snapshot()
                    if store.wants_full("t")
                    else backend.delta_snapshot()
                )
                store.append("t", link)

        replica = IncrementalSnapshotter(InMemoryStateBackend())
        replica.register(descriptor)
        link = store.latest_link("t")
        if link is not None:
            restore_chain(replica, store.chain_to("t", link))
        # Overlay the dirty entries exactly the way _migrate_state ships them.
        dirty, deleted = backend.dirty_entries()
        raw = backend.snapshot()
        overlay: dict[str, dict] = {}
        for name, key in dirty:
            if key in raw.get(name, {}):
                overlay.setdefault(name, {})[key] = raw[name][key]
        replica.merge(overlay)
        for name, key in deleted:
            replica.delete(descriptor, key)

        assert replica.snapshot() == backend.snapshot()


def _build_timer_pipeline(parallelism=2):
    env = StreamExecutionEnvironment(EngineConfig(default_channel_capacity=64))
    sink = CollectSink("out")

    def fn(record, ctx):
        # One far-future timer per record: all still pending at rescale time.
        ctx.register_event_timer(1e6 + record.value["seq"], payload=record.value["seq"])
        ctx.emit(record)

    (
        env.from_workload(SensorWorkload(count=400, rate=4000.0, key_count=12, seed=17))
        .key_by(field_selector("sensor"), parallelism=parallelism)
        .process(fn, name="holder", parallelism=parallelism)
        .sink(sink, parallelism=1)
    )
    return env, sink


class TestTimersFollowKeys:
    @settings(max_examples=8, deadline=None)
    @given(new_parallelism=st.integers(min_value=1, max_value=6))
    def test_pending_timers_live_with_their_keys_owner(self, new_parallelism):
        env, _sink = _build_timer_pipeline()
        engine = env.build()
        rescaler = Rescaler(engine)
        placements: list[tuple[int, object, int]] = []

        def rescale_and_audit():
            rescaler.rescale("holder", new_parallelism)
            router = rescaler.router_for("holder")
            for index, task in enumerate(engine.tasks_of("holder")):

                def audit(key, index=index):
                    # sees every pending keyed timer and takes none
                    placements.append((index, key, router.owner_index(key)))
                    return False

                task.extract_event_timers(audit)

        # Audit synchronously at rescale time: the far-future timers are all
        # still pending here (they fire in bulk at job finish).
        engine.kernel.call_at(0.05, rescale_and_audit)
        env.execute(until=2.0)
        assert placements, "rescale happened before any timers registered"
        for index, key, owner in placements:
            assert owner == index, (
                f"timer for key {key!r} on subtask {index}, owner is {owner}"
            )
