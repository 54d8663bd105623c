"""Determinism under the fast-path optimisations.

Operator chaining must not make execution nondeterministic: the same seed
must give byte-identical sink outputs and checkpoint snapshots run-to-run,
chained or not. The same-time bucket must be observably identical to the
heap-only reference kernel. And chaining must not change the computed
*answers*: it produces the same sink values as the unchained configuration.
"""

import functools
import pickle
from unittest import mock

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.io.sinks import CollectSink
from repro.io.sources import SensorWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.sim import Kernel


def build_env(chaining, seed=23):
    config = EngineConfig(
        seed=seed,
        chaining_enabled=chaining,
        checkpoints=CheckpointConfig(interval=0.05),
    )
    env = StreamExecutionEnvironment(config, name="determinism")
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=400, rate=4000.0, key_count=6, seed=seed))
        # burst stage: 1 -> 3 same-time emissions, the case batching coalesces
        .flat_map(lambda v: [v["reading"], v["reading"] * 2, v["reading"] * 3], name="expand")
        .map(lambda r: round(r, 4), name="quantise")
        .key_by(lambda r: int(r * 10) % 4)
        .aggregate(create=lambda: 0.0, add=lambda acc, r: round(acc + r, 4), name="running")
        .sink(sink, parallelism=1)
    )
    return env, sink


def sink_bytes(sink):
    """Canonical byte serialisation of the full sink output, timestamps
    included — equality means observably identical execution."""
    return pickle.dumps(
        [(r.value, r.event_time, r.emitted_at, r.ingest_time, r.key, r.sign) for r in sink.results]
    )


def snapshot_bytes(engine, normalise_chain=False):
    """Canonical byte serialisation of the latest completed checkpoint."""
    record = engine.latest_checkpoint()
    entries = []
    for snapshot in record.snapshots.values():
        for state_name, per_key in sorted(snapshot.keyed_state.items()):
            if normalise_chain and state_name.startswith("chain"):
                state_name = state_name.split("/", 1)[1]
            for key, data in sorted(per_key.items(), key=lambda kv: repr(kv[0])):
                entries.append((state_name, key, data))
    entries.sort(key=repr)
    return record.checkpoint_id, pickle.dumps(entries)


def run(chaining, seed=23):
    env, sink = build_env(chaining, seed=seed)
    engine = env.build()
    env.execute()
    return engine, sink


class TestRunToRunDeterminism:
    @pytest.mark.parametrize("chaining", [False, True], ids=lambda c: f"chain={c}")
    def test_same_seed_is_byte_identical(self, chaining):
        engine_a, sink_a = run(chaining)
        engine_b, sink_b = run(chaining)
        assert len(sink_a.results) > 0
        assert sink_bytes(sink_a) == sink_bytes(sink_b)
        assert snapshot_bytes(engine_a) == snapshot_bytes(engine_b)


class TestOptimisationsPreserveSemantics:
    def test_bucket_and_batching_are_observably_identical(self):
        """With chaining fixed off, the same-time bucket and same-arrival
        batching change *when work is dispatched inside a virtual instant*,
        never what is delivered or when: full output including timestamps,
        and the checkpoint, match a run on the heap-only reference kernel,
        which dispatches every batch and flight as its own heap entry."""
        engine, sink = run(chaining=False)
        heap_only = functools.partial(Kernel, same_time_bucket=False)
        with mock.patch("repro.runtime.engine.Kernel", heap_only):
            ref_engine, ref = run(chaining=False)
        assert ref_engine.kernel._same_time_bucket is False
        assert len(sink.results) > 0
        assert sink_bytes(sink) == sink_bytes(ref)
        assert snapshot_bytes(engine) == snapshot_bytes(ref_engine)

    def test_chaining_preserves_values_and_state(self):
        """Chaining legitimately removes inter-operator channel latency, so
        timestamps shift — but the computed values and the checkpointed
        state contents must be unchanged."""
        plain_engine, plain = run(chaining=False)
        fused_engine, fused = run(chaining=True)
        assert fused.values() == plain.values()
        # Checkpoints may be cut at different element boundaries (barrier
        # alignment depends on in-flight latency), so compare the state
        # *names and keys* rather than point-in-time contents.
        _, plain_snapshot = snapshot_bytes(plain_engine, normalise_chain=True)
        _, fused_snapshot = snapshot_bytes(fused_engine, normalise_chain=True)
        plain_keys = {(n, k) for n, k, _ in pickle.loads(plain_snapshot)}
        fused_keys = {(n, k) for n, k, _ in pickle.loads(fused_snapshot)}
        assert fused_keys == plain_keys

    def test_all_fast_paths_on_same_values_as_all_off(self):
        _, slow = run(chaining=False)
        _, fast = run(chaining=True)
        assert fast.values() == slow.values()
        assert len(fast.values()) > 0

    @pytest.mark.parametrize("seed", [1, 7, 99])
    def test_seeds_vary_but_each_is_self_consistent(self, seed):
        _, first = run(chaining=True, seed=seed)
        _, second = run(chaining=True, seed=seed)
        assert sink_bytes(first) == sink_bytes(second)
