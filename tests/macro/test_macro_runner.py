"""MacroRunner: measurement cells, payload shape, and the digest judge."""

import pytest

from repro.macro.queries import QUERIES, build_macro_job, transfer_of
from repro.macro.runner import ENGINE_CONFIGS, QUERY_KIND, MacroRunner, _query_prefix


def test_query_prefix_attribution():
    assert _query_prefix("q3-win[1]") == "q3"
    assert _query_prefix("q1-enrich") == "q1"
    assert _query_prefix("macro-src[0]") == "shared"
    assert _query_prefix("q9-not-a-query[0]") == "shared"


def test_transfer_derivation_is_pure():
    value = {"key": 13, "seq": 40}
    assert transfer_of(value) == transfer_of(value)
    kind, op_id, src, dst, amount = transfer_of(value)
    assert (kind, op_id) == ("xfer", "t40")
    assert src != dst and 1 <= amount <= 9


def test_engine_configs_cover_the_axes():
    assert set(QUERY_KIND) == set(QUERIES)
    assert ENGINE_CONFIGS["seed"].equivalent
    assert not ENGINE_CONFIGS["seed"].chaining
    assert ENGINE_CONFIGS["columnar"].columnar
    assert ENGINE_CONFIGS["incremental"].incremental
    assert not ENGINE_CONFIGS["autoscale"].equivalent
    assert ENGINE_CONFIGS["txn-nowait"].txn_locking == "nowait"
    config = ENGINE_CONFIGS["autoscale"].engine_config(0)
    assert config.flow_control and config.metrics_interval is not None


@pytest.fixture(scope="module")
def small_sweep():
    runner = MacroRunner(
        seed=0,
        scale=0.1,
        configs={name: ENGINE_CONFIGS[name] for name in ("seed", "fastpath")},
    )
    return runner, runner.run()


def test_payload_cells_have_the_required_measurements(small_sweep):
    _runner, payload = small_sweep
    assert payload["benchmark"] == "macro_suite"
    for name in ("seed", "fastpath"):
        cell = payload["configs"][name]
        assert set(cell["cells"]) == set(QUERIES)
        for q in cell["cells"].values():
            assert q["inputs"] > 0
            assert q["throughput_records_per_wall_sec"] > 0
            assert q["latency_p50"] is not None
            assert q["latency_p99"] is not None
            assert len(q["digest"]) == 64
        assert cell["checkpoints_completed"] > 0
        assert cell["kernel_events"] > 0


def test_kind_counts_match_measured_inputs(small_sweep):
    runner, payload = small_sweep
    counts = runner.kind_counts()
    assert set(counts) == {"txn", "sensor", "click", "ride"}
    cells = payload["configs"]["seed"]["cells"]
    assert cells["q1"]["inputs"] == counts["txn"]
    assert cells["q3"]["inputs"] == counts["sensor"]
    # The shared source carries every kind, background load included.
    assert payload["configs"]["seed"]["source_records"] >= sum(counts.values())


def test_judge_passes_on_equivalent_runs(small_sweep):
    _runner, payload = small_sweep
    assert payload["equivalence"] == {
        "baseline": "seed",
        "ok": True,
        "mismatches": [],
    }


def test_judge_flags_divergence():
    runner = MacroRunner(seed=0, scale=0.05)
    good = {"cells": {q: {"digest": "d", "multiset_digest": "m"} for q in QUERIES}}
    bad = {
        "cells": {
            q: {
                "digest": "d" if q != "q1" else "DIVERGED",
                "multiset_digest": "m",
            }
            for q in QUERIES
        }
    }
    verdict = runner._judge({"seed": good, "fastpath": bad})
    assert not verdict["ok"]
    assert verdict["mismatches"] == ["fastpath/q1: ordered digest diverged"]


def test_fastpath_reduces_kernel_events(small_sweep):
    _runner, payload = small_sweep
    assert (
        payload["configs"]["fastpath"]["kernel_events"]
        < payload["configs"]["seed"]["kernel_events"]
    )


def test_ml_scaler_state_survives_snapshot_restore():
    """The Q4 operator's snapshot carries the online scaler's running
    moments; restoring into a fresh operator reproduces scoring exactly."""
    import numpy as np

    from repro.ml.features import transaction_features
    from repro.ml.serving import EmbeddedTrainServeOperator

    def fresh():
        return EmbeddedTrainServeOperator(
            transaction_features(), label_of=lambda v: v["label"]
        )

    trained = fresh()
    rng = np.random.default_rng(5)
    for i in range(50):
        x = trained.scaler.update_transform(
            trained.vectorizer.vectorize(
                {"amount": float(rng.uniform(1, 900)), "country": "US", "key": i}
            )
        )
        trained.model.partial_fit(x, int(rng.integers(0, 2)))
        trained.total += 1

    restored = fresh()
    restored.restore_state(trained.snapshot_state())
    probe = {"amount": 512.0, "country": "XX", "key": 3}
    x_a = trained.scaler.update_transform(trained.vectorizer.vectorize(probe))
    x_b = restored.scaler.update_transform(restored.vectorizer.vectorize(probe))
    assert np.array_equal(x_a, x_b)
    assert trained.model.predict_proba(x_a) == restored.model.predict_proba(x_b)

    # Legacy 4-tuple snapshots (pre-scaler) still restore.
    legacy = fresh()
    legacy.restore_state(trained.snapshot_state()[:4])
    assert legacy.model.samples_seen == trained.model.samples_seen
    assert legacy.scaler.count == 0


def test_columnar_batch_respects_txn_hold():
    """A RecordBatch delivered to a transact task must behave exactly like
    its rows delivered one by one — every commit's output reaches the sink
    even when end-of-stream follows the batch immediately (regression:
    batched rows used to overlap their deferred commits and late emissions
    were dropped at teardown)."""
    job = build_macro_job(
        ENGINE_CONFIGS["columnar"].engine_config(0), seed=0, scale=0.05
    )
    job.env.build()
    job.env.execute()
    assert len(job.sink_tuples("q5")) == job.store.committed


def test_no_row_is_pickled_while_the_macro_job_checkpoints(monkeypatch):
    """Snapshot bytes are virtual time (they price the persist phase), so a
    type that is pickled into a snapshot may not change its serialized form.
    ``Record`` is free to: windows, aggregates, the ML operator and the txn
    store keep payloads, never rows, in checkpointed state."""
    from repro.core.events import Record

    def refuse(self, protocol):
        raise AssertionError("a Record reached a serializer")

    monkeypatch.setattr(Record, "__reduce_ex__", refuse, raising=False)
    cell = MacroRunner(seed=0, scale=0.1).run_config(ENGINE_CONFIGS["incremental"])
    assert cell["checkpoints_completed"] > 0
    assert cell["checkpoint_bytes_total"] > 0
