"""Exact equivalence pins for the transactional store.

Every value below was recorded on the step-at-a-time implementation the
store-side scheduler replaced (operator-driven lock walk, one continuation
per plan key, a handle object per transaction). Lock grants, waits, commit
times and kernel events are unchanged by construction, so the committed
history digest, the committed state and the kernel's event count must be
identical — for ordered locking and for NO-WAIT.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.runner import ChaosRunner
from repro.chaos.scenarios import txn_scenarios
from repro.chaos.smoke import SMOKE_MATRIX
from repro.macro.queries import build_macro_job
from repro.macro.runner import ENGINE_CONFIGS

#: (config, seed) -> (store digest, history length, committed-items digest,
#: aborts, retries, kernel events) for the macro job at scale 0.3.
#: ``fastpath`` is the per-record (scalar) transport, ``columnar`` the batch
#: transport, ``txn-nowait`` the scalar transport with a NO-WAIT Q5 store
MACRO_PINS = {
    ("fastpath", 0): (
        "6d0a9d77ea2acdb56b9ff5eea273bd398e38e81d09c8a4e8976910283aa1d19c",
        360,
        "a555daaf6404f4c533174faa9d5d4daea9080432021e3f3036a08e050635387f",
        0,
        0,
        6839,
    ),
    ("fastpath", 1): (
        "a7b1d21e92a4d377c561a0dee1bb4926fae74559137f46ccd6a8ce2c53003d11",
        360,
        "c56d3372a3ac4a9e51b07f4bdede8edd357ccc6a2c9913c8ddd15600e1b1e4e1",
        0,
        0,
        6673,
    ),
    ("columnar", 0): (
        "2e3d494224e07de19d933bc85cc68f5e5a1990eaf67dbbafb01a30d05120727e",
        360,
        "a555daaf6404f4c533174faa9d5d4daea9080432021e3f3036a08e050635387f",
        0,
        0,
        1443,
    ),
    ("columnar", 1): (
        "b1e6e882819b8470c34392a07ef1589904817b23f52125996ab8ac42b4399e81",
        360,
        "c56d3372a3ac4a9e51b07f4bdede8edd357ccc6a2c9913c8ddd15600e1b1e4e1",
        0,
        0,
        1462,
    ),
    ("txn-nowait", 0): (
        "8578f57363d3e03292ddd6d7bbad47621ea21f8d223d774ec05bd7d3637d168f",
        360,
        "a555daaf6404f4c533174faa9d5d4daea9080432021e3f3036a08e050635387f",
        49,
        49,
        6823,
    ),
    ("txn-nowait", 1): (
        "1e4e770c52aaa19fccd4af6a5d0a1f30eb214202bb2e9b8af211b7ea8ea48075",
        360,
        "c56d3372a3ac4a9e51b07f4bdede8edd357ccc6a2c9913c8ddd15600e1b1e4e1",
        48,
        48,
        6663,
    ),
}

#: scenario name -> the one store digest of its seed-0, chaining-off,
#: first-schedule chaos run
CHAOS_PINS = {
    "txn-transfer/exactly_once": "9e08106088c16d3c29e772240072368736b4b091ad389213ed059571efa396f8",
    "txn-hot-account/exactly_once": "a9ee0ba4ec9337e1e2bbe760c9e70932cf4a52bc275a2de95304cbf1bd429b73",
    "txn-mixed-readonly/exactly_once": "e419940b0511268d18cf57d75dbaaf9f4d6eda16e60535ca13bf2c6c9d784042",
    "txn-transfer-nowait/exactly_once": "f4e2d6e24e36f49ba4c8d6b86a17178234bca6a693cff44c62909eb24c8a0346",
    "txn-hot-account-nowait/exactly_once": "d6de9991989785e1ec03ebab209372a4cc3bbfa079c211150065b5fa3c4caf89",
    "txn-mixed-readonly-nowait/exactly_once": "c4120a0fb229979aa6be24bab7fbbdb146a773e5b5a2156556b39b35e47b04c8",
}


def _items_digest(items: dict) -> str:
    ordered = sorted(items.items(), key=lambda kv: repr(kv[0]))
    return hashlib.sha256(repr(ordered).encode()).hexdigest()


@pytest.mark.parametrize("config, seed", sorted(MACRO_PINS))
def test_macro_store_matches_pin(config, seed):
    spec = ENGINE_CONFIGS[config]
    job = build_macro_job(
        spec.engine_config(seed), seed=seed, scale=0.3, txn_locking=spec.txn_locking
    )
    engine = job.env.build()
    job.env.execute()
    store = job.store
    observed = (
        store.digest(),
        len(store.history),
        _items_digest(store.committed_items()),
        store.aborted,
        store.retries,
        engine.kernel.dispatched_events,
    )
    assert observed == MACRO_PINS[config, seed]


def test_every_chaos_shape_is_pinned():
    assert sorted(s.name for s in txn_scenarios()) == sorted(CHAOS_PINS)


@pytest.mark.parametrize("scenario", txn_scenarios(), ids=lambda s: s.name)
def test_chaos_store_digest_matches_pin(scenario):
    runner = ChaosRunner(scenario, seed=0, schedules_per_config=1, matrix=(SMOKE_MATRIX[0],))
    report = runner.run_one(SMOKE_MATRIX[0], schedule_index=0)
    assert report.ok and report.finished
    assert list(report.txn_digests.values()) == [CHAOS_PINS[scenario.name]]
