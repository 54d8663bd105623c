"""Cross-feature equivalence over the full macro suite.

The macro job exercises every subsystem at once — enrichment maps, the
CEP NFA, sliding windows, embedded ML scoring, and multi-partition
transactions — so it is the sharpest equivalence probe the repo has:
for any workload seed, sweeping the engine flag matrix (chaining ×
columnar × incremental checkpoints × txn locking) must reproduce

* byte-identical ordered sink tuples for Q1–Q4, and
* the identical Q5 commit multiset (commit *order* races on the virtual
  clock; the bag of committed transfers and the final balances may not),

versus the seed configuration. A reduced workload scale keeps the
hypothesis sweep fast; ``benchmarks/test_macro_suite.py`` runs the full
thing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.macro.queries import (
    MACRO_ACCOUNTS,
    balance_conservation,
    build_macro_job,
)
from repro.macro.runner import MacroEngineSpec

SCALE = 0.1  # 120 txns + 120 sensor readings + background load


def run_macro(seed, chaining, columnar, incremental, txn_locking):
    spec = MacroEngineSpec(
        name="probe",
        description="equivalence probe",
        equivalent=True,
        chaining=chaining,
        columnar=columnar,
        incremental=incremental,
        txn_locking=txn_locking,
    )
    job = build_macro_job(
        spec.engine_config(seed), seed=seed, scale=SCALE, txn_locking=txn_locking
    )
    job.env.build()
    job.env.execute()
    return job


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_flag_matrix_is_equivalent_on_the_macro_suite(seed):
    baseline = run_macro(
        seed, chaining=False, columnar=False, incremental=False, txn_locking="ordered"
    )
    expected = {q: baseline.sink_tuples(q) for q in ("q1", "q2", "q3", "q4")}
    expected_q5 = sorted(baseline.sink_tuples("q5"), key=repr)
    assert expected["q1"], "property is vacuous without enrichment output"
    assert expected_q5, "property is vacuous without committed transfers"

    for chaining in (False, True):
        for columnar in (False, True):
            for incremental in (False, True):
                if not (chaining or columnar or incremental):
                    continue  # that's the baseline
                job = run_macro(
                    seed,
                    chaining=chaining,
                    columnar=columnar,
                    incremental=incremental,
                    txn_locking="ordered",
                )
                flags = f"chaining={chaining}, columnar={columnar}, incr={incremental}"
                for query, want in expected.items():
                    assert job.sink_tuples(query) == want, f"{query} diverged ({flags})"
                assert sorted(job.sink_tuples("q5"), key=repr) == expected_q5, (
                    f"q5 commit multiset diverged ({flags})"
                )


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_nowait_locking_commits_the_same_multiset(seed):
    """NO-WAIT retries reorder commits but must never lose or duplicate a
    transfer, and the final balances must conserve the total."""
    baseline = run_macro(
        seed, chaining=False, columnar=False, incremental=False, txn_locking="ordered"
    )
    nowait = run_macro(
        seed, chaining=True, columnar=False, incremental=False, txn_locking="nowait"
    )
    assert sorted(nowait.sink_tuples("q5"), key=repr) == sorted(
        baseline.sink_tuples("q5"), key=repr
    )
    for job in (baseline, nowait):
        balances = {
            key: value
            for key, value in job.store.committed_items().items()
            if isinstance(key, str) and key.startswith("acct-")
        }
        assert len(balances) <= MACRO_ACCOUNTS
        assert balance_conservation(balances) is None


def test_macro_job_is_deterministic_run_to_run():
    """Same seed, same flags -> byte-identical digests, both runs."""
    a = run_macro(7, chaining=True, columnar=True, incremental=True, txn_locking="ordered")
    b = run_macro(7, chaining=True, columnar=True, incremental=True, txn_locking="ordered")
    for query in ("q1", "q2", "q3", "q4", "q5"):
        assert a.digest(query) == b.digest(query)
    assert a.sink_tuples("q1"), "determinism check is vacuous without output"
