"""The isolation oracle: a tenant's output is invariant to its neighbours.

The fabric's core promise is that multiplexing jobs onto one kernel is
*observationally free*: a job's sink contents — `(value, event_time)`
pairs, in order — are byte-identical whether the job runs alone on a
dedicated kernel or interleaved with K other seeded jobs competing for
slots. The hypothesis test below is the oracle from the issue; the other
tests pin specific adversarial neighbours (crash loops, stalls).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fabric_helpers import keyed_count_env, solo_digest

from repro.fabric import FabricConfig, JobFabric, sink_digest


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    neighbours=st.integers(min_value=1, max_value=6),
    slots=st.integers(min_value=1, max_value=3),
    quantum=st.sampled_from([0.005, 0.02, 0.1]),
)
def test_digest_is_invariant_to_interleaving(seed, neighbours, slots, quantum):
    """Property: for any seed and any contention level, the subject job's
    sink digest interleaved with K seeded neighbours equals its solo
    digest on a dedicated kernel."""
    alone = solo_digest("subject", seed=seed, count=80)

    fabric = JobFabric(FabricConfig(slots=slots, quantum=quantum))
    env, sink = keyed_count_env("subject", seed=seed, count=80)
    fabric.submit(env)
    for k in range(neighbours):
        nenv, _ = keyed_count_env(f"noise{k}", seed=seed + 17 * (k + 1), count=80)
        fabric.submit(nenv)
    result = fabric.run()
    assert result.all_finished
    assert sink_digest(sink) == alone


def test_digest_survives_crash_looping_neighbour():
    """A neighbour stuck killing and restarting its tasks cannot perturb
    the subject's output."""
    from repro.fault.injection import FailureInjector

    alone = solo_digest("subject", seed=3, count=120)

    fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
    env, sink = keyed_count_env("subject", seed=3, count=120)
    fabric.submit(env)
    cenv, _ = keyed_count_env("crasher", seed=5, count=120)
    crasher = fabric.submit(cenv)
    injector = FailureInjector(crasher.engine)
    for k in range(4):
        injector.schedule_kill("count[0]", 0.005 + 0.02 * k)
    injector.on_detection(lambda event: crasher.engine.restart_from_scratch())
    result = fabric.run()
    assert result.tenant("subject").state == "done"
    assert sink_digest(sink) == alone


def test_digest_survives_neighbour_teardown_mid_run():
    """Bulk-cancelling a failed neighbour's namespace mid-run must not
    drop or reorder any of the subject's events."""
    alone = solo_digest("subject", seed=7, count=120)

    fabric = JobFabric(FabricConfig(slots=2, quantum=0.05))
    env, sink = keyed_count_env("subject", seed=7, count=120)
    fabric.submit(env)
    denv, _ = keyed_count_env("doomed", seed=9, count=5000)
    doomed = fabric.submit(denv)
    with fabric.kernel.job_scope(doomed.engine.job_tag):
        fabric.kernel.call_at(
            0.02, lambda: doomed.engine.fail_job("induced mid-run failure")
        )
    result = fabric.run()
    assert result.tenant("doomed").state == "failed"
    assert result.tenant("doomed").events_condemned > 0
    assert result.tenant("subject").state == "done"
    assert sink_digest(sink) == alone


def test_stalled_tenant_does_not_block_others():
    """A tenant whose pipeline never finishes (its quota evicts it) holds
    at most one slot's worth of time; everyone else completes clean."""
    alone = solo_digest("subject", seed=11, count=100)

    fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
    env, sink = keyed_count_env("subject", seed=11, count=100)
    fabric.submit(env)
    henv, _ = keyed_count_env("hog", seed=13, count=200_000, rate=2000.0)
    fabric.submit(henv, runtime_quota=0.2)
    result = fabric.run()
    assert result.tenant("hog").state == "failed"
    assert result.tenant("subject").state == "done"
    assert sink_digest(sink) == alone


def test_a_row_nested_in_a_payload_digests_as_its_repr():
    """Tuple-leak audit: a ``Record`` is a tuple, and both ``_canonical`` and
    ``json.dumps`` flatten tuples — a row inside a sink value would digest
    as its six fields, sampled trace included. It digests as ``repr`` (what
    ``default=repr`` produced before rows were tuple-backed)."""
    from helpers import StubContext

    from repro.core.events import Record
    from repro.io.sinks import CollectSink

    def digest(payload):
        sink = CollectSink()
        sink.write(Record(payload, 1.0), StubContext())
        return sink_digest(sink)

    row = Record("v", 2.0, "k", -1, 0.5)
    assert digest({"row": row, "rows": [row]}) == digest({"row": repr(row), "rows": [repr(row)]})
    assert digest({"row": row}) == digest({"row": row.with_trace(("trace", 7))})
    assert digest({"row": row}) != digest({"row": tuple(row)})
