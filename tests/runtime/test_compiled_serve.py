"""The run loop's service body, generated per task shape (DESIGN.md,
"Compiled serve").

One template (``_SERVE``, with ``_EMIT`` for a source's emission) is
expanded for the parts a task has attached. These tests hold the generator
to its contract: every shape compiles; the shape with no part attached
runs none of the part tests on a record; a task rebuilds its body when a
part attaches; a chained task enters its chain without the ``process``
frame and charges its members without the ``add_cost`` frame, while a
traced record still goes through ``process``.
"""

import itertools
import sys

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.operators.chain import ChainedOperator
from repro.io import CollectSink, SensorWorkload
from repro.runtime import task as task_module
from repro.runtime.config import EngineConfig

SERVE_PARTS = ("rescale", "keygroups", "tracer", "profiler", "gate", "chain")
EMIT_PARTS = ("batch", "tracer")


def _shapes(names):
    for flags in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, flags))


@pytest.mark.parametrize(
    "template, names", [(task_module._SERVE, SERVE_PARTS), (task_module._EMIT, EMIT_PARTS)], ids=["serve", "emit"]
)
def test_every_shape_compiles_with_every_tag_and_fragment_resolved(template, names):
    for parts in _shapes(names):
        assert callable(task_module._factory(template, parts))
        source = "\n".join(task_module._expand(template, frozenset(n for n, on in parts.items() if on)))
        assert "  # [" not in source and "@" not in source


def test_the_general_body_holds_every_part():
    general = "\n".join(task_module._expand(task_module._SERVE, frozenset(SERVE_PARTS)))
    for code in ("rescale.owner(", "key_group_for(", "tracer.begin(", "tracer.finish(", "samples[", "head(element, ctx)"):
        assert code in general, code
    # a txn gate always schedules the completion event: no elided end
    assert "task._busy_until = completion" not in general


def test_a_plain_record_runs_no_part_test():
    source = "\n".join(task_module._expand(task_module._SERVE, frozenset()))
    record_branch = source.split("def _serve")[1].split("units, timers_fired = task._handle_item")[0]
    for part_name in ("rescale", "counts", "key_group_for", "tracer", "_active_span", "profiler", "head("):
        assert part_name not in record_branch, part_name
    assert "operator.process(element, ctx)" in record_branch
    assert "cost = task.processing_cost" in record_branch


def _tenant_job(**config):
    env = StreamExecutionEnvironment(EngineConfig(seed=1, chaining_enabled=True, **config))
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=200, rate=2000.0, key_count=4, seed=3), name="src")
        .map(lambda v: (v["sensor"], v["seq"]), name="project")
        .key_by(lambda v: v[0], name="by-sensor")
        .aggregate(create=lambda: (0, -1), add=lambda acc, v: (acc[0] + 1, v[1]), name="count")
        .sink(sink, name="out")
    )
    return env, sink


def _calls(env, *codes):
    """Run ``env`` and count the calls of each code object."""
    env.build()
    counts = dict.fromkeys(codes, 0)

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        env.execute()
    finally:
        sys.setprofile(previous)
    return [counts[code] for code in codes]


PROCESS = ChainedOperator.process.__code__
ADD_COST = task_module.TaskContext.add_cost.__code__


def test_a_chained_task_enters_its_chain_and_charges_members_without_frames():
    env, sink = _tenant_job()
    assert _calls(env, PROCESS, ADD_COST) == [0, 0]
    assert len(sink.results) == 200
    chains = [t.operator for t in env.engine.tasks.values() if isinstance(t.operator, ChainedOperator)]
    assert len(chains) == 2 and all(chain.member_records_in[0] == 200 for chain in chains)


def test_a_traced_record_still_goes_through_process():
    env, sink = _tenant_job(trace_sample_rate=1.0)
    # each record enters both chains through process; of the non-head
    # members only the sink has a cost to charge (a key_by's is zero)
    assert _calls(env, PROCESS, ADD_COST) == [400, 200]
    assert len(sink.results) == 200


def test_the_same_rows_and_busy_time_traced_or_not():
    def run(rate):
        env, sink = _tenant_job(trace_sample_rate=rate)
        env.execute()
        busy = sorted((name, task.metrics.busy_time) for name, task in env.engine.tasks.items())
        return [(r.value, r.emitted_at) for r in sink.results], busy

    assert run(0.0) == run(1.0)


def test_attaching_a_part_rebuilds_the_body():
    env, _sink = _tenant_job()
    engine = env.build()
    task = engine.tasks_of("count")[0]
    task.start()
    plain = task._serve.__code__
    task.enable_keygroup_tracking(engine.config.max_parallelism)
    counting = task._serve.__code__
    assert counting is not plain and "key_group_for" in counting.co_names
    task.rescale_state = None
    assert task._serve.__code__ is counting  # the same shape: the same code
