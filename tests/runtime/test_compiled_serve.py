"""The run loop, generated per task shape (DESIGN.md, "Compiled serve").

One template (``_SERVE``, with ``_EMIT`` for a source's emission) is
expanded for the parts a task has attached into ``deliver``, ``_complete``,
``_process_next`` and ``flush_outputs``. These tests hold the generator to
its contract: every shape compiles, and each of the three serving functions
serves in its own frame; the shape with no part attached runs none of the
part tests on a record; a task rebuilds its run loop when a part attaches,
and keeps a ``deliver`` or ``_complete`` replaced on the instance; a chained
task enters its chain without the ``process`` frame and charges its
members without the ``add_cost`` frame, while a traced record still goes
through ``process``.
"""

import hashlib
import itertools
import sys

import pytest

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import DEFAULT_MAX_PARALLELISM
from repro.core.operators.base import Operator
from repro.core.operators.chain import ChainedOperator
from repro.io import CollectSink, SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness, PunctuatedWatermarks, WatermarkStrategy
from repro.runtime import task as task_module
from repro.runtime.channel import outputs_clear
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


def _functions(parts):
    """The generated functions of the ``_SERVE`` shape ``parts``, by name,
    each as its own source text."""
    source = "\n".join(task_module._expand(task_module._SERVE, frozenset(n for n, on in parts.items() if on)))
    chunks = source.split("\n    def ")[1:]
    return {chunk.split("(")[0]: chunk for chunk in chunks}


@pytest.mark.parametrize("parts", list(_shapes(SERVE_PARTS)), ids=lambda p: "+".join(n for n, on in p.items() if on) or "none")
def test_every_shape_serves_in_the_frame_that_starts_the_service(parts):
    functions = _functions(parts)
    assert list(functions) == ["deliver", "_complete", "_process_next", "flush_outputs"]
    serve = "head(element, ctx)" if parts["chain"] else "operator.process(element, ctx)"
    # a completion and a pull serve the next element inline; so does a
    # delivery to an idle task, unless a txn gate keeps the mailbox path
    assert serve in functions["_complete"] and serve in functions["_process_next"]
    assert (serve in functions["deliver"]) is not parts["gate"]
    assert "_handle_item" in functions["_complete"] and "_serve" not in "".join(functions.values())
    # the output flush is inlined where a service ends and in flush_outputs
    for name in ("_complete", "flush_outputs"):
        assert "channels[0].transmit(element)" in functions[name], name
    assert "flush_outputs()" not in functions["_complete"]
    # the rare cases go to the slow paths the generated code calls
    assert "task._deliver_rare(" in functions["deliver"] and "task._maybe_schedule()" in functions["deliver"]
    assert ("kernel.call_soon(task._process_next" in functions["_complete"]) is parts["gate"]
    # a txn gate always schedules the completion event: no elided end
    assert ("task._busy_until = completion" in functions["_complete"]) is not parts["gate"]
    for name in ("rescale", "tracer", "profiler"):
        code = {"rescale": "rescale.owner(", "tracer": "tracer.begin(", "profiler": "samples["}[name]
        for function in ("deliver", "_complete", "_process_next"):
            if function != "deliver" or not parts["gate"]:
                assert (code in functions[function]) is parts[name], (name, function)


@pytest.mark.parametrize("parts", list(_shapes(EMIT_PARTS)), ids=lambda p: "+".join(n for n, on in p.items() if on) or "none")
def test_a_scalar_source_flushes_in_its_emission_frame(parts):
    source = "\n".join(task_module._expand(task_module._EMIT, frozenset(n for n, on in parts.items() if on)))
    emit_due = source.split("def _schedule_next")[0]
    assert "flush_outputs()" not in emit_due
    assert ("channels[0].transmit(element)" in emit_due) is not parts["batch"]


@pytest.mark.parametrize("parts", list(_shapes(EMIT_PARTS)), ids=lambda p: "+".join(n for n, on in p.items() if on) or "none")
def test_a_source_checks_its_outputs_and_asks_its_strategy_in_its_emission_frame(parts):
    source = "\n".join(task_module._expand(task_module._EMIT, frozenset(n for n, on in parts.items() if on)))
    emit_due = source.split("def _schedule_next")[0]
    assert "outputs_clear(" not in emit_due and "channel._backlog" in emit_due
    # a batch's rows meet the strategy in _emit_batch
    assert ("on_event(" in emit_due) is not parts["batch"]


def test_the_general_body_holds_every_part():
    general = "\n".join(task_module._expand(task_module._SERVE, frozenset(SERVE_PARTS)))
    for code in ("rescale.owner(", "key_group_for(", "tracer.begin(", "tracer.finish(", "samples[", "head(element, ctx)"):
        assert code in general, code
    # a txn gate always schedules the completion event: no elided end
    assert "task._busy_until = completion" not in general


def test_a_plain_record_runs_no_part_test():
    deliver = _functions(dict.fromkeys(SERVE_PARTS, False))["deliver"]
    record_branch = deliver.split("units, timers_fired = task._handle_item")[0]
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


class _WatermarkLog(Operator):
    """Forwards everything; logs the watermarks it is handed."""

    def __init__(self, log):
        self.log = log

    def on_watermark(self, watermark, ctx):
        self.log.append(watermark.timestamp)
        ctx.emit(watermark)


def _source_job(strategy):
    env = StreamExecutionEnvironment(EngineConfig(seed=1))
    sink, watermarks = CollectSink("out"), []
    (
        env.from_workload(
            SensorWorkload(count=1000, rate=2000.0, key_count=4, disorder=0.002, seed=3),
            name="src",
            watermarks=strategy,
        )
        .apply_operator(lambda: _WatermarkLog(watermarks), name="log")
        .sink(sink, name="out")
    )
    return env, sink, watermarks


def test_a_source_under_the_base_strategy_never_calls_outputs_clear():
    env, sink, watermarks = _source_job(WatermarkStrategy())
    codes = outputs_clear.__code__, WatermarkStrategy.on_event.__code__
    assert _calls(env, *codes) == [0, 1000]
    assert len(sink.results) == 1000 and len(watermarks) == 1  # end of input


#: (strategy, its ``on_event``, the watermarks the logging operator is
#: handed as (count, digest)) — the digests are those of the tree that
#: called every strategy through ``task.strategy`` per record
STRATEGIES = {
    "bounded": (
        lambda: BoundedOutOfOrderness(0.005), BoundedOutOfOrderness.on_event, (11, "2e9912d92f8ef0a4")
    ),
    "punctuated": (
        lambda: PunctuatedWatermarks(lambda v, t: t - 0.005 if v["seq"] % 50 == 0 else None),
        PunctuatedWatermarks.on_event,
        (21, "952dfbe70edfadc6"),
    ),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_strategy_with_on_event_sees_every_record_and_emits_the_same_watermarks(name):
    strategy, on_event, expected = STRATEGIES[name]
    env, sink, watermarks = _source_job(strategy())
    assert _calls(env, outputs_clear.__code__, on_event.__code__) == [0, 1000]
    assert len(sink.results) == 1000
    digest = hashlib.sha256(repr(watermarks).encode()).hexdigest()[:16]
    assert (len(watermarks), digest) == expected


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
    task = engine.plan.subtasks("count")[0]
    task.start()
    plain = task.deliver.__code__
    task.enable_keygroup_tracking(DEFAULT_MAX_PARALLELISM)
    counting = task.deliver.__code__
    assert counting is not plain and "key_group_for" in counting.co_names
    assert "key_group_for" in task._complete.__code__.co_names
    task.rescale_state = None
    assert task.deliver.__code__ is counting  # the same shape: the same code


def _replace(task):
    """Replace ``deliver`` and ``_complete`` on ``task`` with wrappers that
    log and call the class-level methods (which run the latest build)."""
    log = []
    deliver, complete = type(task).deliver, type(task)._complete

    def logged_deliver(channel_index, element, via=None):
        log.append("deliver")
        deliver(task, channel_index, element, via)

    def logged_complete(via, incarnation):
        log.append("complete")
        complete(task, via, incarnation)

    task.deliver, task._complete = logged_deliver, logged_complete
    return log, logged_deliver, logged_complete


TRIGGERS = {
    "start": lambda engine, task: task.start(),
    "attach_obs": lambda engine, task: task.attach_obs(engine.obs),
    "enable_keygroup_tracking": lambda engine, task: task.enable_keygroup_tracking(DEFAULT_MAX_PARALLELISM),
    "rescale_state": lambda engine, task: setattr(task, "rescale_state", None),
    "reincarnate": lambda engine, task: (task.kill(), engine.plan.revive(task)),
}


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_an_instance_replacement_survives_every_compile(trigger):
    env, sink = _tenant_job()
    engine = env.build()
    task = engine.plan.subtasks("count")[0]
    log, deliver, complete = _replace(task)
    built = dict(task._generated)
    TRIGGERS[trigger](engine, task)
    assert task._generated["deliver"] is not built["deliver"]  # rebuilt
    assert task.deliver is deliver and task._complete is complete
    env.execute()
    # the replacements saw every delivery and every completion event, and
    # the run loop behind them is the one built last
    assert log.count("deliver") > 200 and "complete" in log
    assert len(sink.results) == 200
