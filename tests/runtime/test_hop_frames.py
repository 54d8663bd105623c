"""A deterministic guard on the per-record framework cost of one hop.

Two jobs run under ``sys.setprofile`` and every Python call into the
framework layers is counted:

* unchained, source -> map -> key_by -> count -> sink: calls into
  ``repro/runtime`` and ``repro/sim``;
* chained, one ``fabric_tenants`` tenant — source -> (map, key_by) ->
  (count, sink) with ``chaining_enabled=True``: calls into
  ``repro/runtime``, ``repro/sim`` and ``repro/core/operators``, so the
  chain's own frames count too.

Call counts repeat exactly for a fixed input, so the bounds carry no
wall-clock noise: a change that puts a frame back on the record path (a
service body called from ``deliver`` or ``_complete`` rather than inlined,
a pull or flush frame per completion, a gate or ``send`` frame per element, a
clock read through ``Kernel.now``, a method behind ``ctx.emit``, a
``ChainedOperator.process`` or ``add_cost`` frame per chained record, a
delegate on a chain member's context) raises the count by a multiple of the
record count and fails here.
"""

from __future__ import annotations

import os
import sys

import repro.core.operators
import repro.runtime
import repro.sim
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig

RECORDS = 500
#: Python calls into repro/runtime and repro/sim for the whole unchained run
BOUND = 15_212
#: Python calls into repro/runtime, repro/sim and repro/core/operators for
#: the whole chained run
CHAINED_BOUND = 12_234


def _layers(*modules) -> tuple[str, ...]:
    return tuple(os.path.dirname(module.__file__) + os.sep for module in modules)


def _count(env: StreamExecutionEnvironment, layers: tuple[str, ...]) -> int:
    env.build()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(layers):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        env.execute()
    finally:
        sys.setprofile(previous)
    return calls


def count_calls() -> tuple[int, int]:
    env = StreamExecutionEnvironment(EngineConfig(seed=1))
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=RECORDS, rate=2000.0, key_count=8, seed=3))
        .map(lambda v: v, name="map")
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda a, _v: a + 1, name="count")
        .sink(sink)
    )
    return _count(env, _layers(repro.runtime, repro.sim)), len(sink.results)


def count_chained_calls() -> tuple[int, int, int]:
    """The ``fabric_tenants`` tenant job (perf/workloads.py), run alone;
    returns the calls, the sink rows and the task count."""
    env = StreamExecutionEnvironment(EngineConfig(seed=1, chaining_enabled=True))
    sink = CollectSink("out")
    (
        env.from_workload(SensorWorkload(count=RECORDS, rate=2000.0, key_count=4, seed=3), name="src")
        .map(lambda v: (v["sensor"], v["seq"]), name="project")
        .key_by(lambda v: v[0], name="by-sensor", parallelism=1)
        .aggregate(create=lambda: (0, -1), add=lambda acc, v: (acc[0] + 1, v[1]), name="count", parallelism=1)
        .sink(sink, name="out", parallelism=1)
    )
    calls = _count(env, _layers(repro.runtime, repro.sim, repro.core.operators))
    return calls, len(sink.results), len(env.engine.tasks)


def test_framework_calls_per_record_stay_within_the_bound():
    calls, rows = count_calls()
    assert rows == RECORDS
    assert calls <= BOUND, f"{calls / RECORDS:.2f} calls per record, bound {BOUND / RECORDS:.2f}"


def test_chained_calls_per_record_stay_within_the_bound():
    calls, rows, tasks = count_chained_calls()
    assert rows == RECORDS
    assert tasks == 3  # src, project->by-sensor, count->out
    assert calls <= CHAINED_BOUND, f"{calls / RECORDS:.2f} calls per record, bound {CHAINED_BOUND / RECORDS:.2f}"
