"""A deterministic guard on the per-record cost of keyed state and windows.

The job source -> key_by -> sliding-window count -> sink runs under
``sys.setprofile``; every Python call into ``repro/windows``,
``repro/state`` and ``repro/core`` is counted. Call counts repeat exactly
for a fixed input, so the bound carries no wall-clock noise: a change that
puts a frame back on the keyed path (a state handle's method around a
backend access, ``_is_expired``, the base trigger's ``on_element``, the
``fires``/``purges`` properties, an ``AggregateFunction`` method around the
user callable, the key-group and subtask frames inside ``subtask_for_key``)
raises the count by a multiple of the record count and fails here. (The
bound is this tree's count; the tree before keyed operators reached state
directly made 17 301 calls.)
"""

from __future__ import annotations

import os
import sys

import repro.core
import repro.state
import repro.windows
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.progress.watermarks import BoundedOutOfOrderness
from repro.runtime.config import EngineConfig
from repro.windows import SlidingEventTimeWindows

RECORDS = 500
#: Python calls into repro/windows, repro/state and repro/core for the run
BOUND = 9_172

_LAYERS = tuple(
    os.path.dirname(module.__file__) + os.sep for module in (repro.windows, repro.state, repro.core)
)


def count_calls() -> tuple[int, int]:
    env = StreamExecutionEnvironment(EngineConfig(seed=1))
    sink = CollectSink("out")
    (
        env.from_workload(
            SensorWorkload(count=RECORDS, rate=2000.0, key_count=8, disorder=0.002, seed=3),
            watermarks=BoundedOutOfOrderness(0.005),
        )
        .key_by(field_selector("sensor"), parallelism=2)
        .window(SlidingEventTimeWindows(0.04, 0.02))
        .count(name="count", parallelism=2)
        .sink(sink)
    )
    env.build()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_LAYERS):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        env.execute()
    finally:
        sys.setprofile(previous)
    return calls, sum(r.value.value for r in sink.results)


def test_keyed_window_calls_per_record_stay_within_the_bound():
    calls, counted = count_calls()
    assert counted == 2 * RECORDS  # every record lands in two windows
    assert calls <= BOUND, f"{calls / RECORDS:.2f} calls per record, bound {BOUND / RECORDS:.2f}"
