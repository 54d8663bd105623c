"""A deterministic guard on the per-record framework cost of one hop.

The job source -> map -> key_by -> count -> sink runs under
``sys.setprofile``; every Python call into ``repro/runtime`` and
``repro/sim`` is counted. Call counts repeat exactly for a fixed input, so
the bound carries no wall-clock noise: a change that puts a frame back on
the record path (a wrapper around the service body, a gate or ``send`` frame
per element, a clock read through ``Kernel.now``, a method behind
``ctx.emit``) raises the count by a multiple of the record count and fails
here.
"""

from __future__ import annotations

import os
import sys

import repro.runtime
import repro.sim
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig

RECORDS = 500
#: Python calls into repro/runtime and repro/sim for the whole run
BOUND = 24_300

_LAYERS = tuple(os.path.dirname(module.__file__) + os.sep for module in (repro.runtime, repro.sim))


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
    return calls, len(sink.results)


def test_framework_calls_per_record_stay_within_the_bound():
    calls, rows = count_calls()
    assert rows == RECORDS
    assert calls <= BOUND, f"{calls / RECORDS:.2f} calls per record, bound {BOUND / RECORDS:.2f}"
