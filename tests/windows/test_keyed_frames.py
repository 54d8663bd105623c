"""A deterministic guard on the per-record cost of keyed state and windows.

The job source -> key_by -> sliding-window count -> sink runs under
``sys.setprofile``; every Python call into ``repro/windows``,
``repro/state`` and ``repro/core`` is counted. Call counts repeat exactly
for a fixed input, so the bound carries no wall-clock noise: a change that
puts a frame back on the keyed path (a state handle's method around a
backend access, ``_is_expired``, the base trigger's ``on_element``, the
``fires``/``purges`` properties, an ``AggregateFunction`` method around the
user callable, the key-group and subtask frames inside ``subtask_for_key``,
the watermark trigger's ``on_event_time`` per fire) raises the count by a
multiple of the record count and fails here. (The bound is this tree's
count; the tree before keyed operators reached state directly made 17 301
calls, and the one before the fire decided the watermark trigger inline
9 172.)

The same run counts ``TimeWindow.__init__`` calls, which the layer count
cannot see (a dataclass's generated methods are not filed under the
package): the assigner builds each slide's windows once, not per record.
"""

from __future__ import annotations

import math
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
from repro.windows.core import TimeWindow

RECORDS = 500
#: Python calls into repro/windows, repro/state and repro/core for the run
BOUND = 9_011

_LAYERS = tuple(
    os.path.dirname(module.__file__) + os.sep for module in (repro.windows, repro.state, repro.core)
)


SIZE, SLIDE = 0.04, 0.02
_INIT = TimeWindow.__init__.__code__


def _workload() -> SensorWorkload:
    return SensorWorkload(count=RECORDS, rate=2000.0, key_count=8, disorder=0.002, seed=3)


def count_calls() -> tuple[int, int, int]:
    """(calls into the layers, ``TimeWindow.__init__`` calls, the sum of
    the emitted window counts) for one run of the job."""
    env = StreamExecutionEnvironment(EngineConfig(seed=1))
    sink = CollectSink("out")
    (
        env.from_workload(_workload(), watermarks=BoundedOutOfOrderness(0.005))
        .key_by(field_selector("sensor"), parallelism=2)
        .window(SlidingEventTimeWindows(SIZE, SLIDE))
        .count(name="count", parallelism=2)
        .sink(sink)
    )
    env.build()
    calls = inits = 0

    def profile(frame, event, _arg):
        nonlocal calls, inits
        if event == "call":
            code = frame.f_code
            if code is _INIT:
                inits += 1
            elif code.co_filename.startswith(_LAYERS):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        env.execute()
    finally:
        sys.setprofile(previous)
    return calls, inits, sum(r.value.value for r in sink.results)


def test_keyed_window_calls_per_record_stay_within_the_bound():
    calls, _inits, counted = count_calls()
    assert counted == 2 * RECORDS  # every record lands in two windows
    assert calls <= BOUND, f"{calls / RECORDS:.2f} calls per record, bound {BOUND / RECORDS:.2f}"


def test_each_slide_builds_its_windows_once():
    _calls, inits, _counted = count_calls()
    slides = {math.floor(event.event_time / SLIDE) for event in _workload().events()}
    bound = round(SIZE / SLIDE) * len(slides)
    assert inits <= bound, f"{inits} TimeWindow inits for {len(slides)} slides, bound {bound}"
