"""Windowing: assigners, triggers, evictors, sliding aggregation."""

from repro.windows.aggregations import (
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregateOp,
    NaiveSlidingAggregator,
    PaneSlidingAggregator,
    SlidingAggregator,
    TwoStacksSlidingAggregator,
    run_slider,
)
from repro.windows.assigners import (
    EventTimeSessionWindows,
    GlobalWindows,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
    WindowAssigner,
)
from repro.windows.core import GLOBAL_WINDOW, CountWindow, GlobalWindow, TimeWindow
from repro.windows.evictors import CountEvictor, Evictor
from repro.windows.operator import (
    AggregateFunction,
    LATE_OUTPUT_TAG,
    ProcessWindowFunction,
    WindowFunction,
    WindowOperator,
    WindowResult,
)
from repro.windows.stream import WindowedStream
from repro.windows.triggers import (
    CountTrigger,
    EarlyFiringTrigger,
    EventTimeTrigger,
    NeverTrigger,
    PunctuationTrigger,
    Trigger,
    TriggerResult,
)

__all__ = [
    "AggregateFunction",
    "AggregateOp",
    "COUNT",
    "CountEvictor",
    "CountTrigger",
    "CountWindow",
    "EarlyFiringTrigger",
    "EventTimeSessionWindows",
    "EventTimeTrigger",
    "Evictor",
    "GLOBAL_WINDOW",
    "GlobalWindow",
    "GlobalWindows",
    "LATE_OUTPUT_TAG",
    "MAX",
    "MIN",
    "NaiveSlidingAggregator",
    "NeverTrigger",
    "PaneSlidingAggregator",
    "ProcessWindowFunction",
    "PunctuationTrigger",
    "SUM",
    "SlidingAggregator",
    "SlidingEventTimeWindows",
    "TimeWindow",
    "Trigger",
    "TriggerResult",
    "TumblingEventTimeWindows",
    "TwoStacksSlidingAggregator",
    "WindowAssigner",
    "WindowFunction",
    "WindowOperator",
    "WindowResult",
    "WindowedStream",
]
