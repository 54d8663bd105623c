"""A window operator fused into a chain visits every key's state, as an
unchained one does: at end of input (residual global/count windows) and on
a punctuation (punctuation-closed windows). A chain member reaches its
state through a member-scoped descriptor, so both visits list keys through
the context (``ctx.state_keys``), never through the task's backend.
"""

from __future__ import annotations

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io import SensorWorkload
from repro.progress.punctuations import PunctuationInjector
from repro.runtime.config import EngineConfig
from repro.windows import CountTrigger, GlobalWindows, PunctuationTrigger, TumblingEventTimeWindows
from repro.windows.triggers import TriggerResult


class _PunctuationOnly(PunctuationTrigger):
    """Closes windows on punctuations alone: watermarks never fire them."""

    def on_event_time(self, timestamp, window):
        return TriggerResult.CONTINUE


def _rows(window, chaining: bool, punctuate: bool = False):
    env = StreamExecutionEnvironment(EngineConfig(seed=2, chaining_enabled=chaining))
    stream = env.from_workload(SensorWorkload(count=50, rate=1000.0, key_count=3, seed=4))
    if punctuate:
        stream = stream.apply_operator(lambda: PunctuationInjector(every_n=10), name="punctuate")
    sink = window(stream.key_by(field_selector("sensor"))).map(lambda r: r, name="after").collect()
    engine = env.build()
    env.execute()
    fused = any("->" in name for name in engine.tasks)
    return fused, sorted(
        (r.key, r.event_time, r.value.start, r.value.end, r.value.value) for r in sink.results
    )


def test_residual_count_windows_flush_from_a_chain():
    def window(keyed):
        return keyed.window(GlobalWindows(), trigger=CountTrigger(7)).count()

    fused, chained = _rows(window, chaining=True)
    unfused, unchained = _rows(window, chaining=False)
    assert fused and not unfused
    assert chained == unchained
    assert len(unchained) == 8
    assert sum(row[-1] for row in unchained) == 50


def test_punctuation_closes_windows_in_a_chain():
    def window(keyed):
        return keyed.window(TumblingEventTimeWindows(0.01), trigger=_PunctuationOnly()).count()

    fused, chained = _rows(window, chaining=True, punctuate=True)
    unfused, unchained = _rows(window, chaining=False, punctuate=True)
    assert fused and not unfused
    assert unchained  # punctuations closed windows
    assert chained == unchained
