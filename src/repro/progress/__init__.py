"""Progress tracking mechanisms (survey §2.3) and out-of-order handling (§2.2).

Five mechanisms, one per surveyed lineage:

* watermarks (Dataflow/MillWheel) — :mod:`repro.progress.watermarks`
* punctuations (Tucker et al.) — :mod:`repro.progress.punctuations`
* heartbeats (STREAM) — source-driven, see
  :class:`repro.runtime.task.SourceTask` ``heartbeat_interval``
* slack (Aurora) — :mod:`repro.progress.slack`
* frontiers (Naiad) — :mod:`repro.progress.frontiers` (oracle watermarks)
"""

from repro.progress.frontiers import OracleWatermarks
from repro.progress.ooo import DisorderStats, KSlackBufferOperator, disorder_profile
from repro.progress.punctuations import PunctuationFilter, PunctuationInjector
from repro.progress.slack import SlackReorderOperator
from repro.progress.watermarks import (
    AscendingTimestamps,
    BoundedOutOfOrderness,
    NoWatermarks,
    ProcessingTimeLag,
    PunctuatedWatermarks,
    WatermarkMerger,
    WatermarkStrategy,
)

__all__ = [
    "AscendingTimestamps",
    "BoundedOutOfOrderness",
    "DisorderStats",
    "KSlackBufferOperator",
    "NoWatermarks",
    "OracleWatermarks",
    "ProcessingTimeLag",
    "PunctuatedWatermarks",
    "PunctuationFilter",
    "PunctuationInjector",
    "SlackReorderOperator",
    "WatermarkMerger",
    "WatermarkStrategy",
    "disorder_profile",
]
