"""Core data model, logical graphs, and the fluent DataStream API."""

from repro.core.datastream import (
    DataStream,
    KeyedStream,
    StreamExecutionEnvironment,
)
from repro.core.events import (
    MAX_TIMESTAMP,
    MIN_TIMESTAMP,
    CheckpointBarrier,
    EndOfStream,
    Heartbeat,
    LatencyMarker,
    Punctuation,
    Record,
    RecordBatch,
    StreamElement,
    Watermark,
    record,
)
from repro.core.graph import ChannelSpec, LogicalEdge, LogicalNode, Partitioning, StreamGraph
from repro.core.keys import (
    DEFAULT_MAX_PARALLELISM,
    field_selector,
    key_group_for,
    key_group_range,
    stable_hash,
    subtask_for_key,
)
from repro.core.serde import DEFAULT_SERDE, JsonSerde, PickleSerde, Serde

__all__ = [
    "ChannelSpec",
    "CheckpointBarrier",
    "DEFAULT_MAX_PARALLELISM",
    "DEFAULT_SERDE",
    "DataStream",
    "EndOfStream",
    "Heartbeat",
    "JsonSerde",
    "KeyedStream",
    "LatencyMarker",
    "LogicalEdge",
    "LogicalNode",
    "MAX_TIMESTAMP",
    "MIN_TIMESTAMP",
    "Partitioning",
    "PickleSerde",
    "Punctuation",
    "Record",
    "RecordBatch",
    "Serde",
    "StreamElement",
    "StreamExecutionEnvironment",
    "StreamGraph",
    "Watermark",
    "field_selector",
    "key_group_for",
    "key_group_range",
    "record",
    "stable_hash",
    "subtask_for_key",
]
