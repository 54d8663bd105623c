"""Dataflow operators."""

from repro.core.operators.base import Operator, OperatorContext
from repro.core.operators.basic import (
    AggregatingOperator,
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    ProcessOperator,
    ReduceOperator,
    SinkOperator,
    UnionOperator,
)
from repro.core.operators.chain import ChainedOperator

__all__ = [
    "AggregatingOperator",
    "ChainedOperator",
    "FilterOperator",
    "FlatMapOperator",
    "KeyByOperator",
    "MapOperator",
    "Operator",
    "OperatorContext",
    "ProcessOperator",
    "ReduceOperator",
    "SinkOperator",
    "UnionOperator",
]
