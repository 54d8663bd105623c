"""Streaming graph processing (survey §4.1)."""

from repro.graphs.connectivity import IncrementalComponents, RecomputeComponents, UnionFind
from repro.graphs.operator import GraphStreamOperator
from repro.graphs.paths import IncrementalSSSP, RecomputeSSSP
from repro.graphs.stream import DynamicGraph, EdgeEvent

__all__ = [
    "DynamicGraph",
    "EdgeEvent",
    "GraphStreamOperator",
    "IncrementalComponents",
    "IncrementalSSSP",
    "RecomputeComponents",
    "RecomputeSSSP",
    "UnionFind",
]
