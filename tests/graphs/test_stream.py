"""The dynamic graph an edge stream maintains."""

import pytest

from repro.graphs.stream import DynamicGraph, EdgeEvent


class TestDynamicGraph:
    def test_insert_delete_roundtrip(self):
        graph = DynamicGraph()
        assert graph.apply(EdgeEvent("insert", "a", "b", 2.0))
        assert graph.has_edge("a", "b")
        assert graph.weight("b", "a") == 2.0
        assert graph.apply(EdgeEvent("delete", "a", "b"))
        assert not graph.has_edge("a", "b")
        assert not graph.apply(EdgeEvent("delete", "a", "b"))  # already gone

    def test_edges_enumerated_once(self):
        graph = DynamicGraph()
        graph.apply(EdgeEvent("insert", 1, 2))
        graph.apply(EdgeEvent("insert", 2, 3))
        assert graph.edge_count == 2
        assert len(list(graph.edges())) == 2

    def test_unknown_op_rejected(self):
        graph = DynamicGraph()
        with pytest.raises(ValueError):
            graph.apply(EdgeEvent("upsert", 1, 2))
