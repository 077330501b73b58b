"""Tests for schema metadata and the join graph."""

import pytest

from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.query import Query
from repro.engine.subsets import connected_subsets, plan_space
from repro.engine.types import ColumnKind


def make_graph():
    graph = JoinGraph()
    graph.add(JoinEdge("a", "id", "b", "a_id"))
    graph.add(JoinEdge("b", "id", "c", "b_id"))
    graph.add(JoinEdge("a", "id", "d", "a_id"))
    return graph


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TableSchema("t", (ColumnMeta("x"), ColumnMeta("x")))

    def test_primary_key_must_exist(self):
        with pytest.raises(ValueError, match="primary key"):
            TableSchema("t", (ColumnMeta("x"),), primary_key="y")

    def test_column_lookup(self):
        schema = TableSchema("t", (ColumnMeta("x", ColumnKind.FLOAT),))
        assert schema.column("x").kind is ColumnKind.FLOAT
        with pytest.raises(KeyError):
            schema.column("missing")

    def test_filterable_excludes_keys(self):
        schema = TableSchema(
            "t",
            (ColumnMeta("id", is_key=True), ColumnMeta("v"), ColumnMeta("w", filterable=False)),
        )
        assert [c.name for c in schema.filterable_columns] == ["v"]

    def test_width(self):
        schema = TableSchema("t", (ColumnMeta("a"), ColumnMeta("b")))
        assert schema.width == 2


class TestJoinEdge:
    def test_self_join_rejected(self):
        with pytest.raises(ValueError):
            JoinEdge("a", "x", "a", "y")

    def test_key_for_and_other(self):
        edge = JoinEdge("a", "id", "b", "a_id")
        assert edge.key_for("a") == "id"
        assert edge.key_for("b") == "a_id"
        assert edge.other("a") == "b"
        with pytest.raises(KeyError):
            edge.key_for("c")

    def test_reversed_swaps_sides(self):
        edge = JoinEdge("a", "id", "b", "a_id", one_to_many=True)
        back = edge.reversed()
        assert back.left == "b" and back.right == "a"
        assert back.one_to_many is True
        assert back.reversed() == edge


class TestJoinGraph:
    def test_tables_and_neighbors(self):
        graph = make_graph()
        assert graph.tables == frozenset("abcd")
        assert graph.neighbors("a") == frozenset({"b", "d"})

    def test_edges_between(self):
        graph = make_graph()
        assert len(graph.edges_between("a", "b")) == 1
        assert graph.edges_between("a", "c") == []

    # Connectivity over a join graph has one implementation,
    # repro.engine.subsets; these cases pin it on the schema graph.
    def test_connected(self):
        graph = make_graph()
        subsets = plan_space(graph.tables, tuple(graph.edges)).subsets
        assert frozenset({"a", "b", "c"}) in subsets
        assert frozenset({"c", "d"}) not in subsets
        assert frozenset({"a"}) in subsets
        assert frozenset() not in subsets

    def test_connected_with_restricted_edges(self):
        graph = make_graph()
        only_ab = (graph.edges[0],)
        subsets = plan_space(frozenset({"a", "b", "c"}), only_ab).subsets
        assert frozenset({"a", "b"}) in subsets
        assert frozenset({"a", "b", "c"}) not in subsets

    def test_connected_subsets_is_subplan_space(self):
        graph = make_graph()
        query = Query(tables=frozenset({"a", "b", "c"}), join_edges=tuple(graph.edges[:2]))
        expected = {
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
            frozenset({"a", "b", "c"}),
        }
        assert set(connected_subsets(query)) == expected

    def test_join_form_chain(self):
        graph = make_graph()
        assert graph.join_form(frozenset({"a", "b", "c"})) == "chain"

    def test_join_form_star(self):
        graph = JoinGraph()
        for satellite in ("b", "c", "d", "e"):
            graph.add(JoinEdge("a", "id", satellite, "a_id"))
        assert graph.join_form(frozenset({"a", "b", "c", "d"})) == "star"

    def test_join_form_mixed(self):
        graph = make_graph()
        graph.add(JoinEdge("c", "id", "e", "c_id"))
        graph.add(JoinEdge("a", "id", "f", "a_id"))
        form = graph.join_form(frozenset({"a", "b", "c", "d", "e", "f"}))
        assert form == "mixed"
