"""Tests for the join tree's outer-join weights against nested loops."""

import numpy as np
import pytest

from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.database import Database
from repro.engine.jointree import JoinTree
from repro.engine.table import Table
from repro.engine.types import ColumnKind

#: Every column, ``None`` for NULL.  ``a.id`` has a NULL and an unmatched
#: key (3); ``b.a_id`` has a NULL, a dangling key (9) and two rows of
#: key 1; ``c.b_id`` has a NULL, a dangling key (99) and three rows of
#: key 1, while ``b`` keys 11, 13 and 14 match no ``c`` row.
ROWS = {
    "a": {"id": [1, 2, None, 3]},
    "b": {"id": [1, 11, 12, 13, 14], "a_id": [1, 1, 2, None, 9]},
    "c": {"b_id": [1, 1, 1, 12, None, 99]},
}
#: Stored under every NULL: a key the other side of each edge holds, so
#: a NULL that were matched would show.
NULL_FILL = 1
EDGES = [JoinEdge("a", "id", "b", "a_id"), JoinEdge("b", "id", "c", "b_id")]


def three_table_db(kind: ColumnKind = ColumnKind.INT) -> Database:
    graph = JoinGraph()
    for edge in EDGES:
        graph.add(edge)
    tables = {}
    for name, columns in ROWS.items():
        schema = TableSchema(
            name, tuple(ColumnMeta(c, kind=kind, is_key=True, filterable=False) for c in columns)
        )
        tables[name] = Table.from_arrays(
            schema,
            {c: np.array([NULL_FILL if v is None else v for v in vs]) for c, vs in columns.items()},
            {c: np.array([v is None for v in vs]) for c, vs in columns.items()},
        )
    return Database(name="three", tables=tables, join_graph=graph)


def outer_join_rows(table: str, row: int, parent: str | None) -> list[dict]:
    """Rows of the outer join of ``table``'s subtree that keep ``row``."""
    joined = [{table: row}]
    for edge in EDGES:
        if table not in edge.tables or edge.other(table) == parent:
            continue
        child = edge.other(table)
        key = ROWS[table][edge.key_for(table)][row]
        child_keys = ROWS[child][edge.key_for(child)]
        extensions = [
            extension
            for child_row, child_key in enumerate(child_keys)
            if key is not None and child_key == key
            for extension in outer_join_rows(child, child_row, table)
        ] or [{}]  # no match: NULL-extended
        joined = [{**left, **right} for left in joined for right in extensions]
    return joined


def parents_from(root: str) -> dict[str, str | None]:
    parents, frontier = {root: None}, [root]
    while frontier:
        table = frontier.pop(0)
        for edge in EDGES:
            if table in edge.tables and edge.other(table) not in parents:
                parents[edge.other(table)] = table
                frontier.append(edge.other(table))
    return parents


def brute_force_weights(root: str) -> dict[str, list[int]]:
    weights = {}
    for table, parent in parents_from(root).items():
        num_rows = len(next(iter(ROWS[table].values())))
        weights[table] = [len(outer_join_rows(table, row, parent)) for row in range(num_rows)]
    return weights


@pytest.mark.parametrize("kind", [ColumnKind.INT, ColumnKind.FLOAT])
@pytest.mark.parametrize("root", ["a", "b", "c"])
def test_weights_match_nested_loops(root, kind):
    tree = JoinTree(three_table_db(kind), EDGES, root)
    expected = brute_force_weights(root)
    assert {t: w.tolist() for t, w in tree.weights.items()} == expected
    assert tree.total == sum(expected[root])


def test_orientation_and_matches():
    tree = JoinTree(three_table_db(), EDGES, "b")
    assert list(tree.children) == ["b", "a", "c"]
    assert [child.edge for child in tree.children["b"]] == [EDGES[0].reversed(), EDGES[1]]
    to_c = tree.children["b"][1]
    assert to_c.counts.tolist() == [3, 0, 1, 0, 0]
    # Parent row 0 (key 1) joins c rows 0-2 in row order.
    start, count = to_c.starts[0], to_c.counts[0]
    assert to_c.build.positions[start : start + count].tolist() == [0, 1, 2]
    # NULL parent key (b row 3) matches nothing even though the child has NULLs.
    assert tree.children["b"][0].counts.tolist() == [1, 1, 1, 0, 0]


def test_single_table_tree():
    tree = JoinTree(three_table_db(), [], "c")
    assert tree.children == {"c": []}
    assert tree.weights["c"].tolist() == [1.0] * 6
    assert tree.total == 6.0
