"""Tests for edge key codes and the join tree's outer-join weights and
fan-out degrees against nested loops."""

import numpy as np
import pytest

from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.database import Database
from repro.engine.jointree import EdgeCodes, JoinTree
from repro.engine.table import Column, Table
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
INT64 = np.iinfo(np.int64)


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


def brute_force_degrees(edge: JoinEdge, table: str) -> list[int]:
    """Rows of ``edge``'s other table matching each row of ``table``,
    at least 1."""
    other_keys = ROWS[edge.other(table)][edge.key_for(edge.other(table))]
    return [
        max(sum(key is not None and other == key for other in other_keys), 1)
        for key in ROWS[table][edge.key_for(table)]
    ]


@pytest.mark.parametrize("kind", [ColumnKind.INT, ColumnKind.FLOAT])
@pytest.mark.parametrize("root", ["a", "b", "c"])
def test_fanout_degrees_match_nested_loops(root, kind):
    tree = JoinTree(three_table_db(kind), EDGES, root)
    for children in tree.children.values():
        for child in children:
            assert child.forward.tolist() == brute_force_degrees(child.edge, child.edge.left)
            assert child.reverse.tolist() == brute_force_degrees(child.edge, child.edge.right)


def test_orientation_and_matches():
    tree = JoinTree(three_table_db(), EDGES, "b")
    assert list(tree.children) == ["b", "a", "c"]
    assert [child.edge for child in tree.children["b"]] == [EDGES[0].reversed(), EDGES[1]]
    to_c = tree.children["b"][1]
    assert to_c.counts.tolist() == [3, 0, 1, 0, 0]
    # Parent row 0 (key 1) joins c rows 0-2 in row order.
    start, count = to_c.starts[0], to_c.counts[0]
    assert to_c.positions[start : start + count].tolist() == [0, 1, 2]
    # NULL parent key (b row 3) matches nothing even though the child has NULLs.
    assert tree.children["b"][0].counts.tolist() == [1, 1, 1, 0, 0]


def test_single_table_tree():
    tree = JoinTree(three_table_db(), [], "c")
    assert tree.children == {"c": []}
    assert tree.weights["c"].tolist() == [1.0] * 6
    assert tree.total == 6.0


def test_key_domain_codes():
    """A dense INT edge codes ``value - kmin``; a sparse one and a FLOAT
    one code ranks; NULLs take one bin per side."""

    def domain(left, right, nulls=None):
        null_mask = np.zeros(len(left), dtype=bool) if nulls is None else nulls
        return EdgeCodes(
            Column(np.asarray(left), null_mask), Column.from_values(np.asarray(right))
        )

    dense = domain([7, 5, 9, 0], [6, 5], nulls=np.array([0, 0, 0, 1], dtype=bool))
    assert dense.left.tolist() == [2, 0, 4, 5] and dense.right.tolist() == [1, 0]
    assert dense.size == 7
    sparse = domain([INT64.min, INT64.max], [INT64.max, 0])
    assert sparse.left.tolist() == [0, 2] and sparse.right.tolist() == [2, 1]
    assert sparse.size == 5
    floats = domain([0.5, 0.25], [0.5])
    assert floats.left.tolist() == [1, 0] and floats.right.tolist() == [1]
    empty = domain(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert empty.size == 2
