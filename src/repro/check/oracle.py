"""SQLite reference oracle.

An independent re-implementation of the benchmark query class to check
the engine against: the whole :class:`~repro.engine.database.Database`
is loaded into an in-memory SQLite instance (stdlib ``sqlite3``, no
external dependency) and queries run through SQLite's own SQL engine.
Counts coming back are ground truth for the dialect — conjunctive
equi-joins with range/equality/IN filters under SQL NULL semantics
(``NULL = NULL`` never matches, predicates never select NULLs).

The oracle is deliberately *slow and simple*: correctness here is the
point, performance is the engine's job.
"""

from __future__ import annotations

import re
import sqlite3

import numpy as np

from repro.core.injection import sub_plan_sets
from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.planner import Planner
from repro.engine.predicates import conjunction_mask
from repro.engine.query import Query
from repro.engine.sql import query_to_sql
from repro.engine.subsets import connected_subsets
from repro.engine.types import ColumnKind

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _checked_identifier(name: str) -> str:
    """``name`` verbatim, after asserting it is a plain identifier.

    Table and column names in the benchmark dialect are always plain
    identifiers; enforcing that here keeps the oracle's DDL assembly
    trivially injection-free.
    """
    if not _IDENTIFIER.match(name):
        raise ValueError(f"{name!r} is not a valid benchmark identifier")
    return name


class SQLiteOracle:
    """An in-memory SQLite copy of one :class:`Database`.

    Usable as a context manager::

        with SQLiteOracle(database) as oracle:
            assert oracle.count_query(query) == engine_count
    """

    def __init__(self, database: Database):
        self._database = database
        self._connection = sqlite3.connect(":memory:")
        self._load(database)

    # -- loading -----------------------------------------------------------

    def _load(self, database: Database) -> None:
        cursor = self._connection.cursor()
        for name, table in database.tables.items():
            columns = []
            for meta in table.schema.columns:
                affinity = "INTEGER" if meta.kind is ColumnKind.INT else "REAL"
                columns.append(f"{_checked_identifier(meta.name)} {affinity}")
            cursor.execute(
                f"CREATE TABLE {_checked_identifier(name)} ({', '.join(columns)})"
            )
            if table.num_rows == 0:
                continue
            column_lists = []
            for meta in table.schema.columns:
                column = table.column(meta.name)
                values = column.values.tolist()  # native Python ints/floats
                for index in np.nonzero(column.null_mask)[0]:
                    values[index] = None
                column_lists.append(values)
            placeholders = ", ".join("?" for _ in column_lists)
            cursor.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})",
                list(zip(*column_lists)),
            )
        self._connection.commit()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "SQLiteOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- counting ----------------------------------------------------------

    def count(self, sql: str) -> int:
        """COUNT(*) result of one benchmark-dialect SQL string."""
        row = self._connection.execute(sql).fetchone()
        return int(row[0])

    def count_query(self, query: Query) -> int:
        """COUNT(*) of a :class:`Query`, via its rendered SQL.

        Rendering through :func:`~repro.engine.sql.query_to_sql` means
        the oracle also exercises the SQL writer: a query that renders
        to SQL SQLite rejects is itself a reportable bug.
        """
        return self.count(query_to_sql(query))

    def outer_join_count(self, edges: list[JoinEdge], root: str) -> int:
        """COUNT(*) of the ``LEFT JOIN`` chain over the tree ``edges``,
        each table joined after its parent on the way from ``root``."""
        sql, joined, remaining = f"SELECT COUNT(*) FROM {root}", {root}, list(edges)
        while remaining:
            edge = next(e for e in remaining if len(e.tables & joined) == 1)
            remaining.remove(edge)
            (child,) = edge.tables - joined
            joined.add(child)
            sql += (
                f" LEFT JOIN {child} ON {edge.left}.{edge.left_column}"
                f" = {edge.right}.{edge.right_column}"
            )
        return self.count(sql)

    def sub_plan_counts(self, query: Query) -> dict[frozenset[str], int]:
        """Oracle count of every connected sub-plan query of ``query``."""
        return {
            subset: self.count_query(query.subquery(subset))
            for subset in sub_plan_sets(query)
        }


def planned_sub_plan_cards(database: Database, query: Query) -> dict[frozenset[str], int]:
    """Exact count of every connected sub-plan of ``query``, one plan each.

    The in-engine reference for
    :class:`~repro.core.truecards.TrueCardinalityService`: smallest
    first, each subset is planned under the smaller subsets' exact
    counts and counted by executing that plan with a bare
    :class:`~repro.engine.executor.Executor`, which recomputes every
    scan and hash build.  A single table is counted from its filter
    mask.
    """
    planner = Planner(database)
    executor = Executor(database)
    cards: dict[frozenset[str], float] = {}
    for subset in connected_subsets(query):
        subquery = query.subquery(subset)
        if len(subset) == 1:
            (table,) = subset
            mask = conjunction_mask(database.tables[table], list(subquery.predicates))
            cards[subset] = float(np.count_nonzero(mask))
            continue
        # The subset's own count is still unknown; it is the same for
        # every candidate plan, so any placeholder picks the same plan.
        planned = planner.plan(subquery, {**cards, subset: 0.0})
        cards[subset] = float(executor.count(planned.plan))
    return {subset: int(count) for subset, count in cards.items()}
