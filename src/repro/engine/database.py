"""Database: a set of tables plus the schema join graph and indexes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.catalog import JoinGraph
from repro.engine.join_build import JoinBuild
from repro.engine.table import Table


@dataclass
class Database:
    """All tables of one benchmark dataset plus its join graph.

    Indexes over join-key columns are built lazily and invalidated on
    insert, mirroring how the benchmark's PostgreSQL instance keeps
    B-tree indexes on every key column.
    """

    name: str
    tables: dict[str, Table]
    join_graph: JoinGraph
    _indexes: dict[tuple[str, str], JoinBuild] = field(default_factory=dict)
    #: Monotone content version, bumped on every insert.  Result-reuse
    #: caches (:class:`repro.core.truecards.TrueCardinalityService`'s)
    #: compare it on access and drop stale entries, so the Table-6
    #: update path invalidates them without explicit plumbing.
    data_version: int = 0

    def table(self, name: str) -> Table:
        return self.tables[name]

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.tables))

    def index(self, table: str, column: str) -> JoinBuild:
        """Sorted key index over ``table.column``, built on first use.

        A :class:`JoinBuild` over the column's non-NULL rows: the rows
        whose key equals probe ``k`` are ``positions[s : s + c]`` for
        ``(s, c)`` from ``match``, in row order within a key.
        """
        key = (table, column)
        if key not in self._indexes:
            col = self.tables[table].column(column)
            self._indexes[key] = JoinBuild(col.values, ~col.null_mask, 0)
        return self._indexes[key]

    def insert(self, table: str, rows: Table) -> None:
        """Append ``rows`` to ``table`` (the Table 6 update scenario)."""
        self.tables[table] = self.tables[table].append(rows)
        stale = [key for key in self._indexes if key[0] == table]
        for key in stale:
            del self._indexes[key]
        self.data_version += 1

    def total_rows(self) -> int:
        return sum(table.num_rows for table in self.tables.values())

    def nbytes(self) -> int:
        return sum(table.nbytes() for table in self.tables.values())

    def key_columns(self, table: str) -> tuple[str, ...]:
        """Join-key columns of ``table`` according to the join graph."""
        keys: set[str] = set()
        for edge in self.join_graph.edges_of(table):
            keys.add(edge.key_for(table))
        return tuple(sorted(keys))

    def sample_rows(self, table: str, n: int, rng: np.random.Generator) -> Table:
        """Uniform random sample (without replacement) of rows."""
        source = self.tables[table]
        size = min(n, source.num_rows)
        indices = rng.choice(source.num_rows, size=size, replace=False)
        return source.take(indices)
