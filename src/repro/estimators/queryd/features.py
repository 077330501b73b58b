"""Query featurization shared by the query-driven estimators.

A schema-level :class:`QueryFeaturizer` maps queries to

- a *flat* fixed-width vector (LW-NN / LW-XGB / UAE-Q): table and
  join-edge one-hots plus, per filterable column, a presence flag and
  the normalized canonical interval ``[low, high]``;
- a *set* representation (MSCN): separate variable-length lists of
  table one-hots, join one-hots, and per-predicate
  ``(column one-hot, operator one-hot, normalized value)`` vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.query import Query

OPERATORS = ("=", "<=", ">=", "between", "in")


def _edge_key(edge: JoinEdge) -> tuple:
    return tuple(sorted(((edge.left, edge.left_column), (edge.right, edge.right_column))))


@dataclass
class SetFeatures:
    """MSCN's three input sets for one query."""

    tables: np.ndarray  # (num_tables, T)
    joins: np.ndarray  # (num_joins or 1, E)
    predicates: np.ndarray  # (num_predicates or 1, C + len(OPERATORS) + 2)


class QueryFeaturizer:
    """Schema-derived featurization of benchmark queries.

    When ``baseline`` is given (any fitted estimator), its
    log-estimate is appended to the flat vector — the "heuristic
    estimator output" feature of Dutt et al.'s lightweight models,
    which turns the regression into residual learning on top of the
    baseline.
    """

    def __init__(self, database: Database, baseline=None):
        self._baseline = baseline
        self.table_names = sorted(database.tables)
        self._table_index = {name: i for i, name in enumerate(self.table_names)}
        self.edge_keys = sorted(_edge_key(e) for e in database.join_graph.edges)
        self._edge_index = {key: i for i, key in enumerate(self.edge_keys)}
        self.columns = sorted(
            (name, meta.name)
            for name, table in database.tables.items()
            for meta in table.schema.filterable_columns
        )
        self._column_index = {col: i for i, col in enumerate(self.columns)}
        self._bounds: dict[tuple[str, str], tuple[float, float]] = {}
        for name, column in self.columns:
            values = database.tables[name].column(column).non_null_values()
            if len(values):
                self._bounds[(name, column)] = (float(values.min()), float(values.max()))
            else:
                self._bounds[(name, column)] = (0.0, 1.0)
        self.table_sizes = {
            name: table.num_rows for name, table in database.tables.items()
        }
        # Template flat vector: unfiltered columns read as the full
        # range ``[0, 1]``, so only touched slots need writing per query.
        offset = self.num_tables + self.num_edges
        self._flat_template = np.zeros(self.flat_dim, dtype=np.float64)
        self._flat_template[offset + 2 : offset + 3 * self.num_columns : 3] = 1.0

    # -- dimensions ---------------------------------------------------------------

    @property
    def num_tables(self) -> int:
        return len(self.table_names)

    @property
    def num_edges(self) -> int:
        return len(self.edge_keys)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def flat_dim(self) -> int:
        base = self.num_tables + self.num_edges + 3 * self.num_columns
        return base + (1 if self._baseline is not None else 0)

    @property
    def predicate_dim(self) -> int:
        return self.num_columns + len(OPERATORS) + 2

    # -- encodings ------------------------------------------------------------------

    def _normalize(self, table: str, column: str, value: float) -> float:
        low, high = self._bounds[(table, column)]
        if not math.isfinite(value):
            return 0.0 if value < 0 else 1.0
        if high <= low:
            return 0.5
        return min(1.0, max(0.0, (value - low) / (high - low)))

    def query_intervals(self, query: Query) -> dict[tuple[str, str], tuple[float, float]]:
        """Intersected canonical interval per filtered column."""
        intervals: dict[tuple[str, str], tuple[float, float]] = {}
        for predicate in query.predicates:
            key = (predicate.table, predicate.column)
            low, high = predicate.interval()
            if key in intervals:
                old_low, old_high = intervals[key]
                intervals[key] = (max(low, old_low), min(high, old_high))
            else:
                intervals[key] = (low, high)
        return intervals

    def _fill_flat(self, vector: np.ndarray, query: Query) -> None:
        """Write one query's structure into a template-initialized row."""
        for table in query.tables:
            vector[self._table_index[table]] = 1.0
        offset = self.num_tables
        for edge in query.join_edges:
            index = self._edge_index.get(_edge_key(edge))
            if index is not None:
                vector[offset + index] = 1.0
        offset += self.num_edges
        for (table, column), (low, high) in self.query_intervals(query).items():
            base = offset + 3 * self._column_index[(table, column)]
            vector[base] = 1.0
            vector[base + 1] = self._normalize(table, column, low)
            vector[base + 2] = self._normalize(table, column, high)

    def flat_batch(self, queries: list[Query]) -> np.ndarray:
        """Fixed-width feature vectors, one row per query; the baseline
        feature is priced by one ``estimate_batch`` call."""
        if not queries:
            return np.zeros((0, self.flat_dim), dtype=np.float64)
        matrix = np.tile(self._flat_template, (len(queries), 1))
        for vector, query in zip(matrix, queries):
            self._fill_flat(vector, query)
        if self._baseline is not None:
            matrix[:, -1] = [
                log_cardinality(float(estimate))
                for estimate in self._baseline.estimate_batch(list(queries))
            ]
        return matrix

    def sets(self, query: Query) -> SetFeatures:
        """MSCN's set representation."""
        tables = np.zeros((max(query.num_tables, 1), self.num_tables))
        for i, table in enumerate(sorted(query.tables)):
            tables[i, self._table_index[table]] = 1.0

        joins = np.zeros((max(len(query.join_edges), 1), self.num_edges))
        for i, edge in enumerate(query.join_edges):
            index = self._edge_index.get(_edge_key(edge))
            if index is not None:
                joins[i, index] = 1.0

        predicates = np.zeros((max(query.num_predicates, 1), self.predicate_dim))
        for i, predicate in enumerate(query.predicates):
            col = self._column_index[(predicate.table, predicate.column)]
            predicates[i, col] = 1.0
            op_index = OPERATORS.index(predicate.op if predicate.op in OPERATORS else "between")
            predicates[i, self.num_columns + op_index] = 1.0
            low, high = predicate.interval()
            predicates[i, -2] = self._normalize(predicate.table, predicate.column, low)
            predicates[i, -1] = self._normalize(predicate.table, predicate.column, high)
        return SetFeatures(tables=tables, joins=joins, predicates=predicates)

    def max_cardinality(self, query: Query) -> float:
        """Product of the joined tables' sizes (estimate clamp)."""
        product = 1.0
        for table in query.tables:
            product *= max(self.table_sizes[table], 1)
        return product


def log_cardinality(value: float) -> float:
    """Training target: natural log of (cardinality + 1)."""
    return math.log(max(value, 0.0) + 1.0)


def from_log(value: float) -> float:
    return max(math.exp(value) - 1.0, 0.0)
