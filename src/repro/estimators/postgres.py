"""The PostgreSQL built-in estimator (baseline method 1).

Mirrors PostgreSQL's selectivity machinery: per-attribute 1-D
statistics (MCV lists plus equi-depth histograms) combined under the
attribute-independence assumption, and ``eqjoinsel``-style equi-join
selectivity with MCV-list matching — the "high-quality implementation
and fine-grained optimizations on join queries" the paper credits for
PostgreSQL beating the other traditional methods.
"""

from __future__ import annotations

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.engine.stats import ColumnStats, TableStats
from repro.estimators.base import CardinalityEstimator


class PostgresEstimator(CardinalityEstimator):
    """1-D histograms + MCVs + independence + eqjoinsel."""

    name = "PostgreSQL"

    def __init__(self, num_mcvs: int = 20, num_buckets: int = 50):
        super().__init__()
        self._num_mcvs = num_mcvs
        self._num_buckets = num_buckets
        self._stats: dict[str, TableStats] = {}
        self._database: Database | None = None

    def _fit(self, database: Database) -> None:
        self._database = database
        self._stats = {
            name: TableStats.build(
                table, num_mcvs=self._num_mcvs, num_buckets=self._num_buckets
            )
            for name, table in database.tables.items()
        }

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows) -> None:
        """Re-ANALYZE the (already updated) tables that received rows."""
        assert self._database is not None, "update() before fit()"
        for name, delta in new_rows.items():
            if delta.num_rows == 0:
                continue
            self._stats[name] = TableStats.build(
                self._database.tables[name],
                num_mcvs=self._num_mcvs,
                num_buckets=self._num_buckets,
            )

    def model_size_bytes(self) -> int:
        return sum(stats.nbytes() for stats in self._stats.values())

    # -- estimation -----------------------------------------------------------

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Batched estimation with shared per-table / per-edge factors.

        The sub-plan queries of one benchmark query repeat the same
        (table, predicates) filters and join edges across subsets, so
        the histogram walks and ``eqjoinsel`` computations are done
        once per distinct factor and recombined per query, in sorted
        table order then edge order, so an estimate does not depend on
        what else shares its batch.
        """
        table_cache: dict[tuple, float] = {}
        edge_cache: dict[JoinEdge, float] = {}
        estimates = []
        for query in queries:
            estimate = 1.0
            for table in sorted(query.tables):
                predicates = query.predicates_on(table)
                key = (table, predicates)
                card = table_cache.get(key)
                if card is None:
                    card = table_cache[key] = self.table_cardinality(
                        table, predicates
                    )
                estimate *= card
            for edge in query.join_edges:
                selectivity = edge_cache.get(edge)
                if selectivity is None:
                    selectivity = edge_cache[edge] = self.join_selectivity(edge)
                estimate *= selectivity
            estimates.append(max(estimate, 0.0))
        return estimates

    def table_cardinality(self, table: str, predicates: tuple[Predicate, ...]) -> float:
        stats = self._stats[table]
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.clause_selectivity(stats.columns[predicate.column], predicate)
        return stats.num_rows * selectivity

    @staticmethod
    def clause_selectivity(column: ColumnStats, predicate: Predicate) -> float:
        values = predicate.value_set()
        if values is not None:
            return min(1.0, sum(column.eq_selectivity(v) for v in values))
        low, high = predicate.interval()
        return column.range_selectivity(low, high)

    def join_selectivity(self, edge: JoinEdge) -> float:
        """``eqjoinsel``: MCV-vs-MCV matching plus the 1/max(nd) rest."""
        left = self._stats[edge.left].columns[edge.left_column]
        right = self._stats[edge.right].columns[edge.right_column]
        if left.n_distinct == 0 or right.n_distinct == 0:
            return 0.0

        matched = 0.0
        matched_left_freq = 0.0
        matched_right_freq = 0.0
        if len(left.mcv_values) and len(right.mcv_values):
            common, left_idx, right_idx = np.intersect1d(
                left.mcv_values, right.mcv_values, return_indices=True
            )
            if len(common):
                matched = float(
                    (left.mcv_freqs[left_idx] * right.mcv_freqs[right_idx]).sum()
                )
                matched_left_freq = float(left.mcv_freqs[left_idx].sum())
                matched_right_freq = float(right.mcv_freqs[right_idx].sum())

        left_rest = max(0.0, 1.0 - left.null_frac - matched_left_freq)
        right_rest = max(0.0, 1.0 - right.null_frac - matched_right_freq)
        rest_distinct = max(
            left.n_distinct - len(left.mcv_values),
            right.n_distinct - len(right.mcv_values),
            1,
        )
        selectivity = matched + left_rest * right_rest / rest_distinct
        return float(min(1.0, max(selectivity, 0.0)))
