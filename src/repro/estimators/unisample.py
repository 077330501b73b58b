"""UniSample: uniform random sampling (baseline method 3).

Keeps a uniform per-table sample (default 10^4 rows, the paper's
setting), evaluates predicates on the sample at estimation time, and
combines tables under the join-uniformity assumption — whose error,
as the paper observes, grows rapidly with the number of joined tables.
"""

from __future__ import annotations

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.predicates import conjunction_mask
from repro.engine.query import Query
from repro.engine.table import Table
from repro.estimators.base import CardinalityEstimator


class UniSampleEstimator(CardinalityEstimator):
    """Per-table uniform samples + join uniformity."""

    name = "UniSample"

    def __init__(self, sample_size: int = 10_000, seed: int = 17):
        super().__init__()
        self._sample_size = sample_size
        self._seed = seed
        self._samples: dict[str, Table] = {}
        self._rows: dict[str, int] = {}

    def _fit(self, database: Database) -> None:
        rng = np.random.default_rng(self._seed)
        self._samples = {}
        self._rows = {}
        for name, table in database.tables.items():
            self._rows[name] = table.num_rows
            self._samples[name] = database.sample_rows(name, self._sample_size, rng)

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows: dict[str, Table]) -> None:
        """Reservoir-style refresh: mix inserted rows into the samples."""
        rng = np.random.default_rng(self._seed + 1)
        for name, delta in new_rows.items():
            if delta.num_rows == 0:
                continue
            merged = self._samples[name].append(delta)
            keep = min(self._sample_size, merged.num_rows)
            indices = rng.choice(merged.num_rows, size=keep, replace=False)
            self._samples[name] = merged.take(indices)
            self._rows[name] += delta.num_rows

    def model_size_bytes(self) -> int:
        return sum(sample.nbytes() for sample in self._samples.values())

    # -- estimation ------------------------------------------------------------

    def estimate(self, query: Query) -> float:
        estimate = 1.0
        for table in sorted(query.tables):
            estimate *= self._table_cardinality(table, query)
        for edge in query.join_edges:
            estimate *= self._join_selectivity(edge)
        return max(estimate, 0.0)

    def _table_cardinality(self, table: str, query: Query) -> float:
        sample = self._samples[table]
        if sample.num_rows == 0:
            return 0.0
        mask = conjunction_mask(sample, list(query.predicates_on(table)))
        # +0.5 smoothing: a sample miss must not produce a hard zero.
        selectivity = (mask.sum() + 0.5) / (sample.num_rows + 1.0)
        return self._rows[table] * selectivity

    def _join_selectivity(self, edge: JoinEdge) -> float:
        """Join uniformity with sample-estimated distinct counts.

        Distinct counts measured on a sample under-estimate the true
        ones, which over-estimates join selectivity — one of the two
        error sources (with predicate-sample variance) that make
        UniSample unreliable on multi-way joins.
        """
        left_nd, left_nn = self._sample_distinct(edge.left, edge.left_column)
        right_nd, right_nn = self._sample_distinct(edge.right, edge.right_column)
        if left_nd == 0 or right_nd == 0:
            return 0.0
        return left_nn * right_nn / max(left_nd, right_nd)

    def _sample_distinct(self, table: str, column: str) -> tuple[int, float]:
        sample = self._samples[table]
        col = sample.column(column)
        values = col.non_null_values()
        non_null = len(values) / sample.num_rows if sample.num_rows else 0.0
        return len(np.unique(values)), non_null
