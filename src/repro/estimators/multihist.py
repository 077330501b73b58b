"""MultiHist: multi-dimensional histograms (baseline method 2).

Following Poosala & Ioannidis, correlated attribute subsets within a
table are identified (here by pairwise Pearson correlation) and
modelled jointly as multi-dimensional equi-depth histograms, removing
the attribute-value-independence assumption *within* each group.  Join
queries still use the plain uniformity assumption — the reason the
paper finds MultiHist inferior to PostgreSQL on multi-join workloads.
"""

from __future__ import annotations

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator


class _MultiDimHistogram:
    """Equi-depth-per-dimension product-binned histogram."""

    def __init__(self, data: np.ndarray, columns: tuple[str, ...], bins_per_dim: int):
        self.columns = columns
        self.edges = []
        for dim in range(data.shape[1]):
            quantiles = np.linspace(0.0, 1.0, bins_per_dim + 1)
            edges = np.unique(np.quantile(data[:, dim], quantiles))
            if len(edges) < 2:
                edges = np.array([edges[0], edges[0] + 1.0])
            self.edges.append(edges)
        self.counts, _ = np.histogramdd(data, bins=self.edges)
        self.total = len(data)

    def selectivity(self, intervals: dict[str, tuple[float, float]]) -> float:
        """Fraction of rows inside the per-column intervals.

        Bins partially covered by an interval contribute fractionally
        (uniformity within a bin, per dimension).
        """
        if self.total == 0:
            return 0.0
        weights = self.counts.astype(float)
        for dim, column in enumerate(self.columns):
            if column not in intervals:
                continue
            low, high = intervals[column]
            edges = self.edges[dim]
            coverage = _bin_coverage(edges, low, high)
            shape = [1] * weights.ndim
            shape[dim] = len(coverage)
            weights = weights * coverage.reshape(shape)
        return float(weights.sum() / self.total)

    def nbytes(self) -> int:
        return self.counts.nbytes + sum(e.nbytes for e in self.edges)


def _bin_coverage(edges: np.ndarray, low: float, high: float) -> np.ndarray:
    """Per-bin covered fraction of ``[low, high]`` over histogram bins."""
    lefts = edges[:-1].astype(float)
    rights = edges[1:].astype(float)
    widths = np.maximum(rights - lefts, 1e-12)
    if high <= low:
        # Point predicate: one value inside its containing bin.
        coverage = np.zeros(len(lefts))
        idx = int(np.clip(np.searchsorted(edges, low, side="right") - 1, 0, len(lefts) - 1))
        if float(edges[0]) <= low <= float(edges[-1]):
            coverage[idx] = 1.0 / max(widths[idx], 1.0)
        return coverage
    overlap = np.minimum(rights, high) - np.maximum(lefts, low)
    coverage = np.clip(overlap / widths, 0.0, 1.0)
    return coverage


class MultiHistEstimator(CardinalityEstimator):
    """Correlated-group multi-dimensional histograms."""

    name = "MultiHist"

    def __init__(
        self,
        correlation_threshold: float = 0.3,
        max_dims: int = 3,
        bins_per_dim: int = 12,
    ):
        super().__init__()
        self._threshold = correlation_threshold
        self._max_dims = max_dims
        self._bins = bins_per_dim
        self._histograms: dict[str, list[_MultiDimHistogram]] = {}
        self._rows: dict[str, int] = {}
        self._null_frac: dict[tuple[str, str], float] = {}
        self._ndv: dict[tuple[str, str], int] = {}

    def _fit(self, database: Database) -> None:
        self._histograms = {}
        self._rows = {}
        for name, table in database.tables.items():
            self._rows[name] = table.num_rows
            columns = [c.name for c in table.schema.filterable_columns]
            groups = self._correlated_groups(table, columns)
            histograms = []
            for group in groups:
                data = np.column_stack(
                    [
                        np.where(
                            table.column(c).null_mask,
                            np.nan,
                            table.column(c).values.astype(float),
                        )
                        for c in group
                    ]
                )
                data = data[~np.isnan(data).any(axis=1)]
                if len(data) == 0:
                    continue
                histograms.append(_MultiDimHistogram(data, tuple(group), self._bins))
            self._histograms[name] = histograms
            for column in table.schema.column_names:
                col = table.column(column)
                self._null_frac[(name, column)] = (
                    float(col.null_mask.mean()) if table.num_rows else 0.0
                )
                self._ndv[(name, column)] = len(np.unique(col.non_null_values()))

    def _correlated_groups(self, table, columns: list[str]) -> list[list[str]]:
        """Greedy grouping of columns with |Pearson| above the threshold."""
        remaining = list(columns)
        groups: list[list[str]] = []
        while remaining:
            seed = remaining.pop(0)
            group = [seed]
            for other in list(remaining):
                if len(group) >= self._max_dims:
                    break
                if self._correlation(table, seed, other) > self._threshold:
                    group.append(other)
                    remaining.remove(other)
            groups.append(group)
        return groups

    @staticmethod
    def _correlation(table, a: str, b: str) -> float:
        col_a, col_b = table.column(a), table.column(b)
        both = ~col_a.null_mask & ~col_b.null_mask
        if both.sum() < 3:
            return 0.0
        x, y = col_a.values[both], col_b.values[both]
        if x.std() == 0 or y.std() == 0:
            return 0.0
        return abs(float(np.corrcoef(x, y)[0, 1]))

    # -- estimation -----------------------------------------------------------

    def estimate_batch(self, queries: list[Query]) -> list[float]:
        """Batched estimation sharing per-table / per-edge factors.

        Sub-plan queries repeat (table, predicates) filters and join
        edges across subsets; each distinct histogram walk and join
        selectivity is computed once and recombined per query, in
        sorted table order then edge order.
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
                    card = table_cache[key] = self._table_cardinality(
                        table, predicates
                    )
                estimate *= card
            for edge in query.join_edges:
                selectivity = edge_cache.get(edge)
                if selectivity is None:
                    selectivity = edge_cache[edge] = self._join_selectivity(edge)
                estimate *= selectivity
            estimates.append(max(estimate, 0.0))
        return estimates

    def _table_cardinality(self, table: str, predicates: tuple[Predicate, ...]) -> float:
        intervals = {p.column: p.interval() for p in predicates}
        selectivity = 1.0
        # Columns without a histogram (e.g. all-NULL) add no factor.
        for histogram in self._histograms[table]:
            relevant = {c: r for c, r in intervals.items() if c in histogram.columns}
            if relevant:
                selectivity *= histogram.selectivity(relevant)
        # NULLs never satisfy predicates.
        for predicate in predicates:
            selectivity *= 1.0 - self._null_frac[(table, predicate.column)]
        return self._rows[table] * selectivity

    def _join_selectivity(self, edge: JoinEdge) -> float:
        left_nd = self._ndv[(edge.left, edge.left_column)]
        right_nd = self._ndv[(edge.right, edge.right_column)]
        if left_nd == 0 or right_nd == 0:
            return 0.0
        left_nn = 1.0 - self._null_frac[(edge.left, edge.left_column)]
        right_nn = 1.0 - self._null_frac[(edge.right, edge.right_column)]
        return left_nn * right_nn / max(left_nd, right_nd)

    def model_size_bytes(self) -> int:
        return sum(
            histogram.nbytes()
            for histograms in self._histograms.values()
            for histogram in histograms
        )
