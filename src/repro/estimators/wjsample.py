"""WJSample: wander-join random walks (baseline method 4).

Implements Li et al.'s wander join: each estimate performs random
walks along the query's join tree through key indexes, weighting every
completed walk by the product of the fan-outs encountered
(Horvitz-Thompson).  Unbiased, but — as the paper observes — the
variance explodes for joins of many tables, where a small walk budget
cannot capture the data distribution.
"""

from __future__ import annotations

import numpy as np

from repro.engine.catalog import JoinEdge
from repro.engine.database import Database
from repro.engine.predicates import conjunction_mask
from repro.engine.query import Query
from repro.estimators.base import CardinalityEstimator, stable_hash


class WanderJoinEstimator(CardinalityEstimator):
    """Random-walk join sampling over key indexes."""

    name = "WJSample"

    def __init__(self, num_walks: int = 300, seed: int = 23):
        super().__init__()
        self._num_walks = num_walks
        self._seed = seed
        self._database: Database | None = None

    def _fit(self, database: Database) -> None:
        self._database = database
        # Warm the key indexes the walks will probe.
        for edge in database.join_graph.edges:
            database.index(edge.left, edge.left_column)
            database.index(edge.right, edge.right_column)

    @property
    def supports_update(self) -> bool:
        return True

    def update(self, new_rows) -> None:
        """Walks always read the live tables; nothing to maintain
        beyond the database's own (lazily rebuilt) indexes."""

    def model_size_bytes(self) -> int:
        # Model-free: only the engine's key indexes, which the DBMS
        # maintains anyway.
        return 0

    # -- estimation ------------------------------------------------------------

    def estimate(self, query: Query) -> float:
        assert self._database is not None, "estimate() before fit()"
        if query.num_tables == 1:
            return self._single_table(query)
        rng = np.random.default_rng(self._seed + stable_hash(query.key()) % 65536)
        order = self._walk_order(query)
        root = order[0][0]
        root_rows = self._filtered_rows(query, root)
        if len(root_rows) == 0:
            return 0.0

        total = 0.0
        starts = rng.integers(0, len(root_rows), size=self._num_walks)
        for start in starts:
            total += self._walk(query, order, int(root_rows[start]), rng)
        return len(root_rows) * total / self._num_walks

    def _single_table(self, query: Query) -> float:
        table = next(iter(query.tables))
        return float(len(self._filtered_rows(query, table)))

    def _filtered_rows(self, query: Query, table: str) -> np.ndarray:
        data = self._database.tables[table]
        mask = conjunction_mask(data, list(query.predicates_on(table)))
        return np.nonzero(mask)[0]

    def _walk_order(self, query: Query) -> list[tuple[str, JoinEdge | None]]:
        """DFS visit order over the join tree, rooted at the most
        filtered table (a common wander-join heuristic)."""
        root = max(
            sorted(query.tables),
            key=lambda t: len(query.predicates_on(t)),
        )
        order: list[tuple[str, JoinEdge | None]] = [(root, None)]
        visited = {root}
        stack = [root]
        while stack:
            current = stack.pop()
            for edge in query.join_edges:
                if current in edge.tables:
                    other = edge.other(current)
                    if other not in visited:
                        visited.add(other)
                        oriented = edge if edge.left == current else edge.reversed()
                        order.append((other, oriented))
                        stack.append(other)
        return order

    def _walk(
        self,
        query: Query,
        order: list[tuple[str, JoinEdge | None]],
        root_row: int,
        rng: np.random.Generator,
    ) -> float:
        """One Horvitz-Thompson walk; returns its weight (0 on a miss)."""
        assert self._database is not None
        current_rows = {order[0][0]: root_row}
        weight = 1.0
        for table, edge in order[1:]:
            assert edge is not None
            source_table = edge.left
            source_row = current_rows[source_table]
            source_column = self._database.tables[source_table].column(edge.left_column)
            if source_column.null_mask[source_row]:
                return 0.0
            key = source_column.values[source_row]
            index = self._database.index(table, edge.right_column)
            starts, counts = index.match(np.array([key]))
            count = int(counts[0])
            if count == 0:
                return 0.0
            chosen = int(index.positions[int(starts[0]) + rng.integers(count)])
            weight *= count
            if not self._row_passes(query, table, chosen):
                return 0.0
            current_rows[table] = chosen
        return weight

    def _row_passes(self, query: Query, table: str, row: int) -> bool:
        data = self._database.tables[table]
        for predicate in query.predicates_on(table):
            column = data.column(predicate.column)
            if column.null_mask[row]:
                return False
            single = predicate.mask(data.take(np.array([row])))
            if not bool(single[0]):
                return False
        return True
