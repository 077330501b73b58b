"""Exact cardinalities for queries and their sub-plan spaces.

``TrueCardinalityService`` is the workhorse behind the ``TrueCard``
baseline, workload labelling, Q-Error denominators and the true-card
term of P-Error.  Sub-plan cardinalities are computed bottom-up, and —
unlike the seed implementation, which planned and re-executed every
connected subset from base scans — **shared**: the materialized row-id
intermediate of a subset ``S`` is kept and extended by a single cached
hash join to count ``S ∪ {t}``, so a subset of size *n* costs one join
instead of *n − 1*.  Selection vectors and hash-build sides are reused
through an :class:`repro.engine.cache.ExecutionContext`.

Caching here is a pure correctness-path optimization: every count is
exact and bit-identical with caches on or off (tests assert this), and
nothing in this module is part of a *timed* benchmark measurement.
The per-query count cache is LRU-bounded by a byte budget and is
dropped — together with the execution context's caches — by
:meth:`TrueCardinalityService.invalidate` or automatically when the
database's ``data_version`` moves after an insert batch.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cache import ExecutionContext, LRUByteCache
from repro.engine.database import Database
from repro.engine.executor import ExecutionAborted, Executor
from repro.engine.planner import Planner
from repro.engine.plans import JOIN_HASH, JoinNode, PlanNode, ScanNode
from repro.engine.predicates import conjunction_mask
from repro.engine.query import Query
from repro.engine.subsets import connected_subsets, leaf_split

#: Budget for the per-(sub-)query exact-count cache.  Counts are tiny;
#: this bounds the formerly unbounded dict at a fixed byte footprint.
COUNT_CACHE_BYTES = 8 * 1024 * 1024

#: Soft cap on the materialized intermediates kept alive while one
#: query's sub-plan space is being counted.  Oversized intermediates
#: are still counted but not retained; supersets rebuild them on
#: demand.
MATERIALIZED_BUDGET_BYTES = 256 * 1024 * 1024


class TrueCardinalityService:
    """Computes and caches exact (sub-plan) cardinalities."""

    def __init__(
        self,
        database: Database,
        max_intermediate_rows: int = 20_000_000,
        use_exec_cache: bool = True,
        share_intermediates: bool = True,
        count_cache_budget_bytes: int = COUNT_CACHE_BYTES,
    ):
        self._database = database
        self._planner = Planner(database)
        self._context = ExecutionContext(database) if use_exec_cache else None
        self._executor = Executor(
            database,
            max_intermediate_rows=max_intermediate_rows,
            context=self._context,
        )
        self._max_rows = max_intermediate_rows
        self._share = share_intermediates
        self._cache = LRUByteCache(
            count_cache_budget_bytes,
            metric_prefix="cache.truecards",
            sizer=lambda value: 160,  # key tuple + int, nominal charge
        )
        self._seen_version = getattr(database, "data_version", 0)

    @property
    def database(self) -> Database:
        return self._database

    @property
    def context(self) -> ExecutionContext | None:
        """The execution context carrying the reuse caches (or None)."""
        return self._context

    def invalidate(self) -> None:
        """Drop all cached counts and reuse caches (call after updates)."""
        self._cache.clear()
        if self._context is not None:
            self._context.invalidate()

    # -- public API ------------------------------------------------------------

    def _check_version(self) -> None:
        version = getattr(self._database, "data_version", 0)
        if version != self._seen_version:
            self.invalidate()
            self._seen_version = version

    def cardinality(self, query: Query) -> int:
        """Exact result cardinality of ``query``."""
        self._check_version()
        count = self._cache.get(query.key())
        if count is None:
            count = self.sub_plan_cards(query)[query.tables]
        return count

    def sub_plan_cards(self, query: Query) -> dict[frozenset[str], int]:
        """Exact cardinality of every sub-plan query of ``query``."""
        self._check_version()
        result: dict[frozenset[str], int] = {}
        partial: dict[frozenset[str], float] = {}
        materialized: dict[frozenset[str], dict[str, np.ndarray]] = {}
        materialized_bytes = [0]
        previous_size = 1
        for subset in connected_subsets(query):
            if self._share and len(subset) > previous_size:
                # Level transition: counting size s+1 lazily
                # materializes size-s bases, whose own size-(s-1) bases
                # must still be resident; anything older can be freed
                # (rebuilt on demand if a cache hit skipped a level).
                self._prune_materialized(
                    materialized,
                    materialized_bytes,
                    keep_sizes={1, len(subset) - 1, len(subset) - 2},
                )
                previous_size = len(subset)
            subquery = query.subquery(subset)
            key = subquery.key()
            count = self._cache.get(key)
            if count is None:
                split = (
                    leaf_split(query, subset)
                    if self._share and len(subset) > 1
                    else None
                )
                if len(subset) == 1:
                    count = self._single_table_count(subquery)
                elif split is not None:
                    # Count the one-leaf extension of the shared base
                    # intermediate without materializing the output;
                    # the base itself materializes lazily, only when a
                    # subset actually extends it.
                    leaf, edge = split
                    base = self._materialize(
                        query, subset - {leaf}, materialized, materialized_bytes
                    )
                    scan = self._materialize(
                        query, frozenset((leaf,)), materialized, materialized_bytes
                    )
                    node = _extension_node(query, subset, leaf, edge)
                    count = self._executor.join_count(node, base, scan)
                else:
                    count = self._joined_count(subquery, partial)
                self._cache.put(key, count)
            result[subset] = count
            partial[subset] = float(count)
        return result

    # -- internals ----------------------------------------------------------------

    def _single_table_count(self, query: Query) -> int:
        table_name = next(iter(query.tables))
        predicates = tuple(query.predicates)
        if self._context is not None and self._context.enabled:
            return int(len(self._context.selection_rows(table_name, predicates)))
        table = self._database.tables[table_name]
        mask = conjunction_mask(table, list(predicates))
        return int(np.count_nonzero(mask))

    def _scan_rows(self, query: Query, table: str) -> dict[str, np.ndarray]:
        node = ScanNode(
            tables=frozenset((table,)),
            table=table,
            predicates=query.predicates_on(table),
        )
        return self._executor.scan_rows(node)

    def _materialize(
        self,
        query: Query,
        subset: frozenset[str],
        materialized: dict[frozenset[str], dict[str, np.ndarray]],
        materialized_bytes: list[int],
    ) -> dict[str, np.ndarray]:
        """Row-id arrays of the sub-plan on ``subset``, built bottom-up.

        Built lazily: a subset only pays the (output-proportional) join
        materialization when some superset actually extends it — one
        hash join of the materialized ``subset - {leaf}`` base with the
        cached scan of ``leaf``.  Counts are exact regardless of which
        leaf is split off, so the decomposition only affects speed.
        """
        rows = materialized.get(subset)
        if rows is not None:
            return rows
        if len(subset) == 1:
            (table,) = subset
            rows = self._scan_rows(query, table)
        else:
            split = leaf_split(query, subset)
            # Callers guard on leaf_split; every connected subset of a
            # valid (tree-shaped) query has one.
            assert split is not None
            leaf, edge = split
            base = self._materialize(
                query, subset - {leaf}, materialized, materialized_bytes
            )
            scan = self._materialize(
                query, frozenset((leaf,)), materialized, materialized_bytes
            )
            node = _extension_node(query, subset, leaf, edge)
            rows = self._executor.join_rows(node, base, scan, keep=_boundary(query, subset))
        count = _row_count(rows)
        if count > self._max_rows:
            raise ExecutionAborted(
                f"intermediate result of {count} rows exceeds budget {self._max_rows}"
            )
        nbytes = sum(array.nbytes for array in rows.values())
        if materialized_bytes[0] + nbytes <= MATERIALIZED_BUDGET_BYTES:
            materialized[subset] = rows
            materialized_bytes[0] += nbytes
        return rows

    @staticmethod
    def _prune_materialized(
        materialized: dict[frozenset[str], dict[str, np.ndarray]],
        materialized_bytes: list[int],
        keep_sizes: set[int],
    ) -> None:
        for subset in [s for s in materialized if len(s) not in keep_sizes]:
            freed = sum(array.nbytes for array in materialized[subset].values())
            materialized_bytes[0] -= freed
            del materialized[subset]

    def _joined_count(self, query: Query, partial: dict[frozenset[str], float]) -> int:
        """Seed counting path: plan with near-exact cards and execute.

        Kept as the non-shared reference implementation
        (``share_intermediates=False``) — the A/B baseline for the
        exec-cache benchmark and the bit-identity tests.
        """
        # The output cardinality of the subset itself is still unknown;
        # it is identical across all candidate plans for the subset, so
        # any placeholder yields the same plan choice.
        cards = dict(partial)
        cards[query.tables] = 0.0
        planned = self._planner.plan(query, cards)
        return self._executor.count(planned.plan)


def _row_count(rows: dict[str, np.ndarray]) -> int:
    return int(len(next(iter(rows.values()))))


def _boundary(query: Query, subset: frozenset[str]) -> frozenset[str]:
    """Tables of ``subset`` with a join edge of ``query`` leaving it.

    Only their row ids can anchor the join that extends the intermediate
    by one leaf, so they are all a materialized intermediate holds: its
    width follows the join-graph frontier, not the subset size.  Never
    empty for a proper connected subset of a connected query.
    """
    return frozenset(
        edge.left if edge.left in subset else edge.right
        for edge in query.join_edges
        if (edge.left in subset) != (edge.right in subset)
    )


def _extension_node(query: Query, subset: frozenset[str], leaf: str, edge) -> JoinNode:
    """The join node extending ``subset - {leaf}`` by the ``leaf`` scan."""
    oriented = edge if edge.right == leaf else edge.reversed()
    return JoinNode(
        tables=subset,
        left=PlanNode(tables=subset - {leaf}),
        right=ScanNode(
            tables=frozenset((leaf,)),
            table=leaf,
            predicates=query.predicates_on(leaf),
        ),
        edge=oriented,
        method=JOIN_HASH,
    )
