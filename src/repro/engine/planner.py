"""Dynamic-programming join-order planner with cardinality injection.

This mirrors PostgreSQL's ``standard_join_search``: it enumerates every
connected subset of the query's join graph (the *sub-plan query
space*), keeps the cheapest plan per subset, and considers hash, merge
and index-nested-loop joins for every connected bipartition.

Every cardinality the DP needs is looked up from an injected mapping
``cards: frozenset[str] -> float`` — the evaluation platform's analog
of the paper's overwrite of ``calc_joinrel_size_estimate``.

There is one DP.  Level 1 (at most two scan candidates per table) is
costed with the scalar :meth:`CostModel.scan_cost`; every join level
materialises ``cards`` into a dense float array indexed by subset
bitmask and scores its whole (left-mask, right-mask, join-method)
candidate matrix in one :meth:`CostModel.join_cost_level` call.

Champions are selected under the codified deterministic total order
``(cost, method_rank, left_mask)`` (see
:data:`repro.engine.plans.JOIN_METHOD_RANK`), so plan choice never
depends on candidate enumeration order.  The one-candidate-at-a-time
reference DP this planner must match bit for bit lives in
:mod:`repro.check.reference_planner`; ``repro check --invariants
planner-vectorised`` runs the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.cost import CostModel, lookup_card, table_infos
from repro.engine.database import Database
from repro.engine.plans import (
    JOIN_METHOD_BY_RANK,
    SCAN_INDEX,
    SCAN_METHOD_RANK,
    SCAN_SEQ,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.engine.query import Query
from repro.engine.subsets import space_of
from repro.obs import metrics as obs_metrics

#: The DP state is a pair of dense arrays of size ``2**n`` indexed by
#: subset bitmask; ``plan`` rejects queries joining more tables than
#: this.  Far beyond any STATS-CEB / JOB-light query (at most 8).
MAX_DENSE_TABLES = 16


@dataclass
class PlannedQuery:
    """Planner output: the chosen plan and its estimated cost."""

    query: Query
    plan: PlanNode
    estimated_cost: float
    cards: dict[frozenset[str], float]


class Planner:
    """Cost-based DP planner over injected cardinalities."""

    def __init__(self, database: Database, cost_model: CostModel | None = None):
        self._database = database
        self._cost_model = cost_model or CostModel(table_infos(database))

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def plan(self, query: Query, cards: dict[frozenset[str], float]) -> PlannedQuery:
        """Find the cheapest plan for ``query`` under ``cards``.

        ``cards`` must contain an entry for every connected subset of
        the query's join graph (i.e. the full sub-plan query space);
        a missing subset raises
        :class:`repro.engine.cost.MissingCardinalityError`.  A query
        joining more than :data:`MAX_DENSE_TABLES` tables raises
        ``ValueError``.

        The connected-subset space and the valid tree bipartitions come
        precomputed from :func:`repro.engine.subsets.space_of`, which
        memoizes them per join-graph shape — queries instantiated from
        the same template (and the three plan() calls each benchmark
        query triggers: planning plus both P-Error plans) share one
        enumeration instead of redoing the bitmask search every time.
        """
        if len(query.tables) > MAX_DENSE_TABLES:
            raise ValueError(
                f"query {query.name!r} joins {len(query.tables)} tables; the "
                f"planner supports at most {MAX_DENSE_TABLES}"
            )
        space = space_of(query)
        cost_model = self._cost_model
        n = len(space.tables)

        # Dense mask-indexed views of the injected cards and the DP
        # state; only connected-mask slots are ever read.
        cards_arr = np.zeros(1 << n, dtype=np.float64)
        cards_arr[space.mask_array()] = [
            lookup_card(cards, subset) for subset in space.subsets
        ]
        # Unsolved masks hold NaN: any candidate summing in an unsolved
        # half scores NaN, which lexsort places after every real cost,
        # so a split whose halves were never solved cannot win.
        best_cost = np.full(1 << n, np.nan, dtype=np.float64)
        best_node: list[PlanNode | None] = [None] * (1 << n)

        sub_plans_enumerated = 0
        join_candidates = 0

        # Level 1: scans, chosen under (cost, method_rank).
        for name in space.tables:
            bit = space.bit_of(name)
            best_cost[bit], best_node[bit] = self._best_scan(query, name, cards)
            sub_plans_enumerated += 1

        # Per-table physicals for the index-NL inner side.
        infos = cost_model.infos
        raw_by_table = np.array(
            [infos[name].raw_rows for name in space.tables], dtype=np.float64
        )
        npred_by_table = np.array(
            [len(query.predicates_on(name)) for name in space.tables], dtype=np.float64
        )

        for level in space.level_templates():
            sub_plans_enumerated += len(level.parent_masks)
            num_splits = len(level.split_left)
            if num_splits == 0:
                continue
            left_costs = best_cost[level.split_left]
            right_costs = best_cost[level.split_right]
            left_rows = cards_arr[level.split_left]
            right_rows = cards_arr[level.split_right]
            out_rows = cards_arr[level.split_parent]
            # Index-NL ignores the right cost, but its right half is a
            # base table and level 1 solves every base table, so NaN
            # poisoning covers every method.
            join_candidates += int(
                np.count_nonzero(~np.isnan(left_costs) & ~np.isnan(right_costs))
            )

            costs = cost_model.join_cost_level(
                out_rows,
                left_rows,
                right_rows,
                left_costs,
                right_costs,
                level.inl_rows,
                raw_by_table[level.inl_inner_table],
                npred_by_table[level.inl_inner_table],
            )

            # One argmin per parent under the total order: lexsort keys
            # run last-to-first, so candidates group by parent and sort
            # by (cost, method_rank, left_mask) within each group.
            order = np.lexsort(
                (level.cand_left, level.cand_rank, costs, level.cand_parent_ord)
            )
            sorted_parents = level.cand_parent_ord[order]
            # First occurrence of each parent in the (already sorted)
            # parent sequence = that parent's champion candidate.
            is_first = np.empty(len(sorted_parents), dtype=bool)
            is_first[0] = True
            np.not_equal(sorted_parents[1:], sorted_parents[:-1], out=is_first[1:])
            first = np.flatnonzero(is_first)
            for first_idx in first:
                parent_ord = sorted_parents[first_idx]
                winner = order[first_idx]
                cost = costs[winner]
                if np.isnan(cost):
                    continue
                split = level.cand_split[winner]
                parent_mask = level.parent_masks[parent_ord]
                best_cost[parent_mask] = cost
                best_node[parent_mask] = JoinNode(
                    tables=level.parent_subsets[parent_ord],
                    left=best_node[level.split_left[split]],
                    right=best_node[level.split_right[split]],
                    edge=level.split_edges[split],
                    method=JOIN_METHOD_BY_RANK[level.cand_rank[winner]],
                )

        registry = obs_metrics.registry()
        registry.counter("planner.plans").inc()
        registry.counter("planner.sub_plans_enumerated").inc(sub_plans_enumerated)
        registry.counter("planner.bipartitions_pruned").inc(space.pruned_bipartitions)
        registry.counter("planner.join_candidates").inc(join_candidates)

        plan = best_node[space.full_mask]
        if plan is None:
            raise ValueError(f"no plan found for query {query.name!r} (disconnected join graph?)")
        return PlannedQuery(
            query=query,
            plan=plan,
            estimated_cost=float(best_cost[space.full_mask]),
            cards=cards,
        )

    # -- internals ------------------------------------------------------------

    def _scan_candidates(self, query: Query, table: str) -> list[ScanNode]:
        """Legal scan nodes for one base table (seq, plus index if keyed)."""
        predicates = query.predicates_on(table)
        seq = ScanNode(
            tables=frozenset((table,)),
            table=table,
            predicates=predicates,
            method=SCAN_SEQ,
        )
        primary_key = self._database.tables[table].schema.primary_key
        indexed = [p for p in predicates if primary_key is not None and p.column == primary_key]
        if not indexed:
            return [seq]
        index = ScanNode(
            tables=frozenset((table,)),
            table=table,
            predicates=predicates,
            method=SCAN_INDEX,
            index_column=primary_key,
        )
        return [seq, index]

    def _best_scan(
        self,
        query: Query,
        table: str,
        cards: dict[frozenset[str], float],
    ) -> tuple[float, ScanNode]:
        """Cheapest scan of ``table`` under ``(cost, method_rank)``."""
        costed = [
            (self._cost_model.scan_cost(node, cards), SCAN_METHOD_RANK[node.method], node)
            for node in self._scan_candidates(query, table)
        ]
        cost, _, node = min(costed, key=lambda entry: entry[:2])
        return cost, node
