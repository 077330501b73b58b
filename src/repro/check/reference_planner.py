"""Scalar reference DP for :class:`repro.engine.planner.Planner`.

The production planner scores each join level's whole candidate matrix
through :meth:`CostModel.join_cost_level`.  This reference walks the
same search space one candidate at a time through the scalar
:meth:`CostModel.join_cost` — the formulas ``plan_cost`` (hence
P-Error and ``explain``) use — and selects champions under the same
``(cost, method_rank, left_mask)`` total order, so both must return the
bit-identical ``(plan, estimated_cost)`` for any query and cards map.

It is an oracle, not a production path: the ``planner-vectorised``
invariant, ``tests/engine/test_planner_vectorised.py`` and
``benchmarks/bench_plan.py`` compare against it, and nothing outside
:mod:`repro.check` may import it.  Scan selection (level 1) is shared
with the production planner, which costs it with the same scalar code.
"""

from __future__ import annotations

from repro.engine.planner import PlannedQuery, Planner
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    JOIN_METHOD_RANK,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.engine.query import Query
from repro.engine.subsets import space_of


class ReferencePlanner(Planner):
    """Drop-in :class:`Planner` whose DP costs one candidate at a time."""

    def plan(self, query: Query, cards: dict[frozenset[str], float]) -> PlannedQuery:
        space = space_of(query)

        # Level 1: scans.
        best: dict[int, tuple[float, PlanNode]] = {}
        for name in space.tables:
            best[space.bit_of(name)] = self._best_scan(query, name, cards)

        # Connected masks come ordered by size, so every split's halves
        # are already solved when their union is reached.
        for mask, subset in zip(space.connected_masks, space.subsets):
            if mask.bit_count() < 2:
                continue
            champion: tuple[float, int, int, PlanNode] | None = None
            for sub, rest, edge in space.splits[mask]:
                left_entry = best.get(sub)
                right_entry = best.get(rest)
                if left_entry is None or right_entry is None:
                    continue
                cost, rank, node = self._best_join(
                    subset,
                    left_entry,
                    right_entry,
                    edge,
                    cards,
                )
                if champion is None or (cost, rank, sub) < champion[:3]:
                    champion = (cost, rank, sub, node)
            if champion is not None:
                best[mask] = (champion[0], champion[3])

        if space.full_mask not in best:
            raise ValueError(f"no plan found for query {query.name!r} (disconnected join graph?)")
        cost, plan = best[space.full_mask]
        return PlannedQuery(query=query, plan=plan, estimated_cost=cost, cards=cards)

    def _best_join(
        self,
        subset: frozenset[str],
        left_entry: tuple[float, PlanNode],
        right_entry: tuple[float, PlanNode],
        edge,
        cards: dict[frozenset[str], float],
    ) -> tuple[float, int, PlanNode]:
        """Cheapest join method for one bipartition.

        Returns ``(cost, method_rank, node)`` so the caller can apply
        the full ``(cost, method_rank, left_mask)`` order across splits.
        """
        left_cost, left_plan = left_entry
        right_cost, right_plan = right_entry
        champion: tuple[float, int, PlanNode] | None = None

        oriented = edge if edge.left in left_plan.tables else edge.reversed()
        methods = [JOIN_HASH, JOIN_MERGE]
        if isinstance(right_plan, ScanNode):
            methods.append(JOIN_INDEX_NL)

        for method in methods:
            node = JoinNode(
                tables=subset,
                left=left_plan,
                right=right_plan,
                edge=oriented,
                method=method,
            )
            cost = self._cost_model.join_cost(node, cards, left_cost, right_cost)
            rank = JOIN_METHOD_RANK[method]
            if champion is None or (cost, rank) < champion[:2]:
                champion = (cost, rank, node)
        assert champion is not None
        return champion
