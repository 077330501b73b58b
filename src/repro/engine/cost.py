"""PostgreSQL-flavoured cost model.

The formulas follow PostgreSQL's ``costsize.c`` in simplified form.
Crucially, every row count a cost depends on is looked up from an
external cardinality mapping (``cards``), never computed internally:
this is what lets the benchmark cost the *same* plan tree under
estimated cardinalities (during planning) and under true cardinalities
(for the PPC term of P-Error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.database import Database
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    SCAN_INDEX,
    SCAN_SEQ,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.engine.types import pages_for


class MissingCardinalityError(KeyError):
    """An injected ``cards`` map lacks an entry for a connected sub-plan.

    Raised instead of a bare ``KeyError`` so callers can tell a broken
    cardinality injection (an estimator silently dropped a sub-plan)
    apart from ordinary mapping bugs.  Deterministic for a given query
    and cards map; the benchmark records it as a planning failure of
    that query.  Subclasses ``KeyError`` so existing ``except KeyError``
    handlers keep working.
    """

    def __init__(self, tables: frozenset[str]):
        self.tables = frozenset(tables)
        super().__init__("+".join(sorted(self.tables)))

    def __str__(self) -> str:
        return f"no injected cardinality for sub-plan {self.args[0]}"


def lookup_card(cards: dict[frozenset[str], float], tables: frozenset[str]) -> float:
    """``cards[tables]``, raising :class:`MissingCardinalityError` if absent."""
    try:
        return cards[tables]
    except KeyError:
        raise MissingCardinalityError(tables) from None


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants, defaulting to PostgreSQL's defaults."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025


@dataclass(frozen=True)
class TableInfo:
    """Physical facts about one base table the cost model needs."""

    raw_rows: int
    width: int
    pages: float


def table_infos(database: Database) -> dict[str, TableInfo]:
    """Collect :class:`TableInfo` for every table in ``database``."""
    infos = {}
    for name, table in database.tables.items():
        rows = table.num_rows
        width = table.schema.width
        infos[name] = TableInfo(raw_rows=rows, width=width, pages=pages_for(rows, width))
    return infos


class CostModel:
    """Costs plan trees under an externally supplied cardinality map."""

    def __init__(self, infos: dict[str, TableInfo], params: CostParameters | None = None):
        self._infos = infos
        self._params = params or CostParameters()

    @property
    def params(self) -> CostParameters:
        return self._params

    @property
    def infos(self) -> dict[str, TableInfo]:
        return self._infos

    # -- public API ---------------------------------------------------------

    def plan_cost(self, plan: PlanNode, cards: dict[frozenset[str], float]) -> float:
        """Total cost of ``plan`` when node output rows come from ``cards``."""
        if isinstance(plan, ScanNode):
            return self._scan_cost(plan, cards)
        assert isinstance(plan, JoinNode)
        return self.join_cost(
            plan,
            cards,
            left_cost=self.plan_cost(plan.left, cards),
            right_cost=self.plan_cost(plan.right, cards),
        )

    def scan_cost(self, node: ScanNode, cards: dict[frozenset[str], float]) -> float:
        """Cost of a single scan node (planner convenience)."""
        return self._scan_cost(node, cards)

    # -- scans ---------------------------------------------------------------

    def _scan_cost(self, node: ScanNode, cards: dict[frozenset[str], float]) -> float:
        info = self._infos[node.table]
        p = self._params
        out_rows = max(0.0, lookup_card(cards, node.tables))
        if node.method == SCAN_SEQ:
            run = info.pages * p.seq_page_cost
            run += info.raw_rows * p.cpu_tuple_cost
            run += info.raw_rows * p.cpu_operator_cost * len(node.predicates)
            return run
        assert node.method == SCAN_INDEX
        selectivity = out_rows / max(1.0, info.raw_rows)
        fetched_pages = max(1.0, selectivity * info.pages)
        run = fetched_pages * p.random_page_cost
        run += out_rows * p.cpu_index_tuple_cost
        run += out_rows * p.cpu_tuple_cost
        run += out_rows * p.cpu_operator_cost * max(0, len(node.predicates) - 1)
        return run

    # -- joins ----------------------------------------------------------------

    def join_cost(
        self,
        node: JoinNode,
        cards: dict[frozenset[str], float],
        left_cost: float,
        right_cost: float,
    ) -> float:
        """Cost of one join node given its children's (pre-computed) costs.

        ``right_cost`` is ignored for index nested-loop joins: the inner
        base table is never scanned as a whole, only probed through its
        index.
        """
        p = self._params
        out_rows = max(0.0, lookup_card(cards, node.tables))
        left_rows = max(0.0, lookup_card(cards, node.left.tables))
        right_rows = max(0.0, lookup_card(cards, node.right.tables))

        if node.method == JOIN_HASH:
            build = 2.0 * p.cpu_operator_cost * right_rows
            probe = p.cpu_operator_cost * left_rows
            emit = p.cpu_tuple_cost * out_rows
            return left_cost + right_cost + build + probe + emit

        if node.method == JOIN_MERGE:
            sort = self._sort_cost(left_rows) + self._sort_cost(right_rows)
            merge = p.cpu_operator_cost * (left_rows + right_rows)
            emit = p.cpu_tuple_cost * out_rows
            return left_cost + right_cost + sort + merge + emit

        assert node.method == JOIN_INDEX_NL
        # Inner is a base-table scan driven by an index on the join key;
        # the index fetches *all* key matches and filters afterwards, so
        # the fetched row count is the output inflated by the inverse of
        # the inner filter selectivity.
        assert isinstance(node.right, ScanNode)
        info = self._infos[node.right.table]
        inner_selectivity = right_rows / max(1.0, info.raw_rows)
        fetched = out_rows / max(inner_selectivity, 1e-9)
        per_probe = 0.5 * p.random_page_cost + 4.0 * p.cpu_operator_cost
        run = left_cost
        run += left_rows * per_probe
        run += fetched * p.cpu_index_tuple_cost
        run += fetched * p.cpu_operator_cost * len(node.right.predicates)
        run += out_rows * p.cpu_tuple_cost
        return run

    def _sort_cost(self, rows: float) -> float:
        # np.log2 (not math.log2) so this and the level kernel below
        # share one log2 implementation bit for bit.
        rows = max(rows, 2.0)
        return float(2.0 * self._params.cpu_operator_cost * rows * np.log2(rows))

    # -- level kernel ----------------------------------------------------------
    #
    # The planner scores a whole DP level at once.  The kernel evaluates
    # *exactly* the scalar expression trees of :meth:`join_cost`,
    # elementwise over float64 arrays (same literals, same association
    # order, ``np.maximum`` for ``max``), so each slot is bit-identical
    # to the scalar cost of the same candidate — which is what lets
    # ``repro.check`` hold the planner to a scalar reference DP.

    def join_cost_level(
        self,
        out_rows: np.ndarray,
        left_rows: np.ndarray,
        right_rows: np.ndarray,
        left_costs: np.ndarray,
        right_costs: np.ndarray,
        inl_rows: np.ndarray,
        inner_raw_rows: np.ndarray,
        inner_num_predicates: np.ndarray,
    ) -> np.ndarray:
        """Score one whole DP level's candidate matrix in a single call.

        Input arrays describe one row per bipartition; ``inl_rows``
        indexes the index-NL-eligible subset (single-table right half),
        with ``inner_raw_rows`` / ``inner_num_predicates`` aligned to
        it.  Row-count arrays are raw ``cards`` gathers; the kernel
        applies the same ``max(0, ·)`` clamps as :meth:`join_cost`, and
        like it ignores ``right_costs`` for index-NL.  Returns costs
        laid out ``[hash | merge | index-NL]``, with the clamps and the
        shared ``left + right`` / emit terms computed once (the
        planner's hot path).
        """
        p = self._params
        out_rows = np.maximum(0.0, out_rows)
        left_rows = np.maximum(0.0, left_rows)
        right_rows = np.maximum(0.0, right_rows)
        num = len(out_rows)
        costs = np.empty(2 * num + len(inl_rows), dtype=np.float64)

        # Shared subtrees: identical subexpressions of the scalar
        # formulas, so hoisting them preserves bit-identity.
        base = left_costs + right_costs
        emit = p.cpu_tuple_cost * out_rows

        costs[:num] = (
            base
            + 2.0 * p.cpu_operator_cost * right_rows
            + p.cpu_operator_cost * left_rows
            + emit
        )
        costs[num : 2 * num] = (
            base
            + (self._sort_cost_batch(left_rows) + self._sort_cost_batch(right_rows))
            + p.cpu_operator_cost * (left_rows + right_rows)
            + emit
        )
        if len(inl_rows):
            out = out_rows[inl_rows]
            inner_selectivity = right_rows[inl_rows] / np.maximum(1.0, inner_raw_rows)
            fetched = out / np.maximum(inner_selectivity, 1e-9)
            per_probe = 0.5 * p.random_page_cost + 4.0 * p.cpu_operator_cost
            costs[2 * num :] = (
                left_costs[inl_rows]
                + left_rows[inl_rows] * per_probe
                + fetched * p.cpu_index_tuple_cost
                + fetched * p.cpu_operator_cost * inner_num_predicates
                + out * p.cpu_tuple_cost
            )
        return costs

    def _sort_cost_batch(self, rows: np.ndarray) -> np.ndarray:
        rows = np.maximum(rows, 2.0)
        return 2.0 * self._params.cpu_operator_cost * rows * np.log2(rows)
