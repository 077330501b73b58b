"""EXPLAIN / EXPLAIN ANALYZE rendering for engine plans.

Produces PostgreSQL-style plan trees annotated with estimated rows,
estimated cost and — after execution — actual rows and per-node
inclusive timings, so estimation errors are visible exactly where they
bite (the Figure-2 style of analysis).

``analyze=True`` runs the plan through the executor's instrumented
walk, which also emits ``planning`` / ``execution`` trace spans (with
per-operator children) whenever a :mod:`repro.obs` tracer is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cost import CostModel
from repro.engine.database import Database
from repro.engine.executor import (
    ExecutionAborted,
    Executor,
    NodeRuntimeStats,
)
from repro.engine.planner import Planner
from repro.engine.plans import JoinNode, PlanNode, ScanNode
from repro.engine.query import Query
from repro.obs import trace as obs_trace


@dataclass
class ExplainResult:
    """Rendered plan plus headline numbers."""

    text: str
    estimated_cost: float
    estimated_rows: float
    actual_rows: int | None = None
    execution_seconds: float | None = None
    aborted: bool = False
    #: Per-node runtime stats (EXPLAIN ANALYZE only).
    node_stats: dict[frozenset[str], NodeRuntimeStats] = field(default_factory=dict)


def explain(
    database: Database,
    query: Query,
    cards: dict[frozenset[str], float],
    analyze: bool = False,
    executor: Executor | None = None,
) -> ExplainResult:
    """Plan ``query`` under ``cards`` and render the plan tree.

    With ``analyze=True`` the plan is executed and each node is
    annotated with its actual row count and inclusive elapsed time next
    to the estimate.
    """
    planner = Planner(database)
    with obs_trace.span("planning", query=query.name):
        planned = planner.plan(query, cards)
    cost_model = planner.cost_model

    actual: dict[frozenset[str], int] = {}
    node_stats: dict[frozenset[str], NodeRuntimeStats] = {}
    execution_seconds = None
    actual_rows = None
    aborted = False
    if analyze:
        executor = executor or Executor(database)
        with obs_trace.span("execution", query=query.name) as sp:
            try:
                result = executor.execute(planned.plan, collect_stats=True)
                actual = result.node_rows
                node_stats = result.node_stats
                actual_rows = result.cardinality
                execution_seconds = result.elapsed_seconds
                sp.set(rows=actual_rows)
            except ExecutionAborted:
                aborted = True
                sp.set(aborted=True)

    lines = _render(planned.plan, cards, actual, node_stats, cost_model, indent=0)
    header = f"-- {query.to_sql()}"
    footer = [f"Estimated cost: {planned.estimated_cost:.2f}"]
    if analyze and not aborted:
        footer.append(f"Execution time: {execution_seconds * 1000:.1f} ms")
    if aborted:
        footer.append("Execution ABORTED (row budget or timeout exceeded)")
    text = "\n".join([header, *lines, *footer])
    return ExplainResult(
        text=text,
        estimated_cost=planned.estimated_cost,
        estimated_rows=cards[query.tables],
        actual_rows=actual_rows,
        execution_seconds=execution_seconds,
        aborted=aborted,
        node_stats=node_stats,
    )


def _render(
    node: PlanNode,
    cards: dict[frozenset[str], float],
    actual: dict[frozenset[str], int],
    node_stats: dict[frozenset[str], NodeRuntimeStats],
    cost_model: CostModel,
    indent: int,
) -> list[str]:
    pad = "  " * indent
    arrow = "-> " if indent else ""
    estimated = cards.get(node.tables, float("nan"))
    suffix = f"(rows={estimated:.0f}"
    if node.tables in actual:
        suffix += f" actual={actual[node.tables]}"
    stats = node_stats.get(node.tables)
    if stats is not None:
        suffix += f" time={stats.elapsed_seconds * 1000:.3f}ms"
    suffix += f" cost={cost_model.plan_cost(node, cards):.2f})"

    if isinstance(node, ScanNode):
        label = "Seq Scan" if node.method == "seq_scan" else "Index Scan"
        line = f"{pad}{arrow}{label} on {node.table}  {suffix}"
        lines = [line]
        if node.predicates:
            filters = " AND ".join(p.to_sql() for p in node.predicates)
            lines.append(f"{pad}     Filter: {filters}")
        return lines

    assert isinstance(node, JoinNode)
    label = {
        "hash_join": "Hash Join",
        "merge_join": "Merge Join",
        "index_nl_join": "Index Nested Loop",
    }[node.method]
    condition = (
        f"{node.edge.left}.{node.edge.left_column}"
        f" = {node.edge.right}.{node.edge.right_column}"
    )
    lines = [f"{pad}{arrow}{label}  ({condition})  {suffix}"]
    lines.extend(_render(node.left, cards, actual, node_stats, cost_model, indent + 1))
    lines.extend(_render(node.right, cards, actual, node_stats, cost_model, indent + 1))
    return lines
