"""Plan-quality blame: drive the planner and executor for one attribution.

For one (estimator, query) pair :func:`blame_query`

1. plans the query twice — under the injected estimates and under the
   true cardinalities — and diffs the two plans,
2. optionally executes the estimate-induced plan with per-node
   instrumentation (the EXPLAIN ANALYZE walk) and the true plan for a
   runtime reference, and
3. ranks every sub-plan appearing in either plan by its est-vs-true
   cardinality ratio.

The records it fills, their roll-ups, (de)serialisation and the text
report live in :mod:`repro.obs.blame`, which imports no engine.
"""

from __future__ import annotations

import math

from repro.core import metrics
from repro.core.injection import estimate_sub_plans
from repro.engine.database import Database
from repro.engine.executor import ExecutionAborted, Executor, NodeRuntimeStats
from repro.engine.planner import Planner
from repro.engine.plans import JoinNode, PlanNode, join_order_signature, plan_methods
from repro.engine.query import LabeledQuery, Query
from repro.obs.blame import BlameReport, NodeAttribution, QueryBlame


def plan_subsets(plan: PlanNode) -> dict[frozenset[str], PlanNode]:
    """Every node of ``plan`` keyed by its covered table set."""
    nodes: dict[frozenset[str], PlanNode] = {}

    def walk(node: PlanNode) -> None:
        nodes[node.tables] = node
        if isinstance(node, JoinNode):
            walk(node.left)
            walk(node.right)

    walk(plan)
    return nodes


def blame_query(
    database: Database,
    query: Query,
    estimates: dict[frozenset[str], float],
    true_cards: dict[frozenset[str], float],
    *,
    estimator_name: str = "",
    planner: Planner | None = None,
    executor: Executor | None = None,
    analyze: bool = True,
) -> QueryBlame:
    """Attribute one query's plan-quality gap to its sub-plan estimates."""
    planner = planner or Planner(database)
    est_planned = planner.plan(query, estimates)
    true_planned = planner.plan(query, true_cards)
    p_error = metrics.p_error(
        planner,
        query,
        estimates,
        true_cards,
        estimated_plan=est_planned.plan,
        true_cost=planner.cost_model.plan_cost(true_planned.plan, true_cards),
    )

    est_order = join_order_signature(est_planned.plan)
    true_order = join_order_signature(true_planned.plan)
    est_methods = plan_methods(est_planned.plan)
    true_methods = plan_methods(true_planned.plan)
    plans_differ = est_order != true_order or est_methods != true_methods

    execution_seconds = None
    true_execution_seconds = None
    aborted = False
    node_stats: dict[frozenset[str], NodeRuntimeStats] = {}
    if analyze:
        executor = executor or Executor(database)
        try:
            result = executor.execute(est_planned.plan, collect_stats=True)
            node_stats = result.node_stats
            execution_seconds = result.elapsed_seconds
        except ExecutionAborted:
            aborted = True
        try:
            true_execution_seconds = executor.execute(
                true_planned.plan
            ).elapsed_seconds
        except ExecutionAborted:
            true_execution_seconds = None

    est_nodes = plan_subsets(est_planned.plan)
    true_nodes = plan_subsets(true_planned.plan)
    attributions: list[NodeAttribution] = []
    for subset in est_nodes.keys() | true_nodes.keys():
        estimated = estimates.get(subset, float("nan"))
        true = true_cards.get(subset, float("nan"))
        if not (math.isfinite(estimated) and math.isfinite(true)):
            continue
        ratio, direction = metrics.misestimate(estimated, true)
        stats = node_stats.get(subset)
        est_node = est_nodes.get(subset)
        attributions.append(
            NodeAttribution(
                tables=tuple(sorted(subset)),
                estimated_rows=float(estimated),
                true_rows=float(true),
                ratio=ratio,
                direction=direction,
                method=est_node.method if est_node is not None else None,
                in_estimate_plan=subset in est_nodes,
                in_true_plan=subset in true_nodes,
                actual_rows=stats.rows_out if stats is not None else None,
                elapsed_seconds=stats.elapsed_seconds if stats is not None else None,
            )
        )
    # Worst misestimate first; break ties toward larger (more damaging)
    # sub-plans, then deterministically by table list.
    attributions.sort(key=lambda a: (-a.ratio, -a.true_rows, a.tables))

    return QueryBlame(
        query_name=query.name,
        estimator=estimator_name,
        num_tables=query.num_tables,
        p_error=p_error,
        plans_differ=plans_differ,
        est_join_order=est_order,
        true_join_order=true_order,
        est_methods=est_methods,
        true_methods=true_methods,
        execution_seconds=execution_seconds,
        true_execution_seconds=true_execution_seconds,
        aborted=aborted,
        attributions=attributions,
    )


def blame_labeled(
    database: Database,
    labeled: LabeledQuery,
    estimator,
    *,
    planner: Planner | None = None,
    executor: Executor | None = None,
    analyze: bool = True,
) -> QueryBlame:
    """Blame one workload entry: estimates are collected on the spot."""
    estimates = estimate_sub_plans(estimator, labeled.query)
    true_cards = {
        subset: float(count) for subset, count in labeled.sub_plan_true_cards.items()
    }
    return blame_query(
        database,
        labeled.query,
        estimates,
        true_cards,
        estimator_name=getattr(estimator, "name", type(estimator).__name__),
        planner=planner,
        executor=executor,
        analyze=analyze,
    )


def blame_workload(
    database: Database,
    workload,
    estimator,
    *,
    analyze: bool = True,
    limit: int | None = None,
    executor: Executor | None = None,
) -> BlameReport:
    """Blame every query of a labelled workload under one estimator."""
    planner = Planner(database)
    executor = executor or Executor(database)
    report = BlameReport(
        estimator=getattr(estimator, "name", type(estimator).__name__),
        workload=getattr(workload, "name", ""),
    )
    queries = list(workload.queries)
    if limit is not None:
        queries = queries[: max(0, limit)]
    for labeled in queries:
        report.queries.append(
            blame_labeled(
                database,
                labeled,
                estimator,
                planner=planner,
                executor=executor,
                analyze=analyze,
            )
        )
    return report
