"""Oracle comparison and metamorphic invariants over one fuzz case.

Each checker takes a :class:`~repro.check.fuzz.CheckCase` and returns a
list of :class:`Discrepancy` records (empty = the case passes).  The
checks are:

``oracle``
    Triple agreement on every enumerated sub-plan of every query:
    SQLite reference count == :class:`TrueCardinalityService` count ==
    the row count produced by actually executing the planner's chosen
    plan.
``cache``
    Result-reuse must be invisible: the service with shared
    intermediates + exec cache and the service with both disabled must
    report identical sub-plan maps, and an executor with an
    :class:`ExecutionContext` must count exactly like a bare one.
``plans``
    Plan-choice independence: every physical plan the planner *could*
    have picked (all join orders × all legal join methods × both scan
    methods) must produce, at *every* node, the true count of the
    sub-plan that node covers — an inner count is the join kernel's sum,
    not the length of a column, so each is checked against the labels.
``planner-vectorised``
    Reference-vs-production DP scoring: under fuzzed cardinality maps —
    the true counts plus adversarial variants (all-equal values that
    force cost ties, zeros, sub-row fractions, seeded perturbations) —
    the scalar :class:`~repro.check.reference_planner.ReferencePlanner`
    and the production :class:`~repro.engine.planner.Planner` must
    produce identical ``(estimated_cost, plan)``, exact float equality
    included, proving the codified ``(cost, method_rank, left_mask)``
    tie-break order is applied identically by both.
``parallel``
    A fork-based multi-worker benchmark run must report the same
    result cardinalities as a serial run of the same workload.
``resume``
    A campaign checkpointed halfway and resumed must splice into the
    same results as an uninterrupted run.
``batch``
    Batch-vs-loop equivalence: for every estimator in the fast sweep
    set, ``estimate_batch`` over a query's whole sub-plan space must
    match the per-query ``estimate`` loop within ``BATCH_RTOL``
    relative tolerance — the contract the batched inference hot path
    (:func:`repro.core.injection.estimate_sub_plans`) relies on.

``parallel`` and ``resume`` run the full benchmark harness per case,
so the runner only samples them on a fraction of cases.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.check.fuzz import CheckCase
from repro.check.oracle import SQLiteOracle
from repro.check.reference_planner import ReferencePlanner
from repro.core.benchmark import EndToEndBenchmark
from repro.core.injection import sub_plan_queries
from repro.core.parallel import fork_available
from repro.core.truecards import TrueCardinalityService
from repro.engine.cache import ExecutionContext
from repro.engine.executor import Executor
from repro.engine.planner import Planner
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
from repro.engine.query import LabeledQuery, Query
from repro.engine.subsets import space_of
from repro.estimators.datad.bayescard import BayesCardEstimator
from repro.estimators.multihist import MultiHistEstimator
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.workloads.generator import Workload

#: Relative tolerance for batch-vs-loop equivalence.  Vectorised
#: implementations may reorder float reductions (stacked matmuls vs
#: per-row dot products), which moves the last ulp; anything beyond
#: 1e-9 relative is a genuine semantic divergence.
BATCH_RTOL = 1e-9

#: Caps for exhaustive plan enumeration: ways kept per subset mask and
#: executed plans per query.  Fuzz queries join <= 4 tables, so these
#: caps are rarely binding; they bound worst-case runtime, and the
#: runner logs nothing because the *chosen* plan is always included.
MAX_PLANS_PER_MASK = 8
MAX_PLANS_PER_QUERY = 48


@dataclass(frozen=True)
class Discrepancy:
    """One detected disagreement, attributable to a query and invariant."""

    invariant: str
    query: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.query}: {self.detail}"


def _true_counts(case: CheckCase) -> dict[str, dict[frozenset[str], int]]:
    service = TrueCardinalityService(case.database)
    return {q.name: service.sub_plan_cards(q) for q in case.queries}


# -- oracle -------------------------------------------------------------------


def check_oracle(case: CheckCase) -> list[Discrepancy]:
    """SQLite vs TrueCardinalityService vs executed plan, per sub-plan."""
    discrepancies: list[Discrepancy] = []
    service = TrueCardinalityService(case.database)
    planner = Planner(case.database)
    executor = Executor(case.database)
    with SQLiteOracle(case.database) as oracle:
        for query in case.queries:
            engine = service.sub_plan_cards(query)
            reference = oracle.sub_plan_counts(query)
            if set(engine) != set(reference):
                discrepancies.append(
                    Discrepancy(
                        "oracle",
                        query.name,
                        "sub-plan spaces differ: engine enumerated "
                        f"{sorted(map(sorted, engine))} vs oracle "
                        f"{sorted(map(sorted, reference))}",
                    )
                )
                continue
            for subset in sorted(engine, key=sorted):
                if engine[subset] != reference[subset]:
                    discrepancies.append(
                        Discrepancy(
                            "oracle",
                            query.name,
                            f"sub-plan {sorted(subset)}: engine counted "
                            f"{engine[subset]}, SQLite counted "
                            f"{reference[subset]}",
                        )
                    )
            # Executing the plan the planner actually picks under true
            # cardinalities must reproduce the full-query count too.
            cards = {s: float(c) for s, c in engine.items()}
            plan = planner.plan(query, cards).plan
            executed = executor.count(plan)
            if executed != reference[query.tables]:
                discrepancies.append(
                    Discrepancy(
                        "oracle",
                        query.name,
                        f"executed plan returned {executed}, SQLite "
                        f"counted {reference[query.tables]}",
                    )
                )
    return discrepancies


# -- batch --------------------------------------------------------------------


def check_batch(case: CheckCase) -> list[Discrepancy]:
    """``estimate_batch`` must match the per-query ``estimate`` loop.

    Fits the estimator families whose batch path is reachable from a
    fuzz database without training queries — vectorised (PostgreSQL),
    memoised (MultiHist) and per-query evaluation (PessEst, and
    BayesCard for the fan-out PGMs, so fuzzed FK-FK edges, NULL keys and
    int64-limit key domains reach the shared ``_visit``) — and compares
    both code paths over every query's full sub-plan space.  The
    query-driven families and the SPNs are covered by the
    tests/estimators sweep, which has trained models to hand; fuzz
    cases are too small to train on.
    """
    discrepancies: list[Discrepancy] = []
    estimators = [
        PostgresEstimator().fit(case.database),
        MultiHistEstimator().fit(case.database),
        PessimisticEstimator().fit(case.database),
        BayesCardEstimator().fit(case.database),
    ]
    for query in case.queries:
        sub = sub_plan_queries(query)
        subsets = list(sub)
        queries = list(sub.values())
        for estimator in estimators:
            looped = [float(estimator.estimate(q)) for q in queries]
            batched = estimator.estimate_batch(queries)
            if len(batched) != len(looped):
                discrepancies.append(
                    Discrepancy(
                        "batch",
                        query.name,
                        f"{estimator.name}.estimate_batch returned "
                        f"{len(batched)} estimates for {len(looped)} "
                        "sub-plans",
                    )
                )
                continue
            for subset, loop_value, batch_value in zip(
                subsets, looped, batched
            ):
                if not math.isclose(
                    loop_value,
                    float(batch_value),
                    rel_tol=BATCH_RTOL,
                    abs_tol=1e-12,
                ):
                    discrepancies.append(
                        Discrepancy(
                            "batch",
                            query.name,
                            f"{estimator.name} sub-plan {sorted(subset)}: "
                            f"loop estimated {loop_value!r}, batch "
                            f"estimated {float(batch_value)!r}",
                        )
                    )
    return discrepancies


# -- cache --------------------------------------------------------------------


def check_cache(case: CheckCase) -> list[Discrepancy]:
    """Exec-cache and shared-intermediate reuse must not change counts."""
    discrepancies: list[Discrepancy] = []
    cached = TrueCardinalityService(
        case.database, use_exec_cache=True, share_intermediates=True
    )
    plain = TrueCardinalityService(
        case.database, use_exec_cache=False, share_intermediates=False
    )
    planner = Planner(case.database)
    bare_executor = Executor(case.database)
    context_executor = Executor(
        case.database, context=ExecutionContext(case.database)
    )
    for query in case.queries:
        with_reuse = cached.sub_plan_cards(query)
        without = plain.sub_plan_cards(query)
        for subset in sorted(without, key=sorted):
            if with_reuse.get(subset) != without[subset]:
                discrepancies.append(
                    Discrepancy(
                        "cache",
                        query.name,
                        f"sub-plan {sorted(subset)}: cached service "
                        f"counted {with_reuse.get(subset)}, plain "
                        f"service counted {without[subset]}",
                    )
                )
        cards = {s: float(c) for s, c in without.items()}
        plan = planner.plan(query, cards).plan
        # Twice through the context-holding executor: the second pass
        # serves scans and hash builds from cache and must still agree.
        counts = (
            bare_executor.count(plan),
            context_executor.count(plan),
            context_executor.count(plan),
        )
        if len(set(counts)) != 1:
            discrepancies.append(
                Discrepancy(
                    "cache",
                    query.name,
                    "executor counts diverge (bare, cold-cache, "
                    f"warm-cache) = {counts}",
                )
            )
    return discrepancies


# -- plan-choice independence -------------------------------------------------


def _enumerate_plans(query: Query, database) -> list[PlanNode]:
    """Up to MAX_PLANS_PER_QUERY distinct physical plans for ``query``.

    Mirrors the planner's legality rules: scans may be sequential or
    (when a primary-key predicate exists) index scans; joins may be
    hash or merge, plus index-NL when the inner side is a base-table
    scan; the join edge is oriented so its ``left`` table lives in the
    left sub-plan.
    """
    space = space_of(query)
    memo: dict[int, list[PlanNode]] = {}

    def scans(table: str) -> list[PlanNode]:
        predicates = query.predicates_on(table)
        nodes: list[PlanNode] = [
            ScanNode(
                tables=frozenset((table,)),
                table=table,
                predicates=predicates,
                method=SCAN_SEQ,
            )
        ]
        primary_key = database.tables[table].schema.primary_key
        if primary_key is not None and any(
            p.column == primary_key for p in predicates
        ):
            nodes.append(
                ScanNode(
                    tables=frozenset((table,)),
                    table=table,
                    predicates=predicates,
                    method=SCAN_INDEX,
                    index_column=primary_key,
                )
            )
        return nodes

    def plans_for(mask: int) -> list[PlanNode]:
        if mask in memo:
            return memo[mask]
        subset = space.tables_of(mask)
        if len(subset) == 1:
            memo[mask] = scans(next(iter(subset)))
            return memo[mask]
        nodes: list[PlanNode] = []
        for left_mask, right_mask, edge in space.splits[mask]:
            for left_plan in plans_for(left_mask):
                for right_plan in plans_for(right_mask):
                    oriented = (
                        edge
                        if edge.left in left_plan.tables
                        else edge.reversed()
                    )
                    methods = [JOIN_HASH, JOIN_MERGE]
                    if isinstance(right_plan, ScanNode):
                        methods.append(JOIN_INDEX_NL)
                    for method in methods:
                        nodes.append(
                            JoinNode(
                                tables=subset,
                                left=left_plan,
                                right=right_plan,
                                edge=oriented,
                                method=method,
                            )
                        )
                        if len(nodes) >= MAX_PLANS_PER_MASK:
                            memo[mask] = nodes
                            return nodes
        memo[mask] = nodes
        return nodes

    return plans_for(space.full_mask)[:MAX_PLANS_PER_QUERY]


def check_plans(case: CheckCase) -> list[Discrepancy]:
    """Every node of every legal physical plan must count its sub-plan."""
    discrepancies: list[Discrepancy] = []
    executor = Executor(case.database)
    reference = _true_counts(case)
    for query in case.queries:
        expected = reference[query.name]
        for plan in _enumerate_plans(query, case.database):
            node_rows = executor.execute(plan).node_rows
            wrong = {
                tuple(sorted(node.tables)): (got, expected[node.tables])
                for node in plan.walk()
                if (got := node_rows.get(node.tables)) != expected[node.tables]
            }
            if wrong:
                discrepancies.append(
                    Discrepancy(
                        "plans",
                        query.name,
                        f"nodes with (got, expected) rows {wrong}:\n"
                        + plan.describe(),
                    )
                )
    return discrepancies


# -- planner-vectorised -------------------------------------------------------


def _card_map_variants(
    true_cards: dict[frozenset[str], float],
    rng: np.random.Generator,
) -> dict[str, dict[frozenset[str], float]]:
    """Adversarial cardinality maps for the scalar-vs-vectorised diff.

    Beyond the true counts, each variant targets a tie-breaking or
    clamping edge: constant maps make *every* candidate cost tie (the
    total order alone decides), zeros exercise the ``max(0, ·)`` clamps
    and zero-page index paths, sub-row fractions hit the learned-
    estimator regime of cards below one row, and the perturbed map
    draws from a small tie-prone pool so some — but not all — costs
    collide.
    """
    subsets = sorted(true_cards, key=sorted)
    pool = np.array([0.0, 0.5, 1.0, 2.0, 1000.0])
    return {
        "true": true_cards,
        "ties": {s: 1.0 for s in subsets},
        "zeros": {s: 0.0 for s in subsets},
        "sub-row": {s: 0.25 for s in subsets},
        "perturbed": {s: float(rng.choice(pool)) for s in subsets},
    }


def check_planner_vectorised(case: CheckCase) -> list[Discrepancy]:
    """The scalar reference DP and the planner must agree bit for bit."""
    discrepancies: list[Discrepancy] = []
    scalar = ReferencePlanner(case.database)
    vector = Planner(case.database)
    service = TrueCardinalityService(case.database)
    rng = np.random.default_rng(np.random.SeedSequence([case.seed, case.index]))
    for query in case.queries:
        true_cards = {
            subset: float(count)
            for subset, count in service.sub_plan_cards(query).items()
        }
        for label, cards in _card_map_variants(true_cards, rng).items():
            expected = scalar.plan(query, cards)
            got = vector.plan(query, cards)
            if float(expected.estimated_cost) != float(got.estimated_cost):
                discrepancies.append(
                    Discrepancy(
                        "planner-vectorised",
                        query.name,
                        f"cards[{label}]: scalar cost "
                        f"{expected.estimated_cost!r} != vectorised "
                        f"{got.estimated_cost!r}",
                    )
                )
            elif expected.plan != got.plan:
                discrepancies.append(
                    Discrepancy(
                        "planner-vectorised",
                        query.name,
                        f"cards[{label}]: same cost "
                        f"{expected.estimated_cost!r} but different plans:\n"
                        f"scalar:\n{expected.plan.describe()}\n"
                        f"vectorised:\n{got.plan.describe()}",
                    )
                )
    return discrepancies


# -- parallel -----------------------------------------------------------------


def _labeled_workload(case: CheckCase) -> Workload:
    reference = _true_counts(case)
    return Workload(
        name=case.name,
        database_name=case.database.name,
        queries=[
            LabeledQuery(
                query=query,
                true_cardinality=reference[query.name][query.tables],
                sub_plan_true_cards=reference[query.name],
            )
            for query in case.queries
        ],
    )


def _run_signature(run) -> list[tuple[str, int | None, bool, bool]]:
    return [
        (qr.query_name, qr.result_cardinality, qr.aborted, qr.failed)
        for qr in run.query_runs
    ]


def check_parallel(case: CheckCase) -> list[Discrepancy]:
    """Serial and 2-worker benchmark runs must report identical results.

    Structurally skipped (not silently — the runner records the reason)
    when forking is unavailable or the case has fewer than two queries,
    since the benchmark falls back to the serial loop in both
    situations and the invariant would compare a run against itself.
    """
    if not fork_available() or len(case.queries) < 2:
        return []
    workload = _labeled_workload(case)
    serial = EndToEndBenchmark(
        case.database, workload, compute_p_errors=False
    ).run(TrueCardEstimator())
    parallel = EndToEndBenchmark(
        case.database, workload, compute_p_errors=False, workers=2
    ).run(TrueCardEstimator())
    if _run_signature(serial) != _run_signature(parallel):
        return [
            Discrepancy(
                "parallel",
                case.name,
                f"serial results {_run_signature(serial)} != "
                f"2-worker results {_run_signature(parallel)}",
            )
        ]
    return []


def parallel_applicable(case: CheckCase) -> bool:
    """Whether :func:`check_parallel` can actually exercise forking."""
    return fork_available() and len(case.queries) >= 2


# -- resume -------------------------------------------------------------------


def check_resume(case: CheckCase) -> list[Discrepancy]:
    """Checkpoint-resume must splice into the same results as a fresh run."""
    workload = _labeled_workload(case)

    def bench() -> EndToEndBenchmark:
        return EndToEndBenchmark(
            case.database, workload, compute_p_errors=False
        )

    fresh = bench().run(TrueCardEstimator())
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        path = Path(tmp) / "campaign.jsonl"
        half = max(1, len(workload.queries) // 2)
        first = CampaignCheckpoint(path)
        bench().run(TrueCardEstimator(), queries=workload.queries[:half],
                    checkpoint=first)
        first.close()
        resumed_checkpoint = CampaignCheckpoint.resume(path)
        resumed = bench().run(TrueCardEstimator(), checkpoint=resumed_checkpoint)
        resumed_checkpoint.close()
    if _run_signature(fresh) != _run_signature(resumed):
        return [
            Discrepancy(
                "resume",
                case.name,
                f"fresh results {_run_signature(fresh)} != resumed "
                f"results {_run_signature(resumed)}",
            )
        ]
    return []


#: The metamorphic invariants by name, in the order the runner applies
#: them.  The SQLite oracle comparison is controlled separately
#: (``--no-oracle``).
CHECKERS = {
    "batch": check_batch,
    "cache": check_cache,
    "plans": check_plans,
    "planner-vectorised": check_planner_vectorised,
    "parallel": check_parallel,
    "resume": check_resume,
}
ALL_INVARIANTS = tuple(CHECKERS)


def run_invariants(
    case: CheckCase, invariants: tuple[str, ...] = ALL_INVARIANTS
) -> list[Discrepancy]:
    """Run the selected metamorphic invariants over one case."""
    discrepancies: list[Discrepancy] = []
    for name in invariants:
        discrepancies.extend(CHECKERS[name](case))
    return discrepancies
