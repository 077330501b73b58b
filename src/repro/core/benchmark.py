"""The end-to-end benchmark driver (the paper's Section 4.2 platform).

For every workload query and estimator:

1. derive the sub-plan query space and collect the estimator's
   cardinality for each sub-plan (*inference time*),
2. inject the estimates into the DP planner and plan (*planning
   time*),
3. execute the chosen physical plan (*execution time*), and
4. compute Q-Errors (per sub-plan) and the P-Error of the plan.

Executions whose intermediate results blow past the row budget are
recorded as aborted — the analog of the paper's "> 25h" entries — and
aggregate reports either flag them or substitute a penalty time.

Campaigns are **fault tolerant** (:mod:`repro.resilience`): an
estimator exception, a planner error or an executor crash is isolated
to its query — recorded as ``QueryRun(failed=True, error=...)`` with
PostgreSQL-default estimates injected for failed sub-plans — instead
of aborting the campaign.  ``failed`` and ``aborted`` are distinct
outcomes: *aborted* means the chosen plan blew its row/time budget
(an estimator-quality signal the paper reports); *failed* means the
machinery around the query broke (an infrastructure signal the paper's
aggregates must exclude).  Each phase runs once: estimation, planning
and execution are deterministic, so a failed call is recorded, not
retried.  A timeout policy bounds each execution, each query and the
campaign, and completed runs can stream to a
:class:`~repro.resilience.checkpoint.CampaignCheckpoint` so an
interrupted campaign resumes where it stopped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.injection import price_sub_plans
from repro.core.metrics import p_error, q_error, true_plan_cost
from repro.core.parallel import fork_available, run_parallel
from repro.engine.database import Database
from repro.engine.executor import ExecutionAborted, Executor
from repro.engine.planner import Planner
from repro.engine.plans import join_order_signature, plan_methods
from repro.engine.query import LabeledQuery
from repro.estimators.base import CardinalityEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace
from repro.resilience.fallback import PostgresDefaultFallback
from repro.resilience.policy import Deadline, TimeoutPolicy
from repro.workloads.generator import Workload


@dataclass
class QueryRun:
    """Measurements for one (estimator, query) pair."""

    query_name: str
    num_tables: int
    inference_seconds: float
    planning_seconds: float
    execution_seconds: float
    aborted: bool
    result_cardinality: int
    p_error: float
    q_errors: list[float] = field(default_factory=list)
    join_order: tuple = ()
    methods: list[str] = field(default_factory=list)
    #: Span id of this query's root trace span, when the run was traced.
    trace_id: str | None = None
    #: True when infrastructure around the query broke (estimator
    #: exception, planner error, executor crash, expired campaign
    #: deadline) — distinct from ``aborted``, which is the plan blowing
    #: its row/time budget.  A failed query never counts as aborted and
    #: vice versa.
    failed: bool = False
    #: Final error text when ``failed`` (None otherwise).
    error: str | None = None
    #: Sub-plan estimates served by the PostgreSQL-default fallback
    #: because the estimator failed on them.
    fallback_estimates: int = 0

    @property
    def end_to_end_seconds(self) -> float:
        return self.inference_seconds + self.planning_seconds + self.execution_seconds


@dataclass
class EstimatorRun:
    """All query runs of one estimator over one workload."""

    estimator_name: str
    workload_name: str
    query_runs: list[QueryRun] = field(default_factory=list)

    @property
    def aborted_count(self) -> int:
        return sum(1 for run in self.query_runs if run.aborted)

    @property
    def failed_count(self) -> int:
        """Queries lost to infrastructure failures (never aborts)."""
        return sum(1 for run in self.query_runs if run.failed)

    def total_execution_seconds(self, penalty: dict[str, float] | None = None) -> float:
        """Sum of execution times; aborted runs take their penalty."""
        total = 0.0
        for run in self.query_runs:
            if run.aborted and penalty is not None:
                total += penalty.get(run.query_name, run.execution_seconds)
            else:
                total += run.execution_seconds
        return total

    def total_inference_seconds(self) -> float:
        """Sum of estimator inference times only."""
        return sum(r.inference_seconds for r in self.query_runs)

    def total_planning_seconds(self) -> float:
        """Sum of DP planning times only (inference excluded).

        Before the observability split this accessor silently folded
        inference time in; use :meth:`total_inference_seconds` for that
        component.
        """
        return sum(r.planning_seconds for r in self.query_runs)

    def total_end_to_end_seconds(self, penalty: dict[str, float] | None = None) -> float:
        return (
            self.total_execution_seconds(penalty)
            + self.total_inference_seconds()
            + self.total_planning_seconds()
        )

    def all_q_errors(self) -> list[float]:
        return [q for run in self.query_runs for q in run.q_errors]

    def all_p_errors(self) -> list[float]:
        return [run.p_error for run in self.query_runs]


#: Error text recorded on queries that could not start before the
#: campaign deadline expired.  Such runs are *not* checkpointed, so a
#: later ``--resume`` still gets to complete them.
CAMPAIGN_DEADLINE_ERROR = "campaign deadline exceeded"


def _campaign_deadline_run(labeled: LabeledQuery) -> QueryRun:
    return failed_query_run(labeled, CAMPAIGN_DEADLINE_ERROR)


def failed_query_run(labeled: LabeledQuery, error: str) -> QueryRun:
    """A synthetic failed run for a query that never produced a result.

    Used for campaign-deadline skips and for queries whose worker
    crashed past the requeue budget — the result set stays complete
    (one QueryRun per query) with the loss recorded instead of silent.
    """
    return QueryRun(
        query_name=labeled.query.name,
        num_tables=labeled.query.num_tables,
        inference_seconds=0.0,
        planning_seconds=0.0,
        execution_seconds=0.0,
        aborted=False,
        result_cardinality=-1,
        p_error=float("nan"),
        failed=True,
        error=error,
    )


def _deadline_skip(run: QueryRun) -> bool:
    return run.failed and run.error == CAMPAIGN_DEADLINE_ERROR


def abort_penalties(
    baseline: EstimatorRun,
    factor: float = 10.0,
    floor_seconds: float = 1.0,
) -> dict[str, float]:
    """Per-query penalty times for aborted executions.

    An aborted execution is 'too slow to finish'; we charge ``factor``
    times the baseline (TrueCard) execution time of the same query —
    conservative relative to the paper, where such queries simply time
    out the whole workload run.
    """
    return {
        run.query_name: max(run.execution_seconds * factor, floor_seconds)
        for run in baseline.query_runs
    }


class EndToEndBenchmark:
    """Runs estimators through plan-inject-execute on a workload."""

    def __init__(
        self,
        database: Database,
        workload: Workload,
        max_intermediate_rows: int = 20_000_000,
        workers: int = 1,
        timeout_policy: TimeoutPolicy | None = None,
    ):
        self._database = database
        self.workload = workload
        self._planner = Planner(database)
        #: The timeout policy is the one source of every deadline, the
        #: per-execution one included (120 s by default).
        self._timeout_policy = timeout_policy or TimeoutPolicy()
        self._fallback = PostgresDefaultFallback(database)
        # Measurement fidelity: timed executions pay the real cost of
        # every scan and hash build, so this executor has no result-reuse
        # caches, and no timeout of its own (each call passes one).
        self._executor = Executor(
            database, max_intermediate_rows=max_intermediate_rows
        )
        self._workers = max(1, workers)
        #: id(labelled query) -> (it, PPC of its true-cardinality plan);
        #: holding the object keeps its id from being reused.
        self._true_plan_costs: dict[int, tuple[LabeledQuery, float]] = {}

    @property
    def database(self) -> Database:
        return self._database

    @property
    def planner(self) -> Planner:
        return self._planner

    @property
    def workers(self) -> int:
        return self._workers

    def run(
        self,
        estimator: CardinalityEstimator,
        queries: list[LabeledQuery] | None = None,
        checkpoint=None,
    ) -> EstimatorRun:
        """Benchmark ``estimator`` over the workload (or a subset).

        With ``workers > 1`` (set in the constructor) the
        (estimator, query) pairs are fanned across a fork-based process
        pool; results are returned in workload order and per-worker
        metrics are merged into the parent registry.  Estimator
        preparation happens before the fork so children inherit the
        ready state.  Falls back to the serial loop when forking is
        unavailable.

        ``checkpoint`` (a
        :class:`~repro.resilience.checkpoint.CampaignCheckpoint`)
        streams every completed QueryRun to disk as it finishes and
        splices previously-recorded (estimator, query) pairs into the
        result instead of re-running them — pass a checkpoint opened
        with ``CampaignCheckpoint.resume`` to continue an interrupted
        campaign.  Queries skipped because the campaign deadline
        expired are recorded as ``failed`` but *not* checkpointed, so a
        later resume can still complete them.
        """
        if isinstance(estimator, TrueCardEstimator):
            for labeled in self.workload.queries:
                estimator.preload_labeled(labeled)
        # Materialize the outcome counters so metric snapshots always
        # carry them, even for campaigns with zero aborts/failures.
        obs_metrics.registry().counter("benchmark.aborted_queries")
        obs_metrics.registry().counter("benchmark.failed_queries")
        result = EstimatorRun(
            estimator_name=estimator.name,
            workload_name=self.workload.name,
        )
        run_queries = list(queries if queries is not None else self.workload.queries)
        campaign_deadline = Deadline.after(self._timeout_policy.campaign_seconds)

        slots: list[QueryRun | None] = [None] * len(run_queries)
        fresh: list[tuple[int, LabeledQuery]] = []
        for index, labeled in enumerate(run_queries):
            prior = (
                checkpoint.get(estimator.name, labeled.query.name)
                if checkpoint is not None
                else None
            )
            if prior is not None:
                slots[index] = prior
            else:
                fresh.append((index, labeled))

        obs_progress.begin_campaign(
            total=len(run_queries),
            estimator=estimator.name,
            workload=self.workload.name,
        )
        with obs_events.context(
            estimator=estimator.name, workload=self.workload.name
        ):
            obs_events.emit(
                "campaign.begin",
                total=len(run_queries),
                resumed=len(run_queries) - len(fresh),
                workers=self._workers,
            )
            # Checkpoint-spliced pairs count toward live progress so a
            # resumed campaign's view starts where the last one stopped.
            for index, run in enumerate(slots):
                if run is not None:
                    obs_progress.record_result(run, index=index)

            def complete(index: int, labeled: LabeledQuery, run: QueryRun) -> None:
                slots[index] = run
                if checkpoint is not None and not _deadline_skip(run):
                    checkpoint.append(estimator.name, run)
                obs_progress.record_result(run, index=index)
                obs_events.emit(
                    "query.completed",
                    level="warning" if run.failed else "info",
                    query=run.query_name,
                    failed=run.failed,
                    aborted=run.aborted,
                    seconds=round(run.end_to_end_seconds, 6),
                    error=run.error,
                )

            if self._workers > 1 and len(fresh) > 1 and fork_available():
                fresh_queries = [labeled for _, labeled in fresh]
                runs = run_parallel(
                    self,
                    estimator,
                    fresh_queries,
                    self._workers,
                    campaign_deadline=campaign_deadline,
                    on_complete=lambda position, run: complete(
                        fresh[position][0], fresh[position][1], run
                    ),
                )
                for (index, labeled), run in zip(fresh, runs):
                    if slots[index] is None:
                        slots[index] = run
            else:
                for index, labeled in fresh:
                    if campaign_deadline.expired:
                        run = _campaign_deadline_run(labeled)
                        obs_metrics.registry().counter(
                            "benchmark.failed_queries"
                        ).inc()
                    else:
                        run = self._run_query(estimator, labeled, campaign_deadline)
                    complete(index, labeled, run)
            result.query_runs.extend(slots)
            obs_events.emit(
                "campaign.end",
                total=len(run_queries),
                failed=result.failed_count,
                aborted=result.aborted_count,
            )
        obs_progress.end_campaign()
        return result

    def _true_plan_cost(
        self, labeled: LabeledQuery, true_cards: dict[frozenset[str], float]
    ) -> float:
        """P-Error's denominator, planned once per labelled query."""
        entry = self._true_plan_costs.get(id(labeled))
        if entry is None:
            cost = true_plan_cost(self._planner, labeled.query, true_cards)
            entry = self._true_plan_costs[id(labeled)] = (labeled, cost)
        return entry[1]

    def _run_query(
        self,
        estimator: CardinalityEstimator,
        labeled: LabeledQuery,
        campaign_deadline: Deadline | None = None,
    ) -> QueryRun:
        """Run one (estimator, query) pair with per-phase failure isolation.

        An exception in inference, planning, P-Error costing or
        execution marks the run ``failed`` (with the error recorded)
        instead of propagating; ``ExecutionAborted`` keeps its distinct
        ``aborted`` meaning.  Only ``BaseException``s that are not
        ``Exception``s (KeyboardInterrupt, SystemExit, a dying worker)
        escape — those legitimately end the campaign, and the
        checkpoint/parallel layers handle them.
        """
        query = labeled.query
        true_cards = {
            subset: float(count)
            for subset, count in labeled.sub_plan_true_cards.items()
        }
        policy = self._timeout_policy
        deadline = Deadline.earliest(
            Deadline.after(policy.per_query_seconds), campaign_deadline
        )
        registry = obs_metrics.registry()
        failed = False
        errors: list[str] = []

        with obs_trace.span(
            "query", name=query.name, estimator=estimator.name
        ) as query_span, obs_events.context(query=query.name):
            trace_id = getattr(query_span, "span_id", None)
            obs_events.emit("query.start", num_tables=query.num_tables)

            # The ``inference`` child span is opened inside the pricing
            # pass, next to the per-sub-plan latency histogram.
            started = time.perf_counter()
            inference = price_sub_plans(
                estimator,
                query,
                fallback=self._fallback,
                deadline=deadline,
            )
            inference_seconds = time.perf_counter() - started
            estimates = inference.cards
            if inference.failed:
                failed = True
                errors.append(inference.error_summary())

            started = time.perf_counter()
            planned = None
            with obs_trace.span("planning", query=query.name):
                try:
                    planned = self._planner.plan(query, estimates)
                except Exception as exc:
                    failed = True
                    errors.append(f"planning failed: {type(exc).__name__}: {exc}")
            planning_seconds = time.perf_counter() - started

            q_errors = [
                q_error(estimates[subset], true_cards[subset])
                for subset in estimates
            ]
            perr = float("nan")
            if planned is not None:
                try:
                    perr = p_error(
                        self._planner,
                        query,
                        estimates,
                        true_cards,
                        estimated_plan=planned.plan,
                        true_cost=self._true_plan_cost(labeled, true_cards),
                    )
                except Exception as exc:
                    failed = True
                    errors.append(f"p_error failed: {type(exc).__name__}: {exc}")

            aborted = False
            cardinality = -1
            execution_seconds = 0.0
            if planned is not None:
                with obs_trace.span(
                    "execution", query=query.name
                ) as execution_span:
                    started = time.perf_counter()
                    try:
                        execution = self._executor.execute(
                            planned.plan,
                            timeout_seconds=deadline.tightest(policy.execution_seconds),
                        )
                        execution_seconds = execution.elapsed_seconds
                        cardinality = execution.cardinality
                        execution_span.set(rows=cardinality)
                    except ExecutionAborted:
                        # The paper's "> 25h" outcome: the plan blew its
                        # row/time budget.
                        aborted = True
                        execution_seconds = time.perf_counter() - started
                        execution_span.set(aborted=True)
                        registry.counter("benchmark.aborted_queries").inc()
                    except Exception as exc:
                        failed = True
                        execution_seconds = time.perf_counter() - started
                        errors.append(
                            f"execution failed: {type(exc).__name__}: {exc}"
                        )
                        execution_span.set(failed=True)

            if failed:
                registry.counter("benchmark.failed_queries").inc()
                query_span.set(failed=True)

        return QueryRun(
            query_name=query.name,
            num_tables=query.num_tables,
            inference_seconds=inference_seconds,
            planning_seconds=planning_seconds,
            execution_seconds=execution_seconds,
            aborted=aborted,
            result_cardinality=cardinality,
            p_error=perr,
            q_errors=q_errors,
            join_order=join_order_signature(planned.plan) if planned else (),
            methods=plan_methods(planned.plan) if planned else [],
            trace_id=trace_id,
            failed=failed,
            error="; ".join(errors) if errors else None,
            fallback_estimates=inference.fallback_count,
        )
