"""Tests for the end-to-end benchmark driver."""

import time

import pytest

from repro.core.benchmark import EndToEndBenchmark, abort_penalties
from repro.engine.executor import ExecutionAborted
from repro.engine.planner import Planner
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.obs import metrics as obs_metrics
from repro.resilience import TimeoutPolicy


@pytest.fixture(scope="module")
def bench(stats_db, stats_workload):
    return EndToEndBenchmark(stats_db, stats_workload)


@pytest.fixture(scope="module")
def truecard_run(bench, stats_db):
    estimator = TrueCardEstimator().fit(stats_db)
    return bench.run(estimator)


@pytest.fixture(scope="module")
def postgres_run(bench, stats_db):
    return bench.run(PostgresEstimator().fit(stats_db))


class TestTrueCardRun:
    def test_one_run_per_query(self, truecard_run, stats_workload):
        assert len(truecard_run.query_runs) == len(stats_workload)

    def test_no_aborts(self, truecard_run):
        assert truecard_run.aborted_count == 0

    def test_p_error_is_one(self, truecard_run):
        for run in truecard_run.query_runs:
            assert run.p_error == pytest.approx(1.0)

    def test_q_errors_are_one(self, truecard_run):
        for run in truecard_run.query_runs:
            assert max(run.q_errors) == pytest.approx(1.0)

    def test_execution_matches_label(self, truecard_run, stats_workload):
        labels = {q.query.name: q.true_cardinality for q in stats_workload}
        for run in truecard_run.query_runs:
            assert run.result_cardinality == labels[run.query_name]

    def test_timings_positive(self, truecard_run):
        for run in truecard_run.query_runs:
            assert run.execution_seconds > 0
            assert run.end_to_end_seconds >= run.execution_seconds


class TestEstimatorRun:
    def test_postgres_results_match_truth(self, postgres_run, stats_workload):
        """Whatever plan is chosen, the answer must be correct."""
        labels = {q.query.name: q.true_cardinality for q in stats_workload}
        for run in postgres_run.query_runs:
            if not run.aborted:
                assert run.result_cardinality == labels[run.query_name]

    def test_p_errors_at_least_one(self, postgres_run):
        for run in postgres_run.query_runs:
            assert run.p_error >= 1.0 - 1e-9

    def test_p_error_is_the_four_argument_p_error(
        self, bench, postgres_run, stats_db, stats_workload
    ):
        """The harness hands its plan over and plans the true
        cardinalities once per labelled query; the metric on its own
        plans both.  Same numbers, on a first and on a repeated run."""
        from repro.core.injection import estimate_sub_plans
        from repro.core.metrics import p_error

        estimator = PostgresEstimator().fit(stats_db)
        again = bench.run(estimator)
        for labeled, first, second in zip(
            stats_workload, postgres_run.query_runs, again.query_runs
        ):
            true_cards = {
                s: float(c) for s, c in labeled.sub_plan_true_cards.items()
            }
            estimates = estimate_sub_plans(estimator, labeled.query)
            expected = p_error(bench.planner, labeled.query, estimates, true_cards)
            assert first.p_error == second.p_error == expected

    def test_q_errors_cover_subplan_space(self, postgres_run, stats_workload):
        from repro.core.injection import sub_plan_sets

        by_name = {q.query.name: q.query for q in stats_workload}
        for run in postgres_run.query_runs:
            assert len(run.q_errors) == len(sub_plan_sets(by_name[run.query_name]))

    def test_plan_metadata_recorded(self, postgres_run):
        for run in postgres_run.query_runs:
            assert run.join_order
            assert run.methods

    def test_aggregates(self, postgres_run):
        total = postgres_run.total_end_to_end_seconds()
        assert total == pytest.approx(
            postgres_run.total_execution_seconds()
            + postgres_run.total_inference_seconds()
            + postgres_run.total_planning_seconds()
        )
        assert len(postgres_run.all_p_errors()) == len(postgres_run.query_runs)
        assert len(postgres_run.all_q_errors()) >= len(postgres_run.query_runs)

    def test_inference_and_planning_split(self, postgres_run):
        """The split accessors cover disjoint components."""
        inference = postgres_run.total_inference_seconds()
        planning = postgres_run.total_planning_seconds()
        assert inference == pytest.approx(
            sum(r.inference_seconds for r in postgres_run.query_runs)
        )
        assert planning == pytest.approx(
            sum(r.planning_seconds for r in postgres_run.query_runs)
        )


class TestPenalties:
    def test_abort_penalties_scale_baseline(self, truecard_run):
        penalties = abort_penalties(truecard_run, factor=10.0, floor_seconds=0.5)
        assert set(penalties) == {r.query_name for r in truecard_run.query_runs}
        assert all(value >= 0.5 for value in penalties.values())

    def test_abort_penalty_factor_math(self, truecard_run):
        """Each penalty is exactly max(baseline_exec * factor, floor)."""
        factor, floor = 7.0, 0.25
        penalties = abort_penalties(
            truecard_run, factor=factor, floor_seconds=floor
        )
        for run in truecard_run.query_runs:
            assert penalties[run.query_name] == pytest.approx(
                max(run.execution_seconds * factor, floor)
            )

    def test_floor_dominates_fast_baselines(self, truecard_run):
        penalties = abort_penalties(
            truecard_run, factor=0.0, floor_seconds=3.0
        )
        assert all(value == 3.0 for value in penalties.values())

    def test_penalty_applied_only_to_aborted(self, postgres_run, truecard_run):
        penalties = abort_penalties(truecard_run)
        with_penalty = postgres_run.total_execution_seconds(penalties)
        without = postgres_run.total_execution_seconds()
        if postgres_run.aborted_count == 0:
            assert with_penalty == pytest.approx(without)
        else:
            assert with_penalty > without


class TestSubsetRuns:
    def test_run_on_subset(self, bench, stats_db, stats_workload):
        estimator = PostgresEstimator().fit(stats_db)
        subset = stats_workload.queries[:3]
        run = bench.run(estimator, queries=subset)
        assert len(run.query_runs) == 3


class TestAbortAccounting:
    def test_aborted_query_accounting(self, stats_db, stats_workload, truecard_run):
        """An execution abort must flag the run, keep a wall-clock
        execution time, execute once, and take its penalty in the
        aggregation."""
        aborting = EndToEndBenchmark(
            stats_db, stats_workload, max_intermediate_rows=1
        )
        execute_calls = []
        original_execute = aborting._executor.execute

        def counting_execute(plan, **kwargs):
            execute_calls.append(plan)
            return original_execute(plan, **kwargs)

        aborting._executor.execute = counting_execute
        estimator = TrueCardEstimator().fit(stats_db)
        subset = stats_workload.queries[:2]
        run = aborting.run(estimator, queries=subset)

        assert run.aborted_count == len(subset)
        for query_run in run.query_runs:
            assert query_run.aborted is True
            assert query_run.execution_seconds > 0  # wall clock, not -1/NaN
            assert query_run.result_cardinality == -1
        # One execute attempt per query.
        assert len(execute_calls) == len(subset)

        penalties = abort_penalties(truecard_run)
        total = run.total_execution_seconds(penalties)
        assert total == pytest.approx(
            sum(penalties[r.query_name] for r in run.query_runs)
        )
        # Without penalties the raw (tiny) wall-clock times are used.
        assert run.total_execution_seconds() < total

    def test_aborted_execution_reports_its_own_elapsed(
        self, stats_db, stats_workload
    ):
        """An aborted execution runs once and is charged the time the
        executor spent before it gave up."""
        bench = EndToEndBenchmark(stats_db, stats_workload)
        calls = []
        spent_seconds = 0.05

        def aborting_execute(plan, **kwargs):
            calls.append(plan)
            time.sleep(spent_seconds)
            raise ExecutionAborted("row budget exceeded")

        bench._executor.execute = aborting_execute
        estimator = TrueCardEstimator().fit(stats_db)
        run = bench.run(estimator, queries=stats_workload.queries[:1])

        (query_run,) = run.query_runs
        assert len(calls) == 1
        assert query_run.aborted is True
        assert query_run.failed is False
        assert query_run.execution_seconds >= spent_seconds


class TestFailedVersusAborted:
    """``failed`` (infrastructure broke) and ``aborted`` (the plan blew
    its row/time budget) are distinct outcomes that never overlap."""

    def test_abort_is_not_a_failure(self, stats_db, stats_workload):
        aborting = EndToEndBenchmark(
            stats_db, stats_workload, max_intermediate_rows=1
        )
        estimator = TrueCardEstimator().fit(stats_db)
        run = aborting.run(estimator, queries=stats_workload.queries[:2])
        assert run.aborted_count == len(run.query_runs)
        assert run.failed_count == 0
        for query_run in run.query_runs:
            assert query_run.aborted is True
            assert query_run.failed is False
            assert query_run.error is None

    def test_executor_error_is_a_failure_not_an_abort(
        self, stats_db, stats_workload
    ):
        bench = EndToEndBenchmark(stats_db, stats_workload)

        def broken_execute(plan, **kwargs):
            raise RuntimeError("executor blew up")

        bench._executor.execute = broken_execute
        estimator = TrueCardEstimator().fit(stats_db)
        run = bench.run(estimator, queries=stats_workload.queries[:2])
        assert run.failed_count == len(run.query_runs)
        assert run.aborted_count == 0
        for query_run in run.query_runs:
            assert query_run.failed is True
            assert query_run.aborted is False
            assert "executor blew up" in query_run.error

    def test_policy_execution_timeout_aborts(self, stats_db, stats_workload):
        """The timeout policy is the one source of the execution
        timeout: an already-expired ``execution_seconds``, with no
        per-query or campaign deadline, aborts every query."""
        bench = EndToEndBenchmark(
            stats_db,
            stats_workload,
            timeout_policy=TimeoutPolicy(execution_seconds=-1.0),
        )
        estimator = TrueCardEstimator().fit(stats_db)
        run = bench.run(estimator, queries=stats_workload.queries[:3])
        assert run.aborted_count == len(run.query_runs) == 3
        assert run.failed_count == 0

    def test_no_fault_runs_report_neither(self, postgres_run):
        for query_run in postgres_run.query_runs:
            assert query_run.failed is False
            assert query_run.error is None
            assert query_run.fallback_estimates == 0


class TestCachePolicy:
    def test_timed_path_bypasses_exec_cache_by_default(self, bench, stats_db, stats_workload):
        """Measurement fidelity: the timed executor never reuses
        selection vectors or build sides, so running a plan twice
        touches no cache."""
        labeled = max(stats_workload.queries, key=lambda q: len(q.query.tables))
        cards = {s: float(c) for s, c in labeled.sub_plan_true_cards.items()}
        plan = Planner(stats_db).plan(labeled.query, cards).plan
        obs_metrics.reset()
        for _ in range(2):
            bench._executor.execute(plan)
        counters = obs_metrics.snapshot()["counters"]
        assert not {name: n for name, n in counters.items() if name.startswith("cache.") and n}


class TestTraceLinks:
    def test_untraced_runs_have_no_trace_id(self, postgres_run):
        assert all(r.trace_id is None for r in postgres_run.query_runs)

    def test_query_runs_link_to_trace(self, bench, stats_db, stats_workload):
        from repro.obs import trace as obs_trace

        estimator = PostgresEstimator().fit(stats_db)
        subset = stats_workload.queries[:1]
        with obs_trace.use_tracer() as tracer:
            run = bench.run(estimator, queries=subset)
        (query_run,) = run.query_runs
        assert query_run.trace_id is not None
        by_id = {span.span_id: span for span in tracer.spans}
        assert by_id[query_run.trace_id].name == "query"
        children = [
            span for span in tracer.spans if span.parent_id == query_run.trace_id
        ]
        assert {"inference", "planning", "execution"} <= {
            span.name for span in children
        }
        execution = next(span for span in children if span.name == "execution")
        operators = [
            span for span in tracer.spans if span.parent_id == execution.span_id
        ]
        assert operators, "execution span must have per-operator children"
