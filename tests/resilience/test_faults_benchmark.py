"""Fault-injection proofs for the serial benchmark campaign.

These tests inject deterministic estimator/planner/executor faults and
prove the resilience contract: failures are isolated per query,
fallback estimates keep the pipeline moving, deadlines bound runaway
campaigns, and checkpointed campaigns resume bit-identically.
"""

import math

import pytest

from repro.core.benchmark import CAMPAIGN_DEADLINE_ERROR, EndToEndBenchmark
from repro.estimators.postgres import PostgresEstimator
from repro.obs import metrics as obs_metrics
from repro.resilience import CampaignCheckpoint, TimeoutPolicy
from repro.resilience.faults import (
    EstimatorFaultWrapper,
    FailingEstimator,
    FaultyExecutor,
    FlakyEstimator,
    SlowEstimator,
)


class CountingEstimator(EstimatorFaultWrapper):
    """Counts ``estimate`` calls (to prove resumed queries are skipped)."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def estimate(self, query):
        self.calls += 1
        return self._inner.estimate(query)


@pytest.fixture(scope="module")
def subset(stats_workload):
    # Multi-table queries only: the deadline tests rely on a query
    # having more than one sub-plan to degrade.
    multi = [q for q in stats_workload.queries if q.query.num_tables >= 2]
    assert len(multi) >= 3
    return multi[:3]


@pytest.fixture(scope="module")
def postgres(stats_db):
    return PostgresEstimator().fit(stats_db)


@pytest.fixture(scope="module")
def baseline(stats_db, stats_workload, subset, postgres):
    bench = EndToEndBenchmark(stats_db, stats_workload)
    return bench.run(postgres, queries=subset)


def correctness_fields(run):
    return (
        run.query_name,
        run.result_cardinality,
        run.aborted,
        run.q_errors,
        run.p_error,
        run.join_order,
        tuple(run.methods),
    )


class TestFailureIsolation:
    def test_raising_estimator_completes_the_campaign(
        self, stats_db, stats_workload, subset, postgres
    ):
        """The headline property: an estimator that always raises still
        yields a completed campaign — every query marked failed, served
        by fallback estimates, never an exception out of ``run()``."""
        bench = EndToEndBenchmark(stats_db, stats_workload)
        obs_metrics.reset()
        run = bench.run(FailingEstimator(postgres), queries=subset)

        assert len(run.query_runs) == len(subset)
        assert run.failed_count == len(subset)
        assert run.aborted_count == 0
        for query_run in run.query_runs:
            assert query_run.failed is True
            assert "inference failed" in query_run.error
            assert query_run.fallback_estimates > 0
            # Fallback estimates kept the planner/executor moving:
            assert query_run.join_order
            assert query_run.result_cardinality >= 0
            assert query_run.q_errors  # Q-Errors of the fallback estimates
        counters = obs_metrics.snapshot()["counters"]
        assert counters["benchmark.failed_queries"] == len(subset)
        assert counters["resilience.fallback_estimates"] > 0
        obs_metrics.reset()

    def test_failure_is_isolated_to_the_faulty_query(
        self, stats_db, stats_workload, subset, postgres, baseline
    ):
        bench = EndToEndBenchmark(stats_db, stats_workload)
        victim = subset[1].query.name
        run = bench.run(
            FailingEstimator(postgres, fail_queries={victim}), queries=subset
        )
        assert [r.failed for r in run.query_runs] == [False, True, False]
        # Unaffected queries are byte-identical to the no-fault baseline.
        for fault_run, clean_run in zip(run.query_runs, baseline.query_runs):
            if not fault_run.failed:
                assert correctness_fields(fault_run) == correctness_fields(clean_run)

    def test_executor_failure_marks_failed_not_aborted(
        self, stats_db, stats_workload, subset, postgres
    ):
        bench = EndToEndBenchmark(stats_db, stats_workload)
        bench._executor = FaultyExecutor(bench._executor)
        run = bench.run(postgres, queries=subset)
        for query_run in run.query_runs:
            assert query_run.failed is True
            assert query_run.aborted is False
            assert "execution failed" in query_run.error
            assert query_run.result_cardinality == -1
            # Inference/planning/P-Error all survived the executor fault.
            assert query_run.q_errors
            assert query_run.join_order
            assert math.isfinite(query_run.p_error)

    def test_planner_failure_marks_failed(
        self, stats_db, stats_workload, subset, postgres
    ):
        bench = EndToEndBenchmark(stats_db, stats_workload)
        calls = []

        def broken_plan(query, cards):
            calls.append(query.name)
            raise RuntimeError("planner blew up")

        bench._planner.plan = broken_plan
        run = bench.run(postgres, queries=subset)
        # One planning call per query: a failed plan is recorded, not retried.
        assert calls == [labeled.query.name for labeled in subset]
        for query_run in run.query_runs:
            assert query_run.failed is True
            assert query_run.aborted is False
            assert "planning failed: RuntimeError: planner blew up" in query_run.error
            assert query_run.q_errors
            assert query_run.join_order == ()
            assert query_run.result_cardinality == -1

    def test_flaky_estimator_falls_back(
        self, stats_db, stats_workload, subset, postgres
    ):
        bench = EndToEndBenchmark(stats_db, stats_workload)
        run = bench.run(FlakyEstimator(postgres, failures=1), queries=subset)
        assert run.failed_count == len(subset)
        assert all(r.fallback_estimates > 0 for r in run.query_runs)


class TestDeadlines:
    def test_expired_campaign_deadline_fails_remaining_queries(
        self, stats_db, stats_workload, subset, postgres
    ):
        bench = EndToEndBenchmark(
            stats_db,
            stats_workload,
            timeout_policy=TimeoutPolicy(campaign_seconds=0.0),
        )
        run = bench.run(postgres, queries=subset)
        assert len(run.query_runs) == len(subset)
        for query_run in run.query_runs:
            assert query_run.failed is True
            assert query_run.error == CAMPAIGN_DEADLINE_ERROR

    def test_campaign_deadline_skips_are_not_checkpointed(
        self, stats_db, stats_workload, subset, postgres, tmp_path
    ):
        """A deadline-skipped query must stay resumable."""
        bench = EndToEndBenchmark(
            stats_db,
            stats_workload,
            timeout_policy=TimeoutPolicy(campaign_seconds=0.0),
        )
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            bench.run(postgres, queries=subset, checkpoint=checkpoint)
        assert len(CampaignCheckpoint.resume(path)) == 0

    def test_per_query_deadline_degrades_to_fallback(
        self, stats_db, stats_workload, subset, postgres
    ):
        """A slow estimator blowing the per-query budget is degraded —
        remaining sub-plans served by fallback — not hung forever."""
        bench = EndToEndBenchmark(
            stats_db,
            stats_workload,
            timeout_policy=TimeoutPolicy(per_query_seconds=0.05),
        )
        run = bench.run(
            SlowEstimator(postgres, delay_seconds=0.2), queries=subset[:1]
        )
        (query_run,) = run.query_runs
        assert query_run.failed is True
        assert query_run.fallback_estimates > 0
        assert "deadline" in query_run.error


class TestCheckpointResume:
    def test_resume_skips_completed_queries_and_splices_results(
        self, stats_db, stats_workload, subset, postgres, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        bench = EndToEndBenchmark(stats_db, stats_workload)
        with CampaignCheckpoint(path) as checkpoint:
            first = bench.run(postgres, queries=subset, checkpoint=checkpoint)

        counting = CountingEstimator(postgres)
        with CampaignCheckpoint.resume(path) as checkpoint:
            resumed = bench.run(counting, queries=subset, checkpoint=checkpoint)
        assert counting.calls == 0  # everything spliced from the checkpoint
        assert resumed.query_runs == first.query_runs  # bit-identical

    def test_interrupted_campaign_resumes_bit_identically(
        self, stats_db, stats_workload, subset, postgres, tmp_path
    ):
        """Acceptance proof: interrupt after 2 of 3 queries, resume, and
        the combined result set matches an uninterrupted campaign on
        every correctness field."""
        path = tmp_path / "campaign.jsonl"
        bench = EndToEndBenchmark(stats_db, stats_workload)
        # "Interrupted" campaign: only the first two queries completed.
        with CampaignCheckpoint(path) as checkpoint:
            bench.run(postgres, queries=subset[:2], checkpoint=checkpoint)
        with CampaignCheckpoint.resume(path) as checkpoint:
            resumed = bench.run(postgres, queries=subset, checkpoint=checkpoint)

        uninterrupted = bench.run(postgres, queries=subset)
        assert [correctness_fields(r) for r in resumed.query_runs] == [
            correctness_fields(r) for r in uninterrupted.query_runs
        ]
        # And the checkpoint now covers the full campaign.
        assert CampaignCheckpoint.resume(path).completed_queries(
            postgres.name
        ) == {labeled.query.name for labeled in subset}

    def test_failed_queries_are_checkpointed_too(
        self, stats_db, stats_workload, subset, postgres, tmp_path
    ):
        """A terminally failed query is a *completed* outcome: resume
        must not re-run it (unlike deadline skips)."""
        path = tmp_path / "campaign.jsonl"
        bench = EndToEndBenchmark(stats_db, stats_workload)
        victim = subset[0].query.name
        with CampaignCheckpoint(path) as checkpoint:
            bench.run(
                FailingEstimator(postgres, fail_queries={victim}),
                queries=subset[:1],
                checkpoint=checkpoint,
            )
        resumed = CampaignCheckpoint.resume(path)
        recorded = resumed.get(postgres.name, victim)
        assert recorded is not None and recorded.failed is True


class TestNoFaultParity:
    def test_policies_leave_no_fault_runs_unchanged(
        self, stats_db, stats_workload, subset, postgres, baseline
    ):
        """Resilience machinery engaged (per-query budget, campaign
        budget) must not change a single correctness field of a healthy
        campaign."""
        bench = EndToEndBenchmark(
            stats_db,
            stats_workload,
            timeout_policy=TimeoutPolicy(
                per_query_seconds=3600.0, campaign_seconds=3600.0
            ),
        )
        run = bench.run(postgres, queries=subset)
        assert run.failed_count == 0
        assert all(r.fallback_estimates == 0 for r in run.query_runs)
        for policy_run, clean_run in zip(run.query_runs, baseline.query_runs):
            assert correctness_fields(policy_run) == correctness_fields(clean_run)
