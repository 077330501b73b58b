"""Batch-aware observability: metric names and meanings stay fixed.

The batched inference hot path must keep the pre-batching metric
contract — ``injection.sub_plans_estimated`` counts sub-plans priced
(not batch calls), ``inference.latency_seconds.<estimator>`` holds one
amortised observation per sub-plan (count == sub-plans, sum == wall
seconds), and the new ``inference.batch_size.<estimator>`` histogram
records the batch shape.  The blame engine consumes batched estimates
directly, so a batched campaign must still be blameable.
"""

import types

import pytest

from repro.core.injection import (
    estimate_sub_plans,
    price_sub_plans,
    record_batch_inference,
    sub_plan_sets,
)
from repro.estimators.postgres import PostgresEstimator
from repro.experiments.blame import blame_workload
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.resilience.fallback import PostgresDefaultFallback


@pytest.fixture(scope="module")
def postgres(stats_db):
    return PostgresEstimator().fit(stats_db)


@pytest.fixture(scope="module")
def multi_query(stats_workload):
    labeled = next(
        q for q in stats_workload.queries if q.query.num_tables >= 3
    )
    return labeled.query


@pytest.fixture()
def traced():
    obs_metrics.reset()
    with obs_trace.use_tracer():
        yield
    obs_metrics.reset()


def _snapshot():
    return obs_metrics.snapshot()


class TestMetricNames:
    def test_record_batch_inference_contract(self):
        obs_metrics.reset()
        record_batch_inference("Demo", 4, 0.08)
        snapshot = _snapshot()
        assert snapshot["counters"]["injection.sub_plans_estimated"] == 4
        latency = snapshot["histograms"]["inference.latency_seconds.Demo"]
        assert latency["count"] == 4
        assert latency["sum"] == pytest.approx(0.08)
        batch = snapshot["histograms"]["inference.batch_size.Demo"]
        assert batch["count"] == 1
        assert batch["sum"] == 4.0
        obs_metrics.reset()

    def test_empty_batch_records_nothing(self):
        obs_metrics.reset()
        record_batch_inference("Demo", 0, 0.0)
        snapshot = _snapshot()
        assert "injection.sub_plans_estimated" not in snapshot["counters"]
        assert "inference.batch_size.Demo" not in snapshot["histograms"]
        obs_metrics.reset()

    def test_injection_pass_keeps_metric_meanings(
        self, traced, postgres, multi_query
    ):
        num_sub_plans = len(sub_plan_sets(multi_query))
        assert num_sub_plans >= 3
        estimate_sub_plans(postgres, multi_query)
        snapshot = _snapshot()
        assert (
            snapshot["counters"]["injection.sub_plans_estimated"]
            == num_sub_plans
        )
        latency = snapshot["histograms"][
            f"inference.latency_seconds.{postgres.name}"
        ]
        assert latency["count"] == num_sub_plans
        batch = snapshot["histograms"][f"inference.batch_size.{postgres.name}"]
        assert batch["count"] == 1
        assert batch["sum"] == float(num_sub_plans)

    def test_resilient_batch_path_matches_injection_metrics(
        self, traced, postgres, multi_query, stats_db
    ):
        num_sub_plans = len(sub_plan_sets(multi_query))
        outcome = price_sub_plans(
            postgres, multi_query, fallback=PostgresDefaultFallback(stats_db)
        )
        assert not outcome.failed
        assert len(outcome.cards) == num_sub_plans
        snapshot = _snapshot()
        assert (
            snapshot["counters"]["injection.sub_plans_estimated"]
            == num_sub_plans
        )
        latency = snapshot["histograms"][
            f"inference.latency_seconds.{postgres.name}"
        ]
        assert latency["count"] == num_sub_plans
        # The no-fault path never touches degradation machinery.
        assert "resilience.batch_inference_degraded" not in snapshot["counters"]

    def test_untraced_pass_records_no_metrics(self, postgres, multi_query):
        assert not obs_trace.is_active()
        obs_metrics.reset()
        estimate_sub_plans(postgres, multi_query)
        snapshot = _snapshot()
        assert "injection.sub_plans_estimated" not in snapshot["counters"]
        obs_metrics.reset()


class TestBlameOnBatchedRuns:
    def test_blame_workload_consumes_batched_estimates(
        self, stats_db, stats_workload, postgres
    ):
        subset = [
            q for q in stats_workload.queries if q.query.num_tables >= 2
        ][:2]
        workload = types.SimpleNamespace(name="batched-subset", queries=subset)
        report = blame_workload(stats_db, workload, postgres)
        assert len(report.queries) == len(subset)
        for blame in report.queries:
            assert blame.attributions
