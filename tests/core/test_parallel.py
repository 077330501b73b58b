"""Tests for the multi-process workload runner."""

import os

import pytest

from repro.core.benchmark import EndToEndBenchmark
from repro.core.parallel import default_workers, fork_available
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.obs import metrics as obs_metrics

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def bench(stats_db, stats_workload):
    return EndToEndBenchmark(stats_db, stats_workload)


@pytest.fixture(scope="module")
def pool_bench(stats_db, stats_workload):
    return EndToEndBenchmark(stats_db, stats_workload, workers=2)


@pytest.fixture(scope="module")
def subset(stats_workload):
    return stats_workload.queries[:6]


class TestHelpers:
    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_default_workers_respects_affinity(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("sched_getaffinity unavailable")
        assert default_workers() == max(1, len(os.sched_getaffinity(0)))

    def test_workers_clamped(self, stats_db, stats_workload):
        assert EndToEndBenchmark(stats_db, stats_workload, workers=0).workers == 1


@needs_fork
class TestSerialEquivalence:
    """A parallel run must be observably identical to a serial one."""

    @pytest.fixture(scope="class")
    def runs(self, bench, pool_bench, stats_db, subset):
        estimator = PostgresEstimator().fit(stats_db)
        serial = bench.run(estimator, queries=subset)
        parallel = pool_bench.run(estimator, queries=subset)
        return serial, parallel

    def test_query_order_preserved(self, runs, subset):
        serial, parallel = runs
        names = [labeled.query.name for labeled in subset]
        assert [r.query_name for r in serial.query_runs] == names
        assert [r.query_name for r in parallel.query_runs] == names

    def test_results_identical(self, runs):
        serial, parallel = runs
        for s, p in zip(serial.query_runs, parallel.query_runs):
            assert s.result_cardinality == p.result_cardinality
            assert s.aborted == p.aborted

    def test_q_errors_identical(self, runs):
        serial, parallel = runs
        for s, p in zip(serial.query_runs, parallel.query_runs):
            assert s.q_errors == p.q_errors

    def test_p_errors_identical(self, runs):
        serial, parallel = runs
        for s, p in zip(serial.query_runs, parallel.query_runs):
            assert s.p_error == p.p_error

    def test_join_orders_and_methods_identical(self, runs):
        serial, parallel = runs
        for s, p in zip(serial.query_runs, parallel.query_runs):
            assert s.join_order == p.join_order
            assert s.methods == p.methods


@needs_fork
class TestMetricsMerge:
    def test_worker_metrics_reach_parent(self, pool_bench, stats_db, subset):
        estimator = TrueCardEstimator().fit(stats_db)
        obs_metrics.reset()
        pool_bench.run(estimator, queries=subset)
        counters = obs_metrics.snapshot()["counters"]
        # Planning happens inside the workers; the merged registry must
        # carry at least one plan per query.
        assert counters.get("planner.plans", 0) >= len(subset)
        obs_metrics.reset()


@needs_fork
class TestLiveTelemetryStreaming:
    """Workers stream per-query completions; the parent owns telemetry."""

    def test_parallel_campaign_feeds_events_and_progress(
        self, tmp_path, pool_bench, stats_db, subset
    ):
        from repro.obs import events as obs_events
        from repro.obs import progress as obs_progress
        from repro.obs.events import load_events

        estimator = PostgresEstimator().fit(stats_db)
        events_path = tmp_path / "live.events.jsonl"
        snapshot_path = tmp_path / "live.prom"
        with (
            obs_events.use_event_log(events_path, level="debug"),
            obs_progress.use_progress(snapshot_path) as tracker,
        ):
            run = pool_bench.run(estimator, queries=subset)

        assert len(run.query_runs) == len(subset)
        # The parent aggregated every streamed completion.
        assert tracker.done == len(subset)
        assert tracker.failed == 0

        events = load_events(events_path)
        names = [record["event"] for record in events]
        assert names.count("campaign.begin") == 1
        assert names.count("campaign.end") == 1
        assert names.count("query.completed") == len(subset)
        # Claims are streamed from workers and logged by the parent
        # with the claiming worker's pid.
        claims = [e for e in events if e["event"] == "query.claimed"]
        assert len(claims) == len(subset)
        assert all(isinstance(e.get("worker"), int) for e in claims)
        assert {e["query"] for e in claims} == {
            labeled.query.name for labeled in subset
        }

        # The Prometheus snapshot reflects the terminal state.
        text = snapshot_path.read_text()
        assert f"repro_campaign_queries_total {float(len(subset))!r}" in text
        assert f"repro_campaign_queries_done {float(len(subset))!r}" in text


class TestSerialFallback:
    def test_single_worker_runs_serially(self, bench, stats_db, subset):
        estimator = PostgresEstimator().fit(stats_db)
        run = bench.run(estimator, queries=subset[:2])
        assert len(run.query_runs) == 2

    def test_single_query_avoids_pool(self, stats_db, stats_workload, subset):
        estimator = PostgresEstimator().fit(stats_db)
        bench = EndToEndBenchmark(stats_db, stats_workload, workers=4)
        run = bench.run(estimator, queries=subset[:1])
        assert len(run.query_runs) == 1
