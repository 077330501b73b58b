"""Worker-crash recovery proofs for the multi-process runner.

A forked worker killed mid-query (``os._exit`` — the stand-in for a
segfault or OOM kill) must cost the run at most that one in-flight
query, once: the parent detects the death, requeues the query to a
replacement worker, and the campaign still returns every result.
"""

import multiprocessing

import pytest

from repro.core.benchmark import CAMPAIGN_DEADLINE_ERROR, EndToEndBenchmark
from repro.core.parallel import fork_available, run_parallel
from repro.estimators.postgres import PostgresEstimator
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.events import load_events
from repro.resilience import CampaignCheckpoint, TimeoutPolicy

from tests.resilience.faults import FailingEstimator, WorkerKillingEstimator

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def subset(stats_workload):
    return stats_workload.queries[:6]


@pytest.fixture(scope="module")
def bench(stats_db, stats_workload):
    return EndToEndBenchmark(stats_db, stats_workload, workers=2)


@pytest.fixture(scope="module")
def postgres(stats_db):
    return PostgresEstimator().fit(stats_db)


@needs_fork
class TestCrashRecovery:
    def test_killed_worker_loses_only_its_query_once(
        self, bench, subset, postgres, stats_workload, tmp_path
    ):
        """Acceptance proof: kill one worker mid-query; the query is
        requeued exactly once, the replacement completes it, and the
        run returns all results with nothing failed.  Only the victim is
        claimed twice: the crash redispatched nothing else."""
        victim = subset[2].query.name
        estimator = WorkerKillingEstimator(
            postgres, kill_queries={victim}, marker_path=tmp_path / "crashed-once"
        )
        events_path = tmp_path / "crash.events.jsonl"
        obs_metrics.reset()
        with obs_events.use_event_log(events_path, level="debug"):
            run = bench.run(estimator, queries=subset)

        assert len(run.query_runs) == len(subset)
        assert run.failed_count == 0
        labels = {q.query.name: q.true_cardinality for q in stats_workload}
        for query_run in run.query_runs:
            if not query_run.aborted:
                assert query_run.result_cardinality == labels[query_run.query_name]
        counters = obs_metrics.snapshot()["counters"]
        assert counters["benchmark.worker_crashes"] == 1
        obs_metrics.reset()

        claims = [
            record["query"]
            for record in load_events(events_path)
            if record["event"] == "query.claimed"
        ]
        for labeled in subset:
            name = labeled.query.name
            assert claims.count(name) == (2 if name == victim else 1), name

    def test_deterministic_crasher_bounded_and_recorded(
        self, bench, subset, postgres
    ):
        """A query that kills *every* worker that touches it must burn
        its bounded requeue budget and end up failed — not crash-loop —
        while every other query still completes."""
        victim = subset[1].query.name
        estimator = WorkerKillingEstimator(postgres, kill_queries={victim})
        obs_metrics.reset()
        run = bench.run(estimator, queries=subset)

        assert len(run.query_runs) == len(subset)
        by_name = {r.query_name: r for r in run.query_runs}
        assert by_name[victim].failed is True
        assert "worker crashed" in by_name[victim].error
        others = [r for r in run.query_runs if r.query_name != victim]
        assert all(not r.failed for r in others)
        counters = obs_metrics.snapshot()["counters"]
        # Default budget: 1 requeue -> first crash + requeued crash.
        assert counters["benchmark.worker_crashes"] == 2
        assert counters["benchmark.failed_queries"] == 1
        obs_metrics.reset()

    def test_ordinary_failures_do_not_crash_workers(
        self, bench, subset, postgres
    ):
        """An estimator exception inside a worker uses the normal
        per-query isolation — no worker death, no requeue."""
        victim = subset[0].query.name
        obs_metrics.reset()
        run = bench.run(
            FailingEstimator(postgres, fail_queries={victim}),
            queries=subset,
        )
        by_name = {r.query_name: r for r in run.query_runs}
        assert by_name[victim].failed is True
        assert "inference failed" in by_name[victim].error
        assert sum(1 for r in run.query_runs if r.failed) == 1
        counters = obs_metrics.snapshot()["counters"]
        assert counters.get("benchmark.worker_crashes", 0) == 0
        obs_metrics.reset()


@needs_fork
class TestInterruptSalvage:
    def test_interrupted_run_salvages_completed_runs(
        self, bench, subset, postgres
    ):
        """An interrupt in the parent re-raises with the completed runs
        attached in workload order, their metrics merged, and no worker
        left behind."""
        completed = []

        def interrupt_on_second(position, run):
            completed.append(position)
            if len(completed) == 2:
                raise KeyboardInterrupt

        obs_metrics.reset()
        with pytest.raises(KeyboardInterrupt) as caught:
            run_parallel(bench, postgres, subset, 2, on_complete=interrupt_on_second)

        salvaged = caught.value.salvaged_runs
        assert [r.query_name for r in salvaged] == [
            subset[position].query.name for position in sorted(completed)
        ]
        counters = obs_metrics.snapshot()["counters"]
        assert counters.get("planner.plans", 0) >= len(salvaged)
        assert multiprocessing.active_children() == []
        obs_metrics.reset()


@needs_fork
class TestParallelCheckpoint:
    def test_parallel_run_checkpoints_every_completion(
        self, bench, subset, postgres, stats_db, stats_workload, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            first = bench.run(postgres, queries=subset, checkpoint=checkpoint)
        resumed = CampaignCheckpoint.resume(path)
        assert resumed.completed_queries(postgres.name) == {
            labeled.query.name for labeled in subset
        }
        # Resuming serially splices the parallel results bit-identically.
        serial = EndToEndBenchmark(stats_db, stats_workload)
        with CampaignCheckpoint.resume(path) as checkpoint:
            second = serial.run(postgres, queries=subset, checkpoint=checkpoint)
        assert second.query_runs == first.query_runs


@needs_fork
class TestParallelCampaignDeadline:
    def test_expired_deadline_fails_unfinished_queries(
        self, stats_db, stats_workload, subset, postgres
    ):
        bench = EndToEndBenchmark(
            stats_db,
            stats_workload,
            timeout_policy=TimeoutPolicy(campaign_seconds=0.0),
            workers=2,
        )
        run = bench.run(postgres, queries=subset)
        assert len(run.query_runs) == len(subset)
        assert all(
            r.failed and r.error == CAMPAIGN_DEADLINE_ERROR for r in run.query_runs
        )
