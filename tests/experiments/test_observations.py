"""Tests for the executable observation checks (small scale)."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.benchmark import EstimatorRun, QueryRun
from repro.experiments import observations
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext


@pytest.fixture(scope="module")
def context(tmp_path_factory):
    config = replace(
        ExperimentConfig.quick(),
        scale=0.08,
        stats_queries=14,
        stats_templates=7,
        imdb_queries=8,
        imdb_templates=5,
        training_queries=20,
        max_cardinality=300_000,
        neurocard_samples=800,
        neurocard_epochs=2,
        query_model_epochs=5,
        cache_dir=tmp_path_factory.mktemp("experiments"),
        workload_cache_dir=tmp_path_factory.mktemp("workloads"),
    )
    return ExperimentContext(config)


class TestStructuralChecks:
    """Checks that hold at any scale (no measurement noise involved)."""

    def test_o9_query_driven_updates(self):
        result = observations.check_o9(None)
        assert result.holds

    def test_o12_o13_q_error_blindness(self):
        result = observations.check_o12_o13(None)
        assert result.holds

    def test_result_rendering(self):
        result = observations.check_o9(None)
        text = result.render()
        assert "O9" in text and "REPRODUCED" in text


class TestCheckList:
    def test_every_observation_is_checked_once_in_paper_order(self):
        expected = [f"check_o{i}" for i in range(1, 12)] + ["check_o12_o13", "check_o14"]
        assert [check.__name__ for check in observations.CHECKS] == expected
        assert observations.check_o9(None).identifier == "O9"
        assert observations.check_o12_o13(None).identifier == "O12/O13"

    def test_run_renders_each_check_once(self, monkeypatch):
        identifiers = [f"O{i}" for i in range(1, 12)] + ["O12/O13", "O14"]
        monkeypatch.setattr(
            observations,
            "CHECKS",
            tuple(
                lambda context, identifier=identifier: observations.ObservationResult(
                    identifier, "claim", True, "stub"
                )
                for identifier in identifiers
            ),
        )
        report = observations.run(None)
        assert report.startswith("Observations report: 13/13 reproduced")
        for identifier in identifiers:
            assert report.count(f"\n{identifier} [REPRODUCED] claim") == 1


def _query_run(name, join_order, seconds, *, failed=False, aborted=False):
    return QueryRun(
        query_name=name,
        num_tables=len(join_order),
        inference_seconds=0.0,
        planning_seconds=0.0,
        execution_seconds=seconds,
        aborted=aborted,
        result_cardinality=0,
        p_error=1.0,
        join_order=join_order,
        failed=failed,
    )


class TestO6Witnesses:
    def test_failed_and_aborted_runs_are_no_witnesses(self):
        """A failed run has no join order and no time, so it always looks
        like a different order at no cost; an aborted TrueCard run is no
        optimal reference.  Only the genuine witness (FLAT, q3) counts."""
        optimal, other = ("a", "b", "c"), ("c", "b", "a")
        runs = {
            "TrueCard": [
                _query_run("q1", optimal, 0.1),
                _query_run("q2", optimal, 1.0, aborted=True),
                _query_run("q3", optimal, 0.1),
            ],
            "BayesCard": [
                _query_run("q1", (), 0.0, failed=True),
                _query_run("q2", optimal, 1.0),
                _query_run("q3", optimal, 0.1),
            ],
            "DeepDB": [
                _query_run("q1", optimal, 0.1),
                _query_run("q2", other, 0.5),
                _query_run("q3", optimal, 0.1),
            ],
            "FLAT": [
                _query_run("q1", optimal, 0.1),
                _query_run("q2", optimal, 1.0),
                _query_run("q3", other, 0.11),
            ],
        }
        records = {
            name: SimpleNamespace(run=EstimatorRun(name, "stats-ceb", query_runs))
            for name, query_runs in runs.items()
        }
        context = SimpleNamespace(evaluate_all=lambda workload, names: records)
        result = observations.check_o6(context)
        assert result.holds
        assert result.evidence == "witnesses (method, query): [('FLAT', 'q3')]"


class TestMeasuredChecks:
    """Measured checks must at least execute and produce evidence; the
    claims themselves are asserted at quick scale by
    benchmarks/bench_observations.py."""

    @pytest.mark.slow
    def test_o5_runs(self, context):
        result = observations.check_o5(context)
        assert result.evidence
        assert isinstance(result.holds, bool)

    @pytest.mark.slow
    def test_o8_runs(self, context):
        result = observations.check_o8(context)
        assert result.evidence
