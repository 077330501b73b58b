"""Integration tests: the experiment harness end to end (small scale).

Exercises every table/figure module against a miniature context with a
restricted estimator set, checking that the paper-shaped reports
render and that cached evaluation passes round-trip.
"""

import dataclasses
import math
from dataclasses import replace

import pytest

from repro.core.benchmark import EndToEndBenchmark, QueryRun
from repro.experiments import figure2, figure3, table1, table2, table3, table4, table5, table7
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext

METHODS = ("TrueCard", "PostgreSQL", "PessEst", "BayesCard", "FLAT")


@pytest.fixture(scope="module")
def context(tmp_path_factory):
    config = replace(
        ExperimentConfig.quick(),
        scale=0.08,
        stats_queries=12,
        stats_templates=6,
        imdb_queries=8,
        imdb_templates=5,
        training_queries=20,
        max_cardinality=300_000,
        cache_dir=tmp_path_factory.mktemp("experiments"),
        workload_cache_dir=tmp_path_factory.mktemp("workloads"),
    )
    return ExperimentContext(config)


class TestReports:
    def test_table1(self, context):
        output = table1.run(context)
        assert "STATS" in output and "Figure 1" in output

    def test_table2(self, context):
        output = table2.run(context)
        assert "STATS-CEB" in output

    def test_table3(self, context):
        output = table3.run(context, METHODS)
        assert "stats-ceb" in output and "job-light" in output
        assert "PostgreSQL" in output

    def test_table4(self, context):
        output = table4.run(context, ("PessEst", "BayesCard", "FLAT", "TrueCard"))
        assert "# tables" in output

    def test_table5(self, context):
        output = table5.run(context, METHODS)
        assert "TP Exec" in output

    def test_table7(self, context):
        output = table7.run(context, METHODS)
        assert "Q-50%" in output and "P-50%" in output

    def test_figure2(self, context):
        output = figure2.run(context, ("TrueCard", "BayesCard", "FLAT"))
        assert "case study" in output

    def test_figure3(self, context):
        output = figure3.run(context, ("PessEst", "BayesCard", "FLAT"))
        assert "Model size" in output


class TestEvaluationCache:
    def test_record_round_trips(self, context):
        first = context.evaluate("PostgreSQL", "stats-ceb")
        # Drop the in-memory copy; force the disk path.
        context._records.clear()
        second = context.evaluate("PostgreSQL", "stats-ceb")
        assert second.name == first.name
        assert len(second.run.query_runs) == len(first.run.query_runs)
        assert second.run.total_execution_seconds() == pytest.approx(
            first.run.total_execution_seconds()
        )
        assert [r.p_error for r in second.run.query_runs] == pytest.approx(
            [r.p_error for r in first.run.query_runs]
        )

    def test_truecard_is_reference(self, context):
        record = context.evaluate("TrueCard", "stats-ceb")
        assert record.run.aborted_count == 0
        for query_run in record.run.query_runs:
            assert query_run.p_error == pytest.approx(1.0)


def _fields(run: QueryRun, timings: bool = True) -> dict:
    """A QueryRun as a dict that compares NaN-aware (NaN -> None)."""
    fields = {
        key: None if isinstance(value, float) and math.isnan(value) else value
        for key, value in dataclasses.asdict(run).items()
    }
    if not timings:
        for key in ("inference_seconds", "planning_seconds", "execution_seconds"):
            del fields[key]
    return fields


class TestRunCacheCheckpoint:
    """The run cache is a campaign checkpoint: served whole, or resumed."""

    @pytest.mark.parametrize("name", ["PostgreSQL", "TrueCard", "PessEst"])
    def test_cache_hit_is_field_for_field_and_fits_nothing(
        self, context, tmp_path, monkeypatch, name
    ):
        cold = ExperimentContext(replace(context.config, cache_dir=tmp_path))
        first = cold.evaluate(name, "stats-ceb")
        cold._records.clear()
        monkeypatch.setattr(
            cold, "fitted_estimator", lambda *args: pytest.fail("fitted on a hit")
        )
        second = cold.evaluate(name, "stats-ceb")
        assert (second.name, second.workload) == (first.name, first.workload)
        assert second.training_seconds == first.training_seconds
        assert second.model_size_bytes == first.model_size_bytes
        assert second.run.estimator_name == first.run.estimator_name
        assert second.run.workload_name == first.run.workload_name
        assert [_fields(run) for run in second.run.query_runs] == [
            _fields(run) for run in first.run.query_runs
        ]

    def test_partial_file_runs_only_the_missing_queries(
        self, context, tmp_path, monkeypatch
    ):
        config = replace(context.config, cache_dir=tmp_path)
        fresh = ExperimentContext(config).evaluate("PostgreSQL", "stats-ceb")
        (path,) = (tmp_path / "runs").glob("PostgreSQL-stats-ceb-*.jsonl")
        kept = 5
        # Header plus the first ``kept`` query runs: a pass killed mid-way.
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: 1 + kept]))

        ran = []
        run_query = EndToEndBenchmark._run_query

        def spy(self, estimator, labeled, *args):
            ran.append(labeled.query.name)
            return run_query(self, estimator, labeled, *args)

        monkeypatch.setattr(EndToEndBenchmark, "_run_query", spy)
        resumed = ExperimentContext(config).evaluate("PostgreSQL", "stats-ceb")
        assert ran == [run.query_name for run in fresh.run.query_runs[kept:]]
        assert [_fields(run, timings=False) for run in resumed.run.query_runs] == [
            _fields(run, timings=False) for run in fresh.run.query_runs
        ]
        # The resumed pass completed the file: the next read is a hit.
        ran.clear()
        ExperimentContext(config).evaluate("PostgreSQL", "stats-ceb")
        assert ran == []

    def test_deadline_cut_pass_is_not_served_as_final(self, context, tmp_path):
        cut = replace(
            context.config, cache_dir=tmp_path, campaign_timeout_seconds=1e-9
        )
        record = ExperimentContext(cut).evaluate("PostgreSQL", "stats-ceb")
        assert record.run.failed_count == len(record.run.query_runs)

        untimed = replace(cut, campaign_timeout_seconds=None)
        record = ExperimentContext(untimed).evaluate("PostgreSQL", "stats-ceb")
        assert record.run.query_runs
        assert record.run.failed_count == 0
