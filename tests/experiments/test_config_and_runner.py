"""Tests for experiment configuration and the CLI runner plumbing."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import CATEGORY_OF, ESTIMATOR_ORDER, ExperimentContext
from repro.experiments.runner import EXPERIMENTS, main


class TestConfig:
    def test_presets(self):
        quick = ExperimentConfig.quick()
        full = ExperimentConfig.full()
        assert quick.scale < full.scale
        assert full.stats_queries == 146
        assert full.stats_templates == 70

    def test_named(self):
        assert ExperimentConfig.named("quick").mode == "quick"
        assert ExperimentConfig.named("full").mode == "full"
        with pytest.raises(ValueError):
            ExperimentConfig.named("bogus")


class TestContextPlumbing:
    def test_all_estimators_constructible(self):
        context = ExperimentContext()
        for name in ESTIMATOR_ORDER:
            estimator = context.make_estimator(name)
            assert estimator.name == name

    def test_every_estimator_categorised(self):
        assert set(CATEGORY_OF) == set(ESTIMATOR_ORDER)

    def test_unknown_assets_rejected(self):
        context = ExperimentContext()
        with pytest.raises(KeyError):
            context.database("oracle")
        with pytest.raises(KeyError):
            context.workload("tpch")


class TestResilienceWiring:
    def test_default_config_builds_no_policies(self):
        context = ExperimentContext()
        assert context.timeout_policy() is None

    def test_timeouts_map_to_policy(self):
        config = dataclasses.replace(
            ExperimentConfig.quick(),
            query_timeout_seconds=30.0,
            campaign_timeout_seconds=600.0,
        )
        policy = ExperimentContext(config).timeout_policy()
        assert policy.per_query_seconds == 30.0
        assert policy.campaign_seconds == 600.0


class TestRunnerCli:
    def test_experiment_registry_complete(self):
        expected = {f"table{i}" for i in range(1, 8)} | {"figure2", "figure3", "observations"}
        assert set(EXPERIMENTS) == expected

    def test_cli_runs_selected_experiment(self, monkeypatch, capsys):
        calls = []

        def fake(context):
            calls.append(context.config.mode)
            return "FAKE-OUTPUT"

        monkeypatch.setitem(EXPERIMENTS, "table1", fake)
        assert main(["--experiment", "table1", "--mode", "quick"]) == 0
        captured = capsys.readouterr().out
        assert "FAKE-OUTPUT" in captured
        assert calls == ["quick"]

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "table99"])


class TestRunnerSave:
    def test_save_writes_report_files(self, monkeypatch, tmp_path, capsys):
        def fake(context):
            return "SAVED-OUTPUT"

        monkeypatch.setitem(EXPERIMENTS, "table1", fake)
        assert main(["--experiment", "table1", "--save", str(tmp_path)]) == 0
        saved = (tmp_path / "table1.txt").read_text()
        assert "SAVED-OUTPUT" in saved


class TestRunnerResilienceFlags:
    def test_flags_reach_the_config(self, monkeypatch, capsys):
        seen = {}

        def fake(context):
            seen.update(dataclasses.asdict(context.config))
            return "OK"

        monkeypatch.setitem(EXPERIMENTS, "table1", fake)
        assert (
            main(
                [
                    "--experiment",
                    "table1",
                    "--query-timeout",
                    "45",
                    "--campaign-timeout",
                    "900",
                ]
            )
            == 0
        )
        assert seen["query_timeout_seconds"] == 45.0
        assert seen["campaign_timeout_seconds"] == 900.0
