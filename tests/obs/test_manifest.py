"""Tests for run-manifest assembly and the session collector."""

import json

import pytest

from repro.core.benchmark import EstimatorRun, QueryRun
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def _clean_metrics():
    obs_metrics.reset()


def _fake_run() -> EstimatorRun:
    return EstimatorRun(
        estimator_name="PostgreSQL",
        workload_name="stats-ceb",
        query_runs=[
            QueryRun(
                query_name="q1",
                num_tables=2,
                inference_seconds=0.01,
                planning_seconds=0.002,
                execution_seconds=0.1,
                aborted=False,
                result_cardinality=42,
                p_error=1.5,
                trace_id="abc.1",
            ),
            QueryRun(
                query_name="q2",
                num_tables=3,
                inference_seconds=0.02,
                planning_seconds=0.003,
                execution_seconds=0.4,
                aborted=True,
                result_cardinality=-1,
                p_error=9.0,
            ),
        ],
    )


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        obs_metrics.registry().counter("benchmark.aborted_queries").inc()
        path = obs_manifest.write_run_manifest(
            tmp_path / "run_manifest.json",
            {"mode": "quick"},
            [("PostgreSQL/stats-ceb", _fake_run())],
            trace_file="trace.jsonl",
        )
        manifest = json.loads(path.read_text())
        obs_metrics.reset()

        assert manifest["schema_version"] == obs_manifest.MANIFEST_SCHEMA_VERSION
        assert manifest["config"] == {"mode": "quick"}
        assert manifest["trace_file"] == "trace.jsonl"
        (run,) = manifest["runs"]
        assert run["estimator"] == "PostgreSQL"
        assert run["aborted_count"] == 1
        assert run["totals"]["inference_seconds"] == pytest.approx(0.03)
        assert run["totals"]["planning_seconds"] == pytest.approx(0.005)
        assert run["totals"]["execution_seconds"] == pytest.approx(0.5)
        q1, q2 = run["queries"]
        assert q1["trace_id"] == "abc.1"
        assert q2["aborted"] is True
        for phase in ("inference_seconds", "planning_seconds", "execution_seconds"):
            assert phase in q1
        assert manifest["metrics"]["counters"]["benchmark.aborted_queries"] == 1.0

    def test_manifest_json_is_deterministically_sorted(self, tmp_path):
        obs_metrics.registry().counter("z.last").inc()
        obs_metrics.registry().counter("a.first").inc()
        path = obs_manifest.write_run_manifest(
            tmp_path / "run_manifest.json",
            {"mode": "quick"},
            [("label", _fake_run())],
            events_file="run.events.jsonl",
        )
        text = path.read_text()
        # sort_keys=True: top-level keys appear alphabetically.
        assert text.index('"config"') < text.index('"runs"')
        assert text.index('"a.first"') < text.index('"z.last"')
        manifest = json.loads(text)
        assert manifest["events_file"] == "run.events.jsonl"

    def test_load_rejects_incompatible_schema(self, tmp_path):
        path = obs_manifest.write_run_manifest(
            tmp_path / "run_manifest.json", {"mode": "quick"}, []
        )
        assert (
            obs_manifest.load_run_manifest(path)["schema_version"]
            == obs_manifest.MANIFEST_SCHEMA_VERSION
        )
        payload = json.loads(path.read_text())
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            obs_manifest.load_run_manifest(path)

    def test_load_accepts_schema_v1(self, tmp_path):
        """PR-2-era manifests (schema 1) must still load."""
        path = obs_manifest.write_run_manifest(
            tmp_path / "run_manifest.json", {"mode": "quick"}, []
        )
        payload = json.loads(path.read_text())
        payload["schema_version"] = 1
        path.write_text(json.dumps(payload))
        assert obs_manifest.load_run_manifest(path)["schema_version"] == 1

    def test_collector_gates_on_enable(self):
        obs_manifest.collect_run("ignored", _fake_run())  # no block open
        run = _fake_run()
        with obs_manifest.collecting() as runs:
            obs_manifest.collect_run("kept", run)
            with obs_manifest.collecting() as inner:
                obs_manifest.collect_run("inner", run)
        obs_manifest.collect_run("after", run)
        assert runs == [("kept", run)]
        assert inner == [("inner", run)]

    def test_manifest_from_collected_runs(self):
        with obs_manifest.collecting() as runs:
            obs_manifest.collect_run("a", _fake_run())
        manifest = obs_manifest.run_manifest({"mode": "quick"}, runs)
        assert [run["label"] for run in manifest["runs"]] == ["a"]
