"""HTML dashboard: rendering from artifacts, killed-campaign recovery."""

import os

import pytest

from repro.core.benchmark import EndToEndBenchmark
from repro.estimators.postgres import PostgresEstimator
from repro.obs import events as obs_events
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.events import load_events
from repro.resilience import CampaignCheckpoint
from repro.resilience.faults import WorkerKillingEstimator


@pytest.fixture(scope="module")
def subset(stats_workload):
    multi = [q for q in stats_workload.queries if q.query.num_tables >= 2]
    assert len(multi) >= 3
    return multi[:3]


@pytest.fixture(scope="module")
def postgres(stats_db):
    return PostgresEstimator().fit(stats_db)


class TestDashboardRendering:
    def test_no_artifacts_is_still_a_page(self):
        html = render_dashboard()
        assert "<!doctype html>" in html
        assert "No campaign artifacts found" in html

    def test_missing_files_render_shorter_page_not_error(self, tmp_path):
        html = render_dashboard(
            checkpoint_path=tmp_path / "absent.ckpt.jsonl",
            events_path=tmp_path / "absent.events.jsonl",
            manifest_path=tmp_path / "absent.json",
            blame_path=tmp_path / "absent.blame.json",
        )
        assert "No campaign artifacts found" in html

    def test_full_campaign_dashboard(
        self, tmp_path, stats_db, stats_workload, subset, postgres
    ):
        checkpoint_path = tmp_path / "campaign.ckpt.jsonl"
        events_path = tmp_path / "campaign.events.jsonl"
        bench = EndToEndBenchmark(stats_db, stats_workload)
        obs_events.activate(events_path)
        try:
            with CampaignCheckpoint(checkpoint_path) as checkpoint:
                bench.run(postgres, queries=subset, checkpoint=checkpoint)
        finally:
            obs_events.deactivate()

        out = write_dashboard(
            tmp_path / "dashboard.html",
            checkpoint_path=checkpoint_path,
            events_path=events_path,
            title="full campaign",
        )
        html = out.read_text()
        assert "<title>full campaign</title>" in html
        assert f"{len(subset)} / {len(subset)} queries completed" in html
        assert "completed" in html
        for labeled in subset:
            assert labeled.query.name in html
        assert "campaign.begin" in html or "query.completed" in html

    def test_html_escapes_artifact_content(self, tmp_path):
        events_path = tmp_path / "evil.events.jsonl"
        with obs_events.EventLog(events_path) as log:
            log.emit("campaign.begin", total=1, estimator="<script>alert(1)</script>")
        html = render_dashboard(events_path=events_path)
        assert "<script>alert(1)</script>" not in html
        assert "&lt;script&gt;" in html


class TestKilledCampaign:
    def test_killed_campaign_leaves_readable_artifacts(
        self, tmp_path, stats_db, stats_workload, subset, postgres
    ):
        """ISSUE acceptance: a campaign killed mid-flight (worker-kill
        fault from the resilience harness) leaves a readable event log
        and a dashboard rendering partial progress from the checkpoint."""
        checkpoint_path = tmp_path / "killed.ckpt.jsonl"
        events_path = tmp_path / "killed.events.jsonl"
        victim = subset[1].query.name  # query #2: one query completes first

        pid = os.fork()
        if pid == 0:  # child: run the campaign serially until the kill
            status = 99
            try:
                killer = WorkerKillingEstimator(postgres, kill_queries={victim})
                bench = EndToEndBenchmark(stats_db, stats_workload)
                obs_events.activate(events_path)
                with CampaignCheckpoint(checkpoint_path) as checkpoint:
                    bench.run(killer, queries=subset, checkpoint=checkpoint)
                status = 0  # not reached: the fault kills the process
            finally:
                os._exit(status)

        _, wait_status = os.waitpid(pid, 0)
        assert os.WIFEXITED(wait_status)
        assert os.WEXITSTATUS(wait_status) == 13  # the injected kill, not a clean run

        # The event log is readable and shows the campaign started and
        # made progress, but never ended.
        events = load_events(events_path)
        names = [record["event"] for record in events]
        assert "campaign.begin" in names
        assert names.count("query.completed") == 1
        assert "campaign.end" not in names

        # The checkpoint holds the one completed query.
        checkpoint = CampaignCheckpoint.resume(checkpoint_path)
        assert len(checkpoint) == 1
        assert checkpoint.get(postgres.name, subset[0].query.name) is not None

        # The dashboard renders partial progress from those artifacts.
        html = render_dashboard(
            checkpoint_path=checkpoint_path, events_path=events_path
        )
        assert f"1 / {len(subset)} queries completed" in html
        assert "in progress or interrupted" in html
        assert subset[0].query.name in html


def test_phase_table_renders_from_run_totals(tmp_path):
    import json

    from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

    manifest_path = tmp_path / "run_manifest.json"
    manifest_path.write_text(
        json.dumps(
            {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "config": {},
                "runs": [
                    {
                        "label": "PostgreSQL",
                        "estimator": "PostgreSQL",
                        "workload": "STATS-CEB",
                        "totals": {
                            "inference_seconds": 0.125,
                            "planning_seconds": 0.0625,
                            "execution_seconds": 1.25,
                        },
                        "queries": [{}, {}, {}],
                    }
                ],
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            }
        )
    )
    html = render_dashboard(manifest_path=manifest_path)
    assert "Phase times" in html
    for phase, wall in (
        ("inference", "0.1250"),
        ("planning", "0.0625"),
        ("execution", "1.2500"),
    ):
        assert (
            "<tr><td>PostgreSQL</td><td>STATS-CEB</td>"
            f'<td>{phase}</td><td class="num">3</td>'
            f'<td class="num">{wall}</td></tr>'
        ) in html


class TestServePanel:
    def _write_jsonl(self, path, records):
        import json

        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path

    def test_serve_section_renders_routes_and_drift(self, tmp_path):
        access = self._write_jsonl(
            tmp_path / "access.jsonl",
            [
                {
                    "ts": 1.0,
                    "request_id": "r1",
                    "route": "estimate",
                    "method": "POST",
                    "status": 200,
                    "latency_ms": 1.5,
                },
                {
                    "ts": 2.0,
                    "request_id": "r2",
                    "route": "estimate",
                    "method": "POST",
                    "status": 500,
                    "latency_ms": 9.0,
                },
                {
                    "ts": 3.0,
                    "request_id": "r3",
                    "route": "subplans",
                    "method": "POST",
                    "status": 400,
                    "latency_ms": 0.4,
                },
            ],
        )
        drift = self._write_jsonl(
            tmp_path / "drift.jsonl",
            [
                {
                    "model": "default",
                    "version": 2,
                    "tables": ["posts", "users"],
                    "q_error": 12.0,
                    "source": "feedback",
                },
                {
                    "model": "default",
                    "version": 2,
                    "tables": ["posts", "users"],
                    "q_error": 8.0,
                    "source": "self_execution",
                },
            ],
        )
        html = render_dashboard(
            serve_access_path=access, serve_drift_path=drift
        )
        assert "<h2>Serving</h2>" in html
        assert "3 requests in the access log" in html
        assert "estimate" in html and "subplans" in html
        assert "Accuracy drift (2 est-vs-actual pairs)" in html
        assert "posts ⋈ users" in html
        assert "feedback, self_execution" in html

    def test_serve_panel_absent_without_artifacts(self):
        assert "<h2>Serving</h2>" not in render_dashboard()

    def test_write_dashboard_passes_serve_paths(self, tmp_path):
        access = self._write_jsonl(
            tmp_path / "access.jsonl",
            [
                {
                    "ts": 1.0,
                    "request_id": "r1",
                    "route": "estimate",
                    "method": "POST",
                    "status": 200,
                    "latency_ms": 1.0,
                }
            ],
        )
        out = write_dashboard(
            tmp_path / "dash.html", serve_access_path=access
        )
        assert "<h2>Serving</h2>" in out.read_text()
