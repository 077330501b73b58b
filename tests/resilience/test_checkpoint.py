"""Tests for JSONL campaign checkpoints and resume."""

import json
import math

import pytest

from repro.core.benchmark import QueryRun
from repro.resilience import (
    CampaignCheckpoint,
    query_run_from_dict,
    query_run_to_dict,
)


def make_run(name="q1", **overrides) -> QueryRun:
    fields = dict(
        query_name=name,
        num_tables=3,
        inference_seconds=0.01,
        planning_seconds=0.02,
        execution_seconds=0.30,
        aborted=False,
        result_cardinality=1234,
        p_error=1.5,
        q_errors=[1.0, 2.0, 4.0],
        join_order=(("users", "posts"), "comments"),
        methods=["hash", "hash"],
        trace_id=None,
        failed=False,
        error=None,
        fallback_estimates=0,
    )
    fields.update(overrides)
    return QueryRun(**fields)


class TestSerialization:
    def test_round_trip(self):
        run = make_run(failed=True, error="boom", fallback_estimates=2)
        assert query_run_from_dict(query_run_to_dict(run)) == run

    def test_join_order_tuples_survive_json(self):
        run = make_run()
        payload = json.loads(json.dumps(query_run_to_dict(run)))
        assert query_run_from_dict(payload).join_order == run.join_order

    def test_nan_p_error_round_trips_via_null(self):
        run = make_run(p_error=float("nan"))
        payload = query_run_to_dict(run)
        assert payload["p_error"] is None
        json.dumps(payload)  # valid JSON, no NaN literal
        assert math.isnan(query_run_from_dict(payload).p_error)

    def test_old_records_default_resilience_fields(self, tmp_path):
        payload = query_run_to_dict(make_run())
        for key in ("failed", "error", "fallback_estimates"):
            del payload[key]
        run = query_run_from_dict(payload)
        assert run.failed is False
        assert run.error is None
        assert run.fallback_estimates == 0

        # Records written while runs still carried the retired
        # ``attempts`` field load, and their checkpoint resumes.
        legacy = dict(query_run_to_dict(make_run()), attempts=3)
        path = tmp_path / "campaign.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema_version": 1})
            + "\n"
            + json.dumps({"kind": "query_run", "estimator": "PostgreSQL", "run": legacy})
            + "\n"
        )
        with CampaignCheckpoint.resume(path) as checkpoint:
            assert checkpoint.get("PostgreSQL", "q1") == make_run()
            checkpoint.append("PostgreSQL", make_run("q2"))
        assert CampaignCheckpoint.resume(path).completed_queries("PostgreSQL") == {
            "q1",
            "q2",
        }


class TestCheckpoint:
    def test_append_then_resume(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q1"))
            checkpoint.append("PostgreSQL", make_run("q2", p_error=2.0))
            checkpoint.append("TrueCard", make_run("q1", p_error=1.0))

        resumed = CampaignCheckpoint.resume(path)
        assert len(resumed) == 3
        assert resumed.completed_queries("PostgreSQL") == {"q1", "q2"}
        assert resumed.get("PostgreSQL", "q2").p_error == 2.0
        assert resumed.get("TrueCard", "q2") is None

    def test_records_are_flushed_immediately(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        checkpoint = CampaignCheckpoint(path)
        checkpoint.append("PostgreSQL", make_run("q1"))
        # Readable before close — the durability property resume needs.
        assert CampaignCheckpoint.resume(path).get("PostgreSQL", "q1") is not None
        checkpoint.close()

    def test_missing_file_resumes_empty(self, tmp_path):
        resumed = CampaignCheckpoint.resume(tmp_path / "never-written.jsonl")
        assert len(resumed) == 0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q1"))
            checkpoint.append("PostgreSQL", make_run("q2"))
        with path.open("a") as handle:
            handle.write('{"kind": "query_run", "estimator": "Postg')  # killed writer
        resumed = CampaignCheckpoint.resume(path)
        assert resumed.completed_queries("PostgreSQL") == {"q1", "q2"}

    def test_append_after_torn_line_does_not_corrupt_records(self, tmp_path):
        # A killed writer leaves a torn final line with NO trailing
        # newline; a resumed session must not concatenate its first new
        # record onto that fragment (which would lose both lines).
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q1"))
        with path.open("a") as handle:
            handle.write('{"kind": "query_run", "estimator": "Postg')  # torn
        with CampaignCheckpoint.resume(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q2"))
            checkpoint.append("PostgreSQL", make_run("q3"))
        resumed = CampaignCheckpoint.resume(path)
        assert resumed.completed_queries("PostgreSQL") == {"q1", "q2", "q3"}
        # Every line except the isolated torn fragment parses as JSON.
        bad = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                json.loads(line)
            except json.JSONDecodeError:
                bad.append(line)
        assert bad == ['{"kind": "query_run", "estimator": "Postg']

    def test_resume_keeps_appending_to_the_same_file(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q1"))
        with CampaignCheckpoint.resume(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q2"))
        resumed = CampaignCheckpoint.resume(path)
        assert resumed.completed_queries("PostgreSQL") == {"q1", "q2"}
        # Exactly one header line even across sessions.
        headers = [
            line
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "header"
        ]
        assert len(headers) == 1

    def test_unsupported_schema_version_rejected(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"kind": "header", "schema_version": 999}\n')
        with pytest.raises(ValueError, match="schema"):
            CampaignCheckpoint.resume(path)

    def test_unknown_record_kinds_ignored(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q1"))
        with path.open("a") as handle:
            handle.write('{"kind": "future-extension", "data": 1}\n')
        assert len(CampaignCheckpoint.resume(path)) == 1

    def test_runs_lists_every_pair_in_recorded_order(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("TrueCard", make_run("q2"))
            checkpoint.append("PostgreSQL", make_run("q1"))
        pairs = CampaignCheckpoint.resume(path).runs()
        assert pairs == [("TrueCard", make_run("q2")), ("PostgreSQL", make_run("q1"))]

    def test_fit_record_round_trips_and_last_one_wins(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            assert checkpoint.fit("PostgreSQL") is None
            checkpoint.append_fit("PostgreSQL", 0.5, 1024)
            checkpoint.append("PostgreSQL", make_run("q1"))
            checkpoint.append_fit("PostgreSQL", 0.75, 2048)
        resumed = CampaignCheckpoint.resume(path)
        assert resumed.fit("PostgreSQL") == (0.75, 2048)
        assert resumed.fit("TrueCard") is None
        assert len(resumed) == 1  # a fit is not a completed query
