"""Tests for the command-line interface."""

import contextlib
import os
import socket
import subprocess
import sys

import pytest

from repro.cli import _bench_checkpoint, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "info",
            "explain",
            "run-query",
            "bench",
            "blame",
            "dashboard",
            "export-workload",
            "export-csv",
            "serve",
        ):
            assert command in text

    def test_serve_defaults_and_flags(self):
        args = build_parser().parse_args(["serve"])
        assert args.database == "stats"
        assert args.estimator == "LW-XGB"
        assert args.serve_addr == "127.0.0.1:9570"
        assert args.max_queue == 256
        assert args.request_timeout is None
        assert args.max_seconds is None

        args = build_parser().parse_args(
            [
                "serve",
                "--database", "imdb",
                "--estimator", "PostgreSQL",
                "--serve-addr", "0.0.0.0:8080",
                "--max-queue", "64",
                "--request-timeout", "1.5",
                "--max-seconds", "30",
            ]
        )
        assert args.database == "imdb"
        assert args.request_timeout == pytest.approx(1.5)
        assert args.max_seconds == pytest.approx(30.0)

    def test_serve_rejects_unknown_estimator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--estimator", "nope"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--slo-p99-ms", "100"],
            ["serve", "--slo-error-budget", "0.05"],
            ["serve", "--drift-threshold", "2"],
            ["serve", "--drift-window", "8"],
            ["run-query", "--sql", "SELECT COUNT(*) FROM users", "--no-exec-cache"],
        ],
    )
    def test_options_without_callers_are_rejected(self, argv):
        """The SLO/drift targets are SLOConfig/DriftConfig defaults and
        labelling always uses the result-reuse caches."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_bench_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "bench",
                "--estimator",
                "PostgreSQL",
                "--query-timeout",
                "30",
                "--workers",
                "4",
                "--resume",
                "campaign.jsonl",
            ]
        )
        assert args.query_timeout == 30.0
        assert args.workers == 4
        assert args.resume == "campaign.jsonl"
        assert args.checkpoint is None

    def test_bench_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "bench",
                "--estimator",
                "PostgreSQL",
                "--events-out",
                "run.events.jsonl",
                "--events-level",
                "debug",
                "--progress-out",
                "progress.prom",
                "--metrics-addr",
                "127.0.0.1:9464",
            ]
        )
        assert args.events_out == "run.events.jsonl"
        assert args.events_level == "debug"
        assert args.progress_out == "progress.prom"
        assert args.metrics_addr == "127.0.0.1:9464"

    def test_bench_rejects_unknown_events_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--events-level", "loud"])

    def test_blame_defaults(self):
        args = build_parser().parse_args(["blame"])
        assert args.estimator == "PostgreSQL"
        assert args.top == 5
        assert args.limit is None
        assert args.no_analyze is False
        assert args.out is None

    def test_dashboard_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dashboard"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_estimator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explain", "--sql", "SELECT COUNT(*) FROM users", "--estimator", "Magic"]
            )


class TestBenchCheckpoint:
    """`repro bench --checkpoint` starts fresh; `--resume` loads the file."""

    def test_checkpoint_without_resume_truncates(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"kind": "header", "schema_version": 1}\nstale-data\n')
        args = build_parser().parse_args(["bench", "--checkpoint", str(path)])
        with _bench_checkpoint(args) as checkpoint:
            assert len(checkpoint) == 0
            assert not path.exists()  # truncated; recreated on first append

    def test_resume_loads_existing_checkpoint(self, tmp_path):
        from repro.resilience import CampaignCheckpoint

        from tests.resilience.test_checkpoint import make_run

        path = tmp_path / "campaign.jsonl"
        with CampaignCheckpoint(path) as checkpoint:
            checkpoint.append("PostgreSQL", make_run("q1"))
        args = build_parser().parse_args(["bench", "--resume", str(path)])
        with _bench_checkpoint(args) as checkpoint:
            assert checkpoint.completed_queries("PostgreSQL") == {"q1"}

    def test_no_checkpoint_flag_opens_nothing(self):
        assert _bench_checkpoint(build_parser().parse_args(["bench"])) is None


@pytest.mark.slow
class TestCommands:
    """End-to-end CLI runs against quick-mode assets (slower)."""

    def test_info(self, capsys):
        assert main(["info", "--database", "imdb"]) == 0
        out = capsys.readouterr().out
        assert "tables:" in out and "join relations:" in out

    def test_explain(self, capsys):
        sql = (
            "SELECT COUNT(*) FROM title, cast_info "
            "WHERE title.id = cast_info.movie_id AND title.kind_id = 1"
        )
        code = main(
            ["explain", "--database", "imdb", "--sql", sql, "--estimator", "PostgreSQL"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Join" in out and "Estimated cost" in out

    def test_run_query_with_truth(self, capsys):
        sql = (
            "SELECT COUNT(*) FROM title, movie_companies "
            "WHERE title.id = movie_companies.movie_id"
        )
        code = main(
            [
                "run-query",
                "--database",
                "imdb",
                "--sql",
                sql,
                "--estimator",
                "PostgreSQL",
                "--truth",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "actual=" in out
        assert "True cardinality:" in out

    def test_run_query_trace_out_and_trace_verb(self, tmp_path, capsys):
        from repro.obs.trace import load_trace

        sql = (
            "SELECT COUNT(*) FROM title, movie_companies "
            "WHERE title.id = movie_companies.movie_id"
        )
        out_file = tmp_path / "run.trace.jsonl"
        code = main(
            [
                "run-query",
                "--database",
                "imdb",
                "--sql",
                sql,
                "--estimator",
                "PostgreSQL",
                "--trace-out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "actual=" in out and "time=" in out  # EXPLAIN ANALYZE columns
        assert out_file.exists()

        spans = load_trace(out_file)
        by_name = {span["name"]: span for span in spans}
        assert {"query", "inference", "planning", "execution"} <= set(by_name)
        root_id = by_name["query"]["span_id"]
        for phase in ("inference", "planning", "execution"):
            assert by_name[phase]["parent_id"] == root_id
        operators = [
            span
            for span in spans
            if span["parent_id"] == by_name["execution"]["span_id"]
        ]
        assert operators, "execution span must have per-operator children"

        assert main(["trace", str(out_file)]) == 0
        rendered = capsys.readouterr().out
        assert "query" in rendered and "execution" in rendered and "ms" in rendered

    def test_blame_limited_no_analyze(self, tmp_path, capsys):
        from repro.obs.blame import load_blame_json

        out = tmp_path / "blame.json"
        code = main(
            [
                "blame",
                "--database",
                "stats",
                "--estimator",
                "PostgreSQL",
                "--limit",
                "2",
                "--no-analyze",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "Blame report: PostgreSQL" in text
        assert "P-Error" in text
        payload = load_blame_json(out)
        assert len(payload["queries"]) == 2

    def test_export_csv(self, tmp_path, capsys):
        code = main(["export-csv", "--database", "imdb", "--out", str(tmp_path / "csv")])
        assert code == 0
        assert (tmp_path / "csv" / "schema.json").exists()
        assert (tmp_path / "csv" / "title.csv").exists()

    def test_export_workload(self, tmp_path, capsys):
        code = main(
            ["export-workload", "--workload", "job-light", "--out", str(tmp_path / "w.sql")]
        )
        assert code == 0
        content = (tmp_path / "w.sql").read_text()
        assert "SELECT COUNT(*)" in content
        assert "true_cardinality" in content


class TestDashboardCommand:
    """`repro dashboard` renders straight from artifacts — no DB needed."""

    def test_dashboard_from_event_log(self, tmp_path, capsys):
        from repro.obs.events import EventLog

        events_path = tmp_path / "campaign.events.jsonl"
        with EventLog(events_path) as log:
            log.emit("campaign.begin", total=3, estimator="PostgreSQL")
            log.emit("query.completed", query="q1", seconds=0.2)
        out = tmp_path / "dash.html"
        code = main(
            ["dashboard", "--events", str(events_path), "--out", str(out),
             "--title", "smoke"]
        )
        assert code == 0
        html = out.read_text()
        assert "<title>smoke</title>" in html
        assert "0 / 3 queries completed" in html
        assert "query.completed" in html

    def test_dashboard_warns_on_missing_inputs(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        code = main(
            ["dashboard", "--checkpoint", str(tmp_path / "nope.jsonl"),
             "--out", str(out)]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().out
        assert out.exists()


@contextlib.contextmanager
def _occupied_address():
    """A well-formed ``HOST:PORT`` that another socket listens on."""
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        host, port = holder.getsockname()
        yield f"{host}:{port}"


class TestTelemetryScoping:
    """A command that fails early leaves no telemetry sink behind."""

    @pytest.mark.parametrize(
        "command, flag",
        [("bench", "--metrics-addr"), ("serve", "--serve-addr")],
    )
    def test_malformed_address_fails_before_training(
        self, command, flag, monkeypatch, capsys
    ):
        from repro.experiments.context import ExperimentContext

        def no_fit(*args, **kwargs):
            raise AssertionError("the model was fitted before the address check")

        monkeypatch.setattr(ExperimentContext, "fitted_estimator", no_fit)
        code = main(
            ["--mode", "quick", command, "--database", "stats",
             "--estimator", "PostgreSQL", flag, "not-an-addr"]
        )
        assert code == 2
        assert flag in capsys.readouterr().out

    def test_bench_bind_failure_uninstalls_events_and_progress(
        self, tmp_path, capsys
    ):
        from repro.obs import events as obs_events
        from repro.obs import progress as obs_progress

        events_path = tmp_path / "bench.events.jsonl"
        snapshot_path = tmp_path / "bench.prom"
        with _occupied_address() as addr:
            code = main(
                ["--mode", "quick", "bench", "--database", "stats",
                 "--estimator", "PostgreSQL", "--metrics-addr", addr,
                 "--events-out", str(events_path),
                 "--progress-out", str(snapshot_path)]
            )
        assert code == 2
        assert "--metrics-addr" in capsys.readouterr().out
        obs_events.emit("after.bench")
        # begin_campaign force-writes the snapshot of an installed tracker.
        obs_progress.begin_campaign(total=3)
        obs_progress.end_campaign()
        assert "after.bench" not in [
            record["event"] for record in obs_events.load_events(events_path)
        ]
        assert not snapshot_path.exists()

    def test_serve_bind_failure_leaks_no_writer_or_event_log(
        self, tmp_path, capsys
    ):
        import threading

        from repro.obs import events as obs_events

        obs_dir = tmp_path / "serve-obs"
        with _occupied_address() as addr:
            code = main(
                ["--mode", "quick", "serve", "--database", "stats",
                 "--estimator", "PostgreSQL", "--serve-addr", addr,
                 "--obs-dir", str(obs_dir)]
            )
        assert code == 2
        assert "--serve-addr" in capsys.readouterr().out
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("jsonl-writer:")
        ]
        obs_events.emit("after.serve")
        assert obs_events.load_events(obs_dir / "serve.events.jsonl") == []


def test_entry_points_leave_scipy_stats_unimported():
    """``scipy.stats`` costs ~66 MiB of RSS to import; scipy is a
    test-only dependency, so no entry point may import it."""
    import repro

    script = (
        "import sys\n"
        "import repro.cli, repro.serve, repro.check, repro.experiments.runner\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.strip() == "False"
