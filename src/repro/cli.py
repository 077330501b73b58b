"""Command-line interface to the benchmark platform.

Examples::

    python -m repro.cli info --database stats
    python -m repro.cli explain --database stats \\
        --sql "SELECT COUNT(*) FROM users, posts WHERE users.Id = posts.OwnerUserId"
    python -m repro.cli run-query --database stats --estimator BayesCard \\
        --sql "SELECT COUNT(*) FROM users, posts WHERE users.Id = posts.OwnerUserId AND users.Reputation >= 100"
    python -m repro.cli run-query --database stats --estimator PostgreSQL \\
        --trace-out run.trace.jsonl \\
        --sql "SELECT COUNT(*) FROM users, posts WHERE users.Id = posts.OwnerUserId"
    python -m repro.cli trace run.trace.jsonl
    python -m repro.cli export-workload --workload stats-ceb --out stats_ceb.sql
    python -m repro.cli export-csv --database stats --out ./stats_csv
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
from pathlib import Path

from repro.check.invariants import ALL_INVARIANTS
from repro.core.injection import estimate_sub_plans
from repro.core.parallel import default_workers
from repro.core.truecards import TrueCardinalityService
from repro.datasets.describe import describe
from repro.datasets.io import export_csv
from repro.engine.explain import explain
from repro.engine.sql import parse_query
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ESTIMATOR_ORDER, ExperimentContext
from repro.obs import trace as obs_trace
from repro.obs.httpd import ServerStartError
from repro.resilience import CampaignCheckpoint


def _context(args) -> ExperimentContext:
    return ExperimentContext(ExperimentConfig.named(args.mode))


def cmd_info(args) -> int:
    context = _context(args)
    summary = describe(context.database(args.database))
    print(f"Dataset: {summary.name}")
    print(f"  tables:              {summary.num_tables}")
    print(f"  n./c. attributes:    {summary.num_attributes} "
          f"({summary.attributes_per_table[0]}-{summary.attributes_per_table[1]} per table)")
    print(f"  full join size:      {summary.full_join_size:.3e}")
    print(f"  total domain size:   {summary.total_domain_size}")
    print(f"  avg skewness:        {summary.average_skewness:.3f}")
    print(f"  avg correlation:     {summary.average_correlation:.3f}")
    print(f"  join forms:          {summary.join_forms}")
    print(f"  join relations:      {summary.num_join_relations}")
    return 0


def _parse_cli_query(context: ExperimentContext, args):
    database = context.database(args.database)
    return database, parse_query(args.sql, database.join_graph, name="cli")


def cmd_explain(args) -> int:
    context = _context(args)
    database, query = _parse_cli_query(context, args)
    estimator = context.fitted_estimator(args.estimator, _workload_for(args.database))
    cards = estimate_sub_plans(estimator, query)
    result = explain(database, query, cards, analyze=False)
    print(result.text)
    return 0


def cmd_run_query(args) -> int:
    context = _context(args)
    database, query = _parse_cli_query(context, args)
    estimator = context.fitted_estimator(args.estimator, _workload_for(args.database))
    with obs_trace.use_tracer(
        obs_trace.Tracer() if args.trace_out else None
    ) as tracer:
        with obs_trace.span("query", sql=args.sql, estimator=args.estimator):
            cards = estimate_sub_plans(estimator, query)
            result = explain(database, query, cards, analyze=True)
    print(result.text)
    if args.truth and result.actual_rows is not None:
        truth = TrueCardinalityService(database).cardinality(query)
        print(f"True cardinality: {truth} (estimator said {result.estimated_rows:.0f})")
    if tracer is not None:
        path = tracer.export_jsonl(args.trace_out)
        print(f"Trace: {len(tracer.spans)} spans -> {path}")
    return 0


def cmd_trace(args) -> int:
    try:
        spans = obs_trace.load_trace(args.file)
    except OSError as exc:
        print(f"{args.file}: {exc.strerror or exc}")
        return 1
    if not spans:
        print(f"{args.file}: empty trace")
        return 1
    print(obs_trace.render_trace(spans))
    return 0


def cmd_export_workload(args) -> int:
    from repro.workloads.sql_io import export_workload

    context = _context(args)
    workload = context.workload(args.workload)
    export_workload(workload, Path(args.out))
    print(f"Wrote {len(workload)} queries to {args.out}")
    return 0


def _bench_checkpoint(args) -> CampaignCheckpoint | None:
    """The ``--checkpoint`` / ``--resume`` file, opened (or None).

    Without ``--resume`` a pre-existing file is deleted so the stream
    only ever describes one campaign; with it, recorded (estimator,
    query) pairs are loaded and skipped.
    """
    path = args.resume or args.checkpoint
    if path is None:
        return None
    if args.resume is None:
        Path(path).unlink(missing_ok=True)
    return CampaignCheckpoint.resume(path)


def cmd_bench(args) -> int:
    """Run one fault-tolerant benchmark campaign and print a summary."""
    import math
    import statistics
    import uuid

    from repro.obs import events as obs_events
    from repro.obs import manifest as obs_manifest
    from repro.obs import progress as obs_progress

    checkpoint_path = args.resume or args.checkpoint
    config = dataclasses.replace(
        ExperimentConfig.named(args.mode),
        workers=default_workers() if args.workers <= 0 else args.workers,
        max_retries=max(0, args.max_retries),
        query_timeout_seconds=args.query_timeout,
        campaign_timeout_seconds=args.campaign_timeout,
    )
    context = ExperimentContext(config)
    workload_name = _workload_for(args.database)
    run_id = uuid.uuid4().hex[:12]
    estimator = context.fitted_estimator(args.estimator, workload_name)

    # Live telemetry: structured events, progress aggregation with an
    # optional Prometheus snapshot file, and an optional HTTP endpoint,
    # all undone by the stack however the campaign ends.
    with contextlib.ExitStack() as stack:
        if args.events_out:
            stack.enter_context(
                obs_events.use_event_log(args.events_out, level=args.events_level)
            )
        tracker = None
        if args.progress_out is not None or args.metrics_addr is not None:
            tracker = stack.enter_context(
                obs_progress.use_progress(args.progress_out)
            )
        if args.metrics_addr:
            try:
                server = obs_progress.MetricsServer(
                    args.metrics_addr, run_id=run_id, tracker=tracker
                )
            except (ValueError, ServerStartError) as error:
                print(f"error: {error}")
                return 2
            stack.callback(server.close)
            server.start()
            host, port = server.address
            print(f"  metrics endpoint:    http://{host}:{port}/metrics")
            print(f"  health endpoint:     http://{host}:{port}/healthz (run {run_id})")
        checkpoint = _bench_checkpoint(args)
        if checkpoint is not None:
            stack.callback(checkpoint.close)
        run = context.benchmark(workload_name).run(estimator, checkpoint=checkpoint)

    p_errors = [
        query_run.p_error
        for query_run in run.query_runs
        if not math.isnan(query_run.p_error)
    ]
    attempts = sum(query_run.attempts for query_run in run.query_runs)
    fallbacks = sum(query_run.fallback_estimates for query_run in run.query_runs)
    print(f"Campaign: {run.estimator_name} on {run.workload_name}")
    print(f"  queries:             {len(run.query_runs)}")
    print(f"  failed:              {run.failed_count}")
    print(f"  aborted:             {run.aborted_count}")
    print(f"  retried attempts:    {attempts - len(run.query_runs)}")
    print(f"  fallback estimates:  {fallbacks}")
    if p_errors:
        print(f"  median P-Error:      {statistics.median(p_errors):.3f}")
    print(f"  total inference:     {run.total_inference_seconds():.2f}s")
    print(f"  total execution:     {run.total_execution_seconds():.2f}s")
    for query_run in run.query_runs:
        if query_run.failed:
            print(f"  FAILED {query_run.query_name}: {query_run.error}")
    if checkpoint_path:
        print(f"  checkpoint:          {checkpoint_path}")
    if args.events_out:
        print(f"  events:              {args.events_out}")
    if args.progress_out:
        print(f"  progress snapshot:   {args.progress_out}")
    if args.manifest:
        obs_manifest.write_run_manifest(
            args.manifest,
            {
                key: str(value) if isinstance(value, Path) else value
                for key, value in dataclasses.asdict(config).items()
            },
            [(f"{args.estimator}/{workload_name}", run)],
            checkpoint_file=str(checkpoint_path) if checkpoint_path else None,
            events_file=str(args.events_out) if args.events_out else None,
            extra={"run_id": run_id},
        )
        print(f"  manifest:            {args.manifest}")
    return 0


def cmd_serve(args) -> int:
    """Run the long-lived estimation-as-a-service HTTP process."""
    import uuid

    from repro.obs.events import EventLog
    from repro.serve import (
        AccessLog,
        DriftMonitor,
        EstimationService,
        ModelRegistry,
        ServeObservability,
        SLOMonitor,
        TraceSink,
        build_server,
    )

    config = dataclasses.replace(
        ExperimentConfig.named(args.mode), max_retries=max(0, args.max_retries)
    )
    context = ExperimentContext(config)
    workload_name = _workload_for(args.database)
    database = context.database(args.database)
    run_id = uuid.uuid4().hex[:12]

    registry = ModelRegistry()
    print(f"Training initial model: {args.estimator} on {workload_name} ...")
    estimator = context.fitted_estimator(args.estimator, workload_name)
    registry.promote(estimator, source=f"trained:{args.estimator}")

    obs = ServeObservability()
    obs_dir = None
    if args.obs_dir:
        obs_dir = Path(args.obs_dir)
        obs_dir.mkdir(parents=True, exist_ok=True)
        obs = ServeObservability(
            trace_sink=TraceSink(obs_dir / "traces.jsonl"),
            access_log=AccessLog(obs_dir / "access.jsonl"),
            slo=SLOMonitor(),
            drift=DriftMonitor(pairs_path=obs_dir / "drift_pairs.jsonl"),
            events=EventLog(obs_dir / "serve.events.jsonl"),
        )

    with contextlib.ExitStack() as stack:
        service = EstimationService(
            database,
            registry,
            trainer=lambda name: context.fitted_estimator(name, workload_name),
            retry=context.retry_policy(),
            request_timeout_seconds=args.request_timeout,
            batch_window_seconds=args.batch_window_ms / 1000.0,
            max_queue=args.max_queue,
            run_id=run_id,
            obs=obs,
            self_execute_every=args.self_execute_every,
        )
        stack.callback(service.close)
        try:
            server = build_server(service, args.serve_addr)
        except (ValueError, ServerStartError) as error:
            print(f"error: {error}")
            return 2
        stack.callback(server.close)
        service.start()
        server.start()
        host, port = server.address
        print(f"Serving estimates at http://{host}:{port} (run {run_id})")
        print(
            "  POST /estimate | /estimate_batch | /subplans | /feedback "
            "| /admin/promote"
        )
        print("  GET  /healthz | /metrics | /models")
        if obs_dir is not None:
            print(f"  observability artifacts: {obs_dir}/")
        try:
            service.shutdown_requested.wait(
                timeout=args.max_seconds if args.max_seconds else None
            )
        except KeyboardInterrupt:
            print("\ninterrupted")
    from repro.obs import metrics as obs_metrics

    counters = obs_metrics.snapshot()["counters"]
    served = sum(
        int(count)
        for name, count in counters.items()
        if name.startswith("serve.requests.")
    )
    print(
        f"Shut down cleanly after {service.uptime_seconds():.1f}s "
        f"({served} requests served)"
    )
    if obs_dir is not None:
        traces = obs.trace_sink.spans_written if obs.trace_sink else 0
        access = obs.access_log.count if obs.access_log else 0
        print(
            f"  wrote {traces} trace spans, {access} access-log lines "
            f"to {obs_dir}/"
        )
    return 0


def cmd_blame(args) -> int:
    """Attribute plan-quality gaps to sub-plan misestimates."""
    from repro.experiments.blame import blame_workload
    from repro.obs import blame as obs_blame

    context = _context(args)
    workload_name = _workload_for(args.database)
    database = context.database(args.database)
    workload = context.workload(workload_name)
    estimator = context.fitted_estimator(args.estimator, workload_name)
    report = blame_workload(
        database,
        workload,
        estimator,
        analyze=not args.no_analyze,
        limit=args.limit,
    )
    print(obs_blame.render_blame_report(report, top=args.top))
    if args.out:
        path = obs_blame.write_blame_json(args.out, report)
        print(f"\nBlame report JSON: {path}")
    return 0


def cmd_dashboard(args) -> int:
    """Render the self-contained HTML campaign dashboard."""
    from repro.obs import dashboard as obs_dashboard

    for label, path in (
        ("checkpoint", args.checkpoint),
        ("events", args.events),
        ("manifest", args.manifest),
        ("blame", args.blame),
        ("serve access log", args.serve_access),
        ("serve drift pairs", args.serve_drift),
    ):
        if path is not None and not Path(path).exists():
            print(f"warning: {label} file {path} does not exist; skipping")
    path = obs_dashboard.write_dashboard(
        args.out,
        checkpoint_path=args.checkpoint,
        events_path=args.events,
        manifest_path=args.manifest,
        blame_path=args.blame,
        serve_access_path=args.serve_access,
        serve_drift_path=args.serve_drift,
        title=args.title,
    )
    print(f"Dashboard: {path}")
    return 0


def cmd_export_csv(args) -> int:
    context = _context(args)
    database = context.database(args.database)
    export_csv(database, Path(args.out))
    print(f"Wrote {len(database.tables)} tables ({database.total_rows():,} rows) to {args.out}")
    return 0


def cmd_check(args) -> int:
    from repro.check import CheckOptions, check_workload, replay_artifact, run_check

    invariants = (
        tuple(name for name in args.invariants.split(",") if name)
        if args.invariants
        else ALL_INVARIANTS
    )
    unknown = set(invariants) - set(ALL_INVARIANTS)
    if unknown:
        raise SystemExit(
            f"unknown invariants {sorted(unknown)}; "
            f"choose from {', '.join(ALL_INVARIANTS)}"
        )
    options = CheckOptions(
        seed=args.seed,
        cases=args.cases,
        oracle=not args.no_oracle,
        invariants=invariants,
        artifact_dir=args.artifact_dir,
    )
    if args.replay:
        report = replay_artifact(args.replay, options)
    elif args.workload:
        # Oracle-check a real benchmark workload (needs the datasets).
        context = _context(args)
        database = context.database_for_workload(args.workload)
        workload = context.workload(args.workload)
        report = check_workload(database, workload, limit=args.limit)
    else:
        report = run_check(options)
    print(report.summary())
    if not report.ok:
        print(f"FAILED: {len(report.failures)} discrepancies")
        return 1
    print("OK")
    return 0


def _workload_for(database: str) -> str:
    return "stats-ceb" if database == "stats" else "job-light"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--mode", default="quick", choices=["quick", "full"], help="asset scale"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser("info", help="dataset statistics (Table 1 style)")
    info.add_argument("--database", default="stats", choices=["stats", "imdb"])
    info.set_defaults(handler=cmd_info)

    for name, handler, analyze_help in (
        ("explain", cmd_explain, "plan a query without executing it"),
        ("run-query", cmd_run_query, "plan, execute and show actual rows"),
    ):
        sub = commands.add_parser(name, help=analyze_help)
        sub.add_argument("--database", default="stats", choices=["stats", "imdb"])
        sub.add_argument("--sql", required=True, help="benchmark-dialect SQL")
        sub.add_argument(
            "--estimator",
            default="PostgreSQL",
            choices=list(ESTIMATOR_ORDER),
            help="CardEst method whose estimates drive the plan",
        )
        if name == "run-query":
            sub.add_argument(
                "--truth",
                action="store_true",
                help="also compute the exact cardinality",
            )
            sub.add_argument(
                "--trace-out",
                metavar="FILE",
                default=None,
                help="record a trace of the run and export it as JSONL",
            )
        sub.set_defaults(handler=handler)

    trace_cmd = commands.add_parser(
        "trace", help="pretty-print a JSONL trace file as a span tree"
    )
    trace_cmd.add_argument("file", help="trace file written by --trace-out")
    trace_cmd.set_defaults(handler=cmd_trace)

    export_wl = commands.add_parser(
        "export-workload", help="write a labelled workload as annotated SQL"
    )
    export_wl.add_argument("--workload", default="stats-ceb", choices=["stats-ceb", "job-light"])
    export_wl.add_argument("--out", required=True)
    export_wl.set_defaults(handler=cmd_export_workload)

    bench = commands.add_parser(
        "bench",
        help="run one fault-tolerant benchmark campaign "
        "(failure isolation, retries, checkpoint/resume)",
    )
    bench.add_argument("--database", default="stats", choices=["stats", "imdb"])
    bench.add_argument(
        "--estimator",
        default="PostgreSQL",
        choices=list(ESTIMATOR_ORDER),
        help="CardEst method to benchmark end to end",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="forked worker processes (with crash recovery; 1 = serial, "
        "0 = all schedulable cores)",
    )
    bench.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per failed estimator/planner/executor call",
    )
    bench.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per query; overruns become failed runs",
    )
    bench.add_argument(
        "--campaign-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole campaign",
    )
    bench.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="stream completed query runs to FILE (JSONL)",
    )
    bench.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume from checkpoint FILE, skipping completed queries",
    )
    bench.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="write a run_manifest.json for the campaign",
    )
    bench.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="stream structured campaign events to FILE (JSONL)",
    )
    bench.add_argument(
        "--events-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="minimum severity recorded in --events-out",
    )
    bench.add_argument(
        "--progress-out",
        metavar="FILE",
        default=None,
        help="periodically write a Prometheus-text progress snapshot to FILE",
    )
    bench.add_argument(
        "--metrics-addr",
        metavar="HOST:PORT",
        default=None,
        help="serve /metrics, /progress and /healthz over HTTP "
        "while the campaign runs",
    )
    bench.set_defaults(handler=cmd_bench)

    serve = commands.add_parser(
        "serve",
        help="run the estimation-as-a-service HTTP process: trained "
        "estimators answer /estimate, /estimate_batch and /subplans "
        "with cross-client micro-batching, hot-swap promotion and "
        "admission control",
    )
    serve.add_argument("--database", default="stats", choices=["stats", "imdb"])
    serve.add_argument(
        "--estimator",
        default="LW-XGB",
        choices=list(ESTIMATOR_ORDER),
        help="CardEst method trained and promoted as the default model",
    )
    serve.add_argument(
        "--serve-addr",
        metavar="HOST:PORT",
        default="127.0.0.1:9570",
        help="address to serve on (:0 picks a free port)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=1.0,
        metavar="MS",
        help="max extra wait for the requests a micro-batch expects; a "
        "lone request never waits (default 1ms)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="admission control: queued requests beyond N get 429",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts per failed estimation request",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; overruns degrade to the "
        "PostgreSQL-default fallback estimate",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long (default: serve until SIGINT or "
        "POST /admin/shutdown)",
    )
    serve.add_argument(
        "--obs-dir",
        metavar="DIR",
        default=None,
        help="enable full serving observability: per-request traces "
        "(traces.jsonl), access log (access.jsonl), drift pairs "
        "(drift_pairs.jsonl) and serve events (serve.events.jsonl) "
        "under DIR, plus SLO burn rates and the drift monitor at the "
        "SLOConfig / DriftConfig defaults",
    )
    serve.add_argument(
        "--self-execute-every",
        type=int,
        default=0,
        metavar="N",
        help="execute every Nth served query against the local "
        "database for drift ground truth (0 disables; needs --obs-dir)",
    )
    serve.set_defaults(handler=cmd_serve)

    blame = commands.add_parser(
        "blame",
        help="attribute P-Error / runtime gaps to the worst-misestimated "
        "sub-plans, per query and rolled up per join template",
    )
    blame.add_argument("--database", default="stats", choices=["stats", "imdb"])
    blame.add_argument(
        "--estimator",
        default="PostgreSQL",
        choices=list(ESTIMATOR_ORDER),
        help="CardEst method whose misestimates to attribute",
    )
    blame.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="only blame the first N workload queries",
    )
    blame.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="entries per ranking in the text report",
    )
    blame.add_argument(
        "--no-analyze",
        action="store_true",
        help="skip plan execution (plan-diff and cardinality attribution only)",
    )
    blame.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the full blame report as JSON",
    )
    blame.set_defaults(handler=cmd_blame)

    dashboard = commands.add_parser(
        "dashboard",
        help="render a self-contained HTML report from campaign artifacts",
    )
    dashboard.add_argument(
        "--checkpoint", metavar="FILE", default=None, help="campaign checkpoint JSONL"
    )
    dashboard.add_argument(
        "--events", metavar="FILE", default=None, help="structured event log JSONL"
    )
    dashboard.add_argument(
        "--manifest", metavar="FILE", default=None, help="run_manifest.json"
    )
    dashboard.add_argument(
        "--blame", metavar="FILE", default=None, help="blame report JSON"
    )
    dashboard.add_argument(
        "--serve-access",
        metavar="FILE",
        default=None,
        help="serve access log JSONL (repro serve --obs-dir)",
    )
    dashboard.add_argument(
        "--serve-drift",
        metavar="FILE",
        default=None,
        help="serve drift-pairs JSONL (repro serve --obs-dir)",
    )
    dashboard.add_argument(
        "--title", default="repro campaign dashboard", help="page title"
    )
    dashboard.add_argument("--out", required=True, metavar="FILE")
    dashboard.set_defaults(handler=cmd_dashboard)

    check = commands.add_parser(
        "check",
        help="differential correctness check: fuzz the engine against a "
        "SQLite oracle and metamorphic invariants",
    )
    check.add_argument("--seed", type=int, default=0, help="fuzz seed")
    check.add_argument(
        "--cases", type=int, default=50, help="number of fuzz cases"
    )
    check.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the SQLite reference comparison",
    )
    check.add_argument(
        "--invariants",
        default="",
        metavar="LIST",
        help="comma-separated metamorphic invariants to run (default: "
        f"{','.join(ALL_INVARIANTS)})",
    )
    check.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="write shrunken failing cases as replayable JSON here",
    )
    check.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run all checks against one saved failing-case artifact",
    )
    check.add_argument(
        "--workload",
        default=None,
        choices=["stats-ceb", "job-light"],
        help="instead of fuzzing, oracle-check this benchmark workload",
    )
    check.add_argument(
        "--limit",
        type=int,
        default=None,
        help="max workload queries to check (with --workload)",
    )
    check.set_defaults(handler=cmd_check)

    export_data = commands.add_parser(
        "export-csv", help="dump a benchmark database as CSV files"
    )
    export_data.add_argument("--database", default="stats", choices=["stats", "imdb"])
    export_data.add_argument("--out", required=True)
    export_data.set_defaults(handler=cmd_export_csv)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
