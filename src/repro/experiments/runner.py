"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner --experiment table3 --mode quick
    python -m repro.experiments.runner --experiment all --mode full
    python -m repro.experiments.runner --experiment table3 \\
        --trace-out results/table3.trace.jsonl --manifest results/run_manifest.json

``quick`` runs at reduced scale (CI-friendly); ``full`` reproduces
the repository's headline numbers recorded in EXPERIMENTS.md.
Every (estimator, workload) pass is cached under ``.cache/experiments/runs``
one query at a time, so re-running a killed invocation resumes it.

With ``--trace-out`` the whole run executes under an active
:mod:`repro.obs` tracer and the span tree is exported as JSONL.
``--manifest`` (implied by ``--trace-out`` and by ``--save``) writes a
machine-readable ``run_manifest.json`` carrying the experiment config,
per-experiment wall times, every estimator run's per-query phase
timings, and a metrics snapshot.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import time
from pathlib import Path

from repro.experiments import (
    figure2,
    figure3,
    observations,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.obs import events as obs_events
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "observations": observations.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--experiment",
        default="all",
        choices=["all", *EXPERIMENTS],
        help="which table/figure to reproduce",
    )
    parser.add_argument(
        "--mode",
        default="quick",
        choices=["quick", "full"],
        help="reduced-scale quick pass or the full reproduction",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan benchmark queries across N forked worker processes "
        "(results and metrics are deterministic; 1 = serial)",
    )
    parser.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per (estimator, query) pair; overruns are "
        "recorded as failed query runs",
    )
    parser.add_argument(
        "--campaign-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per estimator/workload campaign; queries "
        "that cannot start in time are recorded as failed",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="additionally write each report to DIR/<experiment>.txt",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="run under a tracer and export the span tree as JSONL",
    )
    parser.add_argument(
        "--manifest",
        metavar="FILE",
        default=None,
        help="write a run_manifest.json (config, timings, metrics); "
        "defaults to DIR/run_manifest.json when --save is given",
    )
    parser.add_argument(
        "--events-out",
        metavar="FILE",
        default=None,
        help="stream structured campaign events (JSONL) while experiments run",
    )
    args = parser.parse_args(argv)

    config = dataclasses.replace(
        ExperimentConfig.named(args.mode),
        workers=max(1, args.workers),
        query_timeout_seconds=args.query_timeout,
        campaign_timeout_seconds=args.campaign_timeout,
    )
    context = ExperimentContext(config)
    selected = EXPERIMENTS if args.experiment == "all" else {
        args.experiment: EXPERIMENTS[args.experiment]
    }
    save_dir = Path(args.save) if args.save else None
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)

    manifest_path = Path(args.manifest) if args.manifest else None
    if manifest_path is None and save_dir is not None:
        manifest_path = save_dir / "run_manifest.json"
    if manifest_path is None and args.trace_out:
        manifest_path = Path(args.trace_out).with_name("run_manifest.json")

    tracer = obs_trace.Tracer() if args.trace_out else None
    experiment_timings: dict[str, float] = {}
    with contextlib.ExitStack() as stack:
        event_log = (
            stack.enter_context(obs_events.use_event_log(args.events_out))
            if args.events_out
            else None
        )
        runs = stack.enter_context(obs_manifest.collecting())
        stack.enter_context(obs_trace.use_tracer(tracer))
        try:
            for name, experiment in selected.items():
                started = time.perf_counter()
                obs_events.emit("experiment.begin", experiment=name)
                with obs_trace.span("experiment", name=name):
                    output = experiment(context)
                elapsed = time.perf_counter() - started
                experiment_timings[name] = elapsed
                obs_events.emit(
                    "experiment.end", experiment=name, seconds=round(elapsed, 3)
                )
                print(output)
                print(f"\n[{name} finished in {elapsed:.1f}s]\n")
                if save_dir is not None:
                    (save_dir / f"{name}.txt").write_text(output + "\n")
        finally:
            if tracer is not None:
                tracer.export_jsonl(args.trace_out)
                print(f"[trace: {len(tracer.spans)} spans -> {args.trace_out}]")
            if event_log is not None:
                print(f"[events: {event_log.count} -> {args.events_out}]")
            if manifest_path is not None:
                config = {
                    key: str(value) if isinstance(value, Path) else value
                    for key, value in dataclasses.asdict(context.config).items()
                }
                obs_manifest.write_run_manifest(
                    manifest_path,
                    config,
                    runs,
                    trace_file=args.trace_out,
                    events_file=args.events_out,
                    extra={"experiment_timings_seconds": experiment_timings},
                )
                print(f"[manifest -> {manifest_path}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
