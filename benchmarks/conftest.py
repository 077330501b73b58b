"""Shared state for the benchmark suite.

One :class:`ExperimentContext` (quick mode) is shared by every
benchmark module; estimator evaluation passes are cached on disk under
``.cache/experiments``, so repeated benchmark runs only pay the
measurement they actually target.

Set ``REPRO_TRACE`` to run the whole session under a
:mod:`repro.obs` tracer: the span tree is exported as JSONL and a
``run_manifest.json`` (config, per-query phase timings, metrics
snapshot) is written next to it.  ``REPRO_TRACE=1`` targets
``results/``; any other value is used as the output directory.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.obs import manifest as obs_manifest
from repro.obs import trace as obs_trace


@pytest.fixture(scope="session")
def context() -> ExperimentContext:
    return ExperimentContext(ExperimentConfig.quick())


@pytest.fixture(scope="session", autouse=True)
def obs_session():
    """Optional session-wide tracing + manifest emission."""
    target = os.environ.get("REPRO_TRACE")
    if not target:
        yield
        return
    out_dir = Path("results") if target == "1" else Path(target)
    tracer = obs_trace.Tracer()
    with obs_manifest.collecting() as runs, obs_trace.use_tracer(tracer):
        try:
            yield
        finally:
            trace_path = tracer.export_jsonl(out_dir / "bench_trace.jsonl")
            config = {
                key: str(value) if isinstance(value, Path) else value
                for key, value in dataclasses.asdict(ExperimentConfig.quick()).items()
            }
            manifest_path = obs_manifest.write_run_manifest(
                out_dir / "run_manifest.json",
                config,
                runs,
                trace_file=str(trace_path),
            )
            print(f"\n[obs: trace -> {trace_path}, manifest -> {manifest_path}]")


@pytest.fixture(scope="session")
def stats_records(context):
    """Evaluation passes of the core method set on STATS-CEB."""
    names = (
        "TrueCard",
        "PostgreSQL",
        "MultiHist",
        "UniSample",
        "WJSample",
        "PessEst",
        "BayesCard",
        "DeepDB",
        "FLAT",
    )
    return context.evaluate_all("stats-ceb", names)
