"""Machine-readable run manifests (``run_manifest.json``).

A manifest captures everything needed to interpret one benchmark or
experiment campaign after the fact:

- ``config`` — the driver's configuration dict,
- ``runs`` — per-estimator, per-query phase timings (inference,
  planning, execution), abort flags and trace links,
- ``metrics`` — a :mod:`repro.obs.metrics` snapshot (operator row
  counters, planner search effort, abort counts),
- ``trace_file`` — the companion JSONL trace, when one was exported.

Drivers that build :class:`~repro.core.benchmark.EstimatorRun` objects
indirectly (the experiment context's disk-cached evaluation passes, the
pytest benchmark suite) register them with the module-level collector
(:func:`enable_collection` / :func:`collect_run`), then call
:func:`write_run_manifest` once at the end of the session.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs import metrics

#: Version 2 adds the ``events_file`` link and guarantees sorted JSON
#: keys; readers (dashboard, blame tooling) use :func:`load_run_manifest`
#: to reject artifacts written by incompatible revisions.
MANIFEST_SCHEMA_VERSION = 2

#: Versions current readers can still interpret (v1 lacked
#: ``events_file`` and key ordering, both of which readers tolerate).
_COMPATIBLE_SCHEMA_VERSIONS = (1, 2)

#: Session accumulator: (label, EstimatorRun) pairs noted while
#: collection is enabled.  Duck-typed to avoid a core -> obs -> core
#: import cycle.
_COLLECTED: list[tuple[str, object]] = []
_COLLECTING = False


def enable_collection() -> None:
    """Start noting estimator runs for a later manifest."""
    global _COLLECTING
    _COLLECTING = True


def disable_collection() -> None:
    global _COLLECTING
    _COLLECTING = False
    _COLLECTED.clear()


def collect_run(label: str, run) -> None:
    """Note one :class:`EstimatorRun` if collection is enabled."""
    if _COLLECTING:
        _COLLECTED.append((label, run))


def collected_runs() -> list[tuple[str, object]]:
    return list(_COLLECTED)


def _query_entry(query_run) -> dict:
    return {
        "query": query_run.query_name,
        "num_tables": query_run.num_tables,
        "inference_seconds": query_run.inference_seconds,
        "planning_seconds": query_run.planning_seconds,
        "execution_seconds": query_run.execution_seconds,
        "aborted": query_run.aborted,
        "p_error": query_run.p_error,
        "trace_id": query_run.trace_id,
        "failed": query_run.failed,
        "error": query_run.error,
        "attempts": query_run.attempts,
        "fallback_estimates": query_run.fallback_estimates,
    }


def _run_entry(label: str, run) -> dict:
    return {
        "label": label,
        "estimator": run.estimator_name,
        "workload": run.workload_name,
        "aborted_count": run.aborted_count,
        "failed_count": run.failed_count,
        "totals": {
            "inference_seconds": run.total_inference_seconds(),
            "planning_seconds": run.total_planning_seconds(),
            "execution_seconds": run.total_execution_seconds(),
        },
        "queries": [_query_entry(query_run) for query_run in run.query_runs],
    }


def run_manifest(
    config: dict,
    runs: list[tuple[str, object]] | None = None,
    *,
    trace_file: str | None = None,
    checkpoint_file: str | None = None,
    events_file: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble a manifest dict from config + runs + current metrics.

    ``runs`` defaults to whatever the module collector accumulated.
    ``checkpoint_file`` links the campaign's resilience checkpoint
    (JSONL of completed QueryRuns) and ``events_file`` the structured
    event log, the way ``trace_file`` links the span tree.
    """
    if runs is None:
        runs = collected_runs()
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_unix": time.time(),
        "config": config,
        "runs": [_run_entry(label, run) for label, run in runs],
        "metrics": metrics.snapshot(),
        "trace_file": trace_file,
        "checkpoint_file": checkpoint_file,
        "events_file": events_file,
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_run_manifest(
    path: str | Path,
    config: dict,
    runs: list[tuple[str, object]] | None = None,
    *,
    trace_file: str | None = None,
    checkpoint_file: str | None = None,
    events_file: str | None = None,
    extra: dict | None = None,
) -> Path:
    """Write :func:`run_manifest` output as JSON and return the path.

    Keys are sorted so two manifests of the same campaign are
    byte-comparable (dict iteration order never leaks into artifacts).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = run_manifest(
        config,
        runs,
        trace_file=trace_file,
        checkpoint_file=checkpoint_file,
        events_file=events_file,
        extra=extra,
    )
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n")
    return path


def load_run_manifest(path: str | Path) -> dict:
    """Read a manifest back, rejecting incompatible schema versions.

    The dashboard and blame tooling load artifacts through this
    function so a manifest written by a future (or corrupted) revision
    fails loudly instead of being half-interpreted.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version not in _COMPATIBLE_SCHEMA_VERSIONS:
        raise ValueError(
            f"{path}: manifest schema {version!r} is not supported "
            f"(compatible: {list(_COMPATIBLE_SCHEMA_VERSIONS)})"
        )
    return payload
