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
pytest benchmark suite) open a ``with collecting() as runs:`` block,
in which :func:`collect_run` appends to ``runs``, then pass ``runs`` to
:func:`write_run_manifest` at the end of the session.  Like the tracer,
the collector lives in a :class:`~contextvars.ContextVar`, so it is
scoped to the calling thread and to the block.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

from repro.obs import metrics

#: Version 2 adds the ``events_file`` link and guarantees sorted JSON
#: keys; readers (dashboard, blame tooling) use :func:`load_run_manifest`
#: to reject artifacts written by incompatible revisions.
MANIFEST_SCHEMA_VERSION = 2

#: Versions current readers can still interpret (v1 lacked
#: ``events_file`` and key ordering, both of which readers tolerate).
_COMPATIBLE_SCHEMA_VERSIONS = (1, 2)

#: The ``(label, EstimatorRun)`` list of the innermost :func:`collecting`
#: block, or None.  Duck-typed to avoid a core -> obs -> core import cycle.
_COLLECTED: ContextVar[list[tuple[str, object]] | None] = ContextVar(
    "repro_manifest_runs", default=None
)


@contextmanager
def collecting():
    """Note every :func:`collect_run` of the enclosed block; yields the list."""
    runs: list[tuple[str, object]] = []
    token = _COLLECTED.set(runs)
    try:
        yield runs
    finally:
        _COLLECTED.reset(token)


def collect_run(label: str, run) -> None:
    """Note one :class:`EstimatorRun` if a :func:`collecting` block is open."""
    runs = _COLLECTED.get()
    if runs is not None:
        runs.append((label, run))


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
    runs: list[tuple[str, object]],
    *,
    trace_file: str | None = None,
    checkpoint_file: str | None = None,
    events_file: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble a manifest dict from config + runs + current metrics.

    ``runs`` are ``(label, EstimatorRun)`` pairs, e.g. the list a
    :func:`collecting` block yields.  ``checkpoint_file`` links the campaign's resilience checkpoint
    (JSONL of completed QueryRuns) and ``events_file`` the structured
    event log, the way ``trace_file`` links the span tree.
    """
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
    runs: list[tuple[str, object]],
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
