"""Streaming campaign checkpoints (JSONL) and resume.

A campaign checkpoint is an append-only JSONL file: a header line
identifying the schema, then one ``query_run`` record per completed
(estimator, query) pair, flushed as soon as the pair finishes, and
optionally one ``fit`` record per estimator (training time and model
size).  A campaign killed at any point therefore loses at most the
query it was executing; resuming loads the file, skips every recorded
pair, and keeps appending to the same file.  ``repro bench --resume``
and the experiment context's per-pass run cache both work this way.

Resumed runs are **correctness-grade, not timing-grade**: the recorded
cardinalities, plans and Q-/P-Errors splice bit-identically into the
resumed campaign, but the recorded phase timings were measured in the
interrupted process (possibly under different load), so end-to-end
wall-time aggregates of a resumed campaign must not be compared against
uninterrupted timing runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from repro.core.benchmark import QueryRun
from repro.obs.jsonl import open_append, read_jsonl

CHECKPOINT_SCHEMA_VERSION = 1


def query_run_to_dict(run: QueryRun) -> dict:
    """JSON-safe dict for one QueryRun (tuples become lists)."""
    payload = dataclasses.asdict(run)
    payload["join_order"] = _listify(payload["join_order"])
    if isinstance(payload["p_error"], float) and math.isnan(payload["p_error"]):
        payload["p_error"] = None  # NaN is not valid JSON
    return payload


def query_run_from_dict(payload: dict) -> QueryRun:
    """Rebuild a QueryRun from :func:`query_run_to_dict` output.

    Tolerates records written by older schema revisions: missing
    resilience fields default to their no-fault values, and fields no
    longer kept (``attempts``) are ignored.
    """
    return QueryRun(
        query_name=payload["query_name"],
        num_tables=payload["num_tables"],
        inference_seconds=payload["inference_seconds"],
        planning_seconds=payload["planning_seconds"],
        execution_seconds=payload["execution_seconds"],
        aborted=payload["aborted"],
        result_cardinality=payload["result_cardinality"],
        p_error=float("nan") if payload["p_error"] is None else payload["p_error"],
        q_errors=list(payload.get("q_errors", ())),
        join_order=_tuplify(payload.get("join_order", ())),
        methods=list(payload.get("methods", ())),
        trace_id=payload.get("trace_id"),
        failed=payload.get("failed", False),
        error=payload.get("error"),
        fallback_estimates=payload.get("fallback_estimates", 0),
    )


class CampaignCheckpoint:
    """Append-only JSONL record of completed (estimator, query) pairs."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._completed: dict[tuple[str, str], QueryRun] = {}
        self._fits: dict[str, tuple[float, int]] = {}
        self._handle = None

    # -- reading ----------------------------------------------------------

    @classmethod
    def resume(cls, path: str | Path) -> "CampaignCheckpoint":
        """Open ``path`` for resumption, loading every completed pair.

        A missing file is not an error — resuming a checkpoint that was
        never written behaves like starting fresh.  Truncated trailing
        lines (the usual signature of a killed process) are skipped.
        """
        checkpoint = cls(path)
        checkpoint._load()
        return checkpoint

    def _load(self) -> None:
        for record in read_jsonl(self.path):
            kind = record.get("kind")
            if kind == "header":
                version = record.get("schema_version")
                if version != CHECKPOINT_SCHEMA_VERSION:
                    raise ValueError(
                        f"{self.path}: checkpoint schema {version!r} "
                        f"is not supported (expected "
                        f"{CHECKPOINT_SCHEMA_VERSION})"
                    )
            elif kind == "query_run":
                run = query_run_from_dict(record["run"])
                self._completed[(record["estimator"], run.query_name)] = run
            elif kind == "fit":
                self._fits[record["estimator"]] = (
                    record["training_seconds"],
                    record["model_size_bytes"],
                )
            # Unknown kinds are ignored for forward compatibility.

    def get(self, estimator_name: str, query_name: str) -> QueryRun | None:
        """The recorded run for one pair, or None if not yet completed."""
        return self._completed.get((estimator_name, query_name))

    def runs(self) -> list[tuple[str, QueryRun]]:
        """Every recorded (estimator, run) pair, in first-recorded order."""
        return [(estimator, run) for (estimator, _), run in self._completed.items()]

    def fit(self, estimator_name: str) -> tuple[float, int] | None:
        """The last recorded (training seconds, model bytes), or None."""
        return self._fits.get(estimator_name)

    def completed_queries(self, estimator_name: str) -> set[str]:
        return {
            query for (name, query) in self._completed if name == estimator_name
        }

    def __len__(self) -> int:
        return len(self._completed)

    # -- writing ----------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._handle is None:
            self._handle = open_append(self.path)
            if self._handle.tell() == 0:
                self._write(
                    {"kind": "header", "schema_version": CHECKPOINT_SCHEMA_VERSION}
                )

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def append(self, estimator_name: str, run: QueryRun) -> None:
        """Record one completed pair, durably, and remember it for get()."""
        self._ensure_open()
        self._write(
            {
                "kind": "query_run",
                "estimator": estimator_name,
                "run": query_run_to_dict(run),
            }
        )
        self._completed[(estimator_name, run.query_name)] = run

    def append_fit(
        self, estimator_name: str, training_seconds: float, model_size_bytes: int
    ) -> None:
        """Record one estimator's training time and model size, durably."""
        self._ensure_open()
        self._write(
            {
                "kind": "fit",
                "estimator": estimator_name,
                "training_seconds": training_seconds,
                "model_size_bytes": model_size_bytes,
            }
        )
        self._fits[estimator_name] = (training_seconds, model_size_bytes)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value
