"""The benchmark's own span recorder.

Spans are recorded around the calls the benchmark makes into each layer
(never inside the program), kept in memory, and written out once at the
end of a run.  One recorder belongs to one thread; recorders of several
client threads are merged with :func:`merge` before analysis.

A span is a plain dict: ``id``, ``name``, ``start``, ``end`` (both
``perf_counter`` seconds), ``parent`` (id or None), ``op`` (the id all
spans of one operation share) plus free attributes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


class SpanRecorder:
    """Records nested spans on one thread; a disabled recorder records nothing."""

    def __init__(self, enabled: bool = True, prefix: str = "s"):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._prefix = prefix
        self._stack: list[dict] = []

    def _new(self, name: str, parent: dict | None, attributes: dict) -> dict:
        span = {
            "id": f"{self._prefix}{len(self.spans)}",
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": parent["id"] if parent else None,
            "op": attributes.pop("op", parent["op"] if parent else None),
            **attributes,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes):
        if not self.enabled:
            yield None
            return
        span = self._new(name, self._stack[-1] if self._stack else None, attributes)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: dict, **attributes) -> dict:
        """Record a span whose interval was measured elsewhere.

        Used for the executor's per-operator times, which come back from
        the program as ``node_stats`` and are laid out under the
        benchmark's own ``executor.execute`` span.
        """
        span = self._new(name, parent, attributes)
        span["start"], span["end"] = start, end
        return span


@dataclass
class Round:
    """One stretch of the timed region that does the same work as every other:
    a whole repetition, or a slice of a closed loop."""

    ops: int
    seconds: float
    latencies: list[float]


def merge(recorders: list[SpanRecorder]) -> list[dict]:
    return [span for recorder in recorders for span in recorder.spans]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            start = max(child["start"], cursor)
            end = min(child["end"], span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def write_jsonl(spans: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
