"""Accuracy-drift monitoring: does the served model still estimate well?

A serving process only ever sees its own estimates; accuracy requires
ground truth, which arrives two ways — clients posting actual
cardinalities to ``POST /feedback`` after executing their queries, or
the service sampling its own traffic and executing every Nth query
against the local database.  Either way the pair lands here.

The monitor windows q-errors per ``(model, version, join template)``
key — the same template axis the workload-shift benchmark uses — so a
drifting *slice* of traffic (one join shape going stale after an
append-heavy day) is visible even when the aggregate looks fine.  A
window whose median q-error crosses the threshold (with enough
samples to mean anything) raises a ``serve.drift`` event exactly once
per degradation episode and keeps a registry gauge of currently
degraded windows; recovery clears it.

Every pair is also appended (flushed, torn-tail-tolerant) to a JSONL
file in the shape :mod:`repro.obs.blame` records per-node — ``tables``
/ ``estimated_rows`` / ``true_rows`` / ``ratio`` / ``direction`` —
so post-hoc blame tooling can consume a serving day's feedback the way
it consumes a benchmark run.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.metrics import misestimate
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.jsonl import open_append


@dataclass(frozen=True)
class DriftConfig:
    """Windowing and alerting knobs for the drift monitor."""

    #: Sliding window of q-errors kept per (model, version, template).
    window: int = 32
    #: Windows with fewer samples than this never alert.
    min_count: int = 8
    #: Median q-error above this marks the window degraded.
    threshold: float = 4.0


@dataclass
class _DriftWindow:
    q_errors: deque
    degraded: bool = False
    pairs: int = 0
    last_q_error: float = 0.0

    def median(self) -> float:
        return statistics.median(self.q_errors) if self.q_errors else 0.0


@dataclass
class DriftEvent:
    """One degradation episode: a window crossing the threshold."""

    model: str
    version: int
    template: tuple[str, ...]
    median_q_error: float
    window_size: int
    unix_time: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "version": self.version,
            "template": list(self.template),
            "median_q_error": round(self.median_q_error, 4),
            "window_size": self.window_size,
            "unix_time": self.unix_time,
        }


class DriftMonitor:
    """Thread-safe windowed q-error tracker with blame-shaped persistence."""

    def __init__(
        self,
        config: DriftConfig | None = None,
        pairs_path: str | Path | None = None,
    ):
        self.config = config or DriftConfig()
        self._lock = threading.Lock()
        self._windows: dict[tuple, _DriftWindow] = {}
        self._events: list[DriftEvent] = []
        self._handle = None
        self.pairs_path: Path | None = None
        if pairs_path is not None:
            self.pairs_path = Path(pairs_path)
            self._handle = open_append(self.pairs_path)

    # -- recording ---------------------------------------------------------

    def observe(
        self,
        *,
        model: str,
        version: int,
        template: tuple[str, ...],
        estimate: float,
        actual: float,
        estimator: str = "",
        request_id: str = "",
        source: str = "feedback",
        sql: str = "",
    ) -> dict:
        """Fold one est-vs-actual pair in; returns the pair record."""
        error, direction = misestimate(estimate, actual)
        record = {
            "ts": time.time(),
            "model": model,
            "version": int(version),
            "estimator": estimator,
            "tables": list(template),
            "estimated_rows": float(estimate),
            "true_rows": float(actual),
            "ratio": error,
            "direction": direction,
            "q_error": error,
            "request_id": request_id,
            "source": source,
            "sql": sql,
        }
        key = (model, int(version), tuple(template))
        registry = obs_metrics.registry()
        fired: DriftEvent | None = None
        with self._lock:
            window = self._windows.get(key)
            if window is None:
                window = self._windows[key] = _DriftWindow(
                    q_errors=deque(maxlen=self.config.window)
                )
            window.q_errors.append(error)
            window.pairs += 1
            window.last_q_error = error
            median = window.median()
            enough = len(window.q_errors) >= self.config.min_count
            if enough and median > self.config.threshold:
                if not window.degraded:
                    window.degraded = True
                    fired = DriftEvent(
                        model=model,
                        version=int(version),
                        template=tuple(template),
                        median_q_error=median,
                        window_size=len(window.q_errors),
                    )
                    self._events.append(fired)
            elif enough and window.degraded:
                window.degraded = False
            degraded_now = sum(w.degraded for w in self._windows.values())
            if self._handle is not None:
                self._handle.write(json.dumps(record) + "\n")
                self._handle.flush()
        registry.gauge("serve.drift.degraded_windows").set(degraded_now)
        registry.histogram("serve.drift.q_error").observe(error)
        if fired is not None:
            registry.counter("serve.drift.events").inc()
            obs_events.emit(
                "serve.drift",
                level="warning",
                model=fired.model,
                version=fired.version,
                template=",".join(fired.template),
                median_q_error=round(fired.median_q_error, 4),
                window_size=fired.window_size,
            )
        return record

    # -- reading -----------------------------------------------------------

    def events(self) -> list[dict]:
        with self._lock:
            return [event.to_dict() for event in self._events]

    def snapshot(self) -> dict:
        """Per-window state for ``/healthz`` detail and the dashboard."""
        with self._lock:
            windows = []
            for (model, version, template), window in sorted(
                self._windows.items(), key=lambda item: item[0]
            ):
                windows.append(
                    {
                        "model": model,
                        "version": version,
                        "template": list(template),
                        "pairs": window.pairs,
                        "window_size": len(window.q_errors),
                        "median_q_error": round(window.median(), 4),
                        "last_q_error": round(window.last_q_error, 4),
                        "degraded": window.degraded,
                    }
                )
            return {
                "threshold": self.config.threshold,
                "min_count": self.config.min_count,
                "window": self.config.window,
                "events": len(self._events),
                "degraded_windows": sum(
                    1 for entry in windows if entry["degraded"]
                ),
                "windows": windows,
            }

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
