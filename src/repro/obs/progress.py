"""Live campaign progress: aggregation, Prometheus export, HTTP endpoint.

Long benchmark campaigns used to run dark: the only signals were the
final report and (since the resilience PR) the checkpoint file.  This
module is the live view.  A :class:`ProgressTracker` aggregates the
per-query completion stream — from the serial driver directly, or from
the Pipe messages forked workers already send — into done / failed /
aborted counts, throughput and an ETA, and periodically materializes
two read-side artifacts:

- a **Prometheus text-format snapshot file** (:class:`SnapshotWriter`,
  atomic ``os.replace`` so scrapers never see a torn file), and
- an optional **stdlib HTTP endpoint** (:class:`MetricsServer`) serving
  ``/metrics`` (Prometheus exposition text, campaign gauges plus the
  whole :mod:`repro.obs.metrics` registry), ``/progress`` (JSON) and
  ``/healthz`` (200 + run id liveness probe).

Like the tracer and the event log, the live view is scoped with
``with use_progress(snapshot_path) as tracker:``, which keeps the
tracker and its snapshot writer in one
:class:`~contextvars.ContextVar`; the module-level hooks
(:func:`record_claim` / :func:`record_result` / …) are no-ops outside
such a block, so instrumented call sites cost a single
context-variable read on untelemetered runs.  The HTTP endpoint runs
on a thread of its own, so it serves the tracker it was built with.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

from repro.obs import metrics as obs_metrics
from repro.obs.httpd import (
    PROMETHEUS_CONTENT_TYPE,
    Request,
    Response,
    RoutedHTTPServer,
    json_response,
    text_response,
)

#: Completions kept for the recent-throughput window.
_RECENT_WINDOW = 32

#: Minimum seconds between two unforced snapshot-file writes.
SNAPSHOT_INTERVAL_SECONDS = 1.0


class ProgressTracker:
    """Aggregated live state of one benchmark campaign."""

    def __init__(
        self,
        total: int = 0,
        estimator: str = "",
        workload: str = "",
        clock=time.monotonic,
    ):
        self._clock = clock
        self._lock = threading.Lock()
        self.begin(total, estimator=estimator, workload=workload)

    def begin(self, total: int, estimator: str = "", workload: str = "") -> None:
        """Reset for a new campaign of ``total`` queries."""
        with self._lock:
            self.total = int(total)
            self.estimator = estimator
            self.workload = workload
            self.done = 0
            self.failed = 0
            self.aborted = 0
            self.started = self._clock()
            self._recent: deque[float] = deque(maxlen=_RECENT_WINDOW)
            self._in_flight: set[int] = set()
            self._workers: dict[int, float] = {}

    # -- update hooks ------------------------------------------------------

    def record_claim(self, index: int, worker: int | None = None) -> None:
        """A query was claimed (is now in flight)."""
        with self._lock:
            self._in_flight.add(index)
            if worker is not None:
                self._workers[worker] = self._clock()

    def heartbeat(self, worker: int) -> None:
        """A worker proved liveness (any message counts)."""
        with self._lock:
            self._workers[worker] = self._clock()

    def record_result(self, run, index: int | None = None) -> None:
        """One query finished; classify from the run's outcome flags."""
        with self._lock:
            self.done += 1
            if getattr(run, "failed", False):
                self.failed += 1
            elif getattr(run, "aborted", False):
                self.aborted += 1
            self._recent.append(self._clock())
            if index is not None:
                self._in_flight.discard(index)

    # -- derived views -----------------------------------------------------

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)

    def elapsed_seconds(self) -> float:
        return max(0.0, self._clock() - self.started)

    def throughput_qps(self) -> float:
        """Recent completions per second (falls back to overall rate).

        Contract for live exporters: always a finite, non-negative
        float — never an exception — even under clock skew, a
        mid-campaign :meth:`begin`, or a concurrent mutation of the
        recent-completion window.
        """
        try:
            recent = tuple(self._recent)
            rate = 0.0
            if len(recent) >= 2:
                span = recent[-1] - recent[0]
                if span > 0:
                    rate = (len(recent) - 1) / span
            if rate <= 0:
                elapsed = self.elapsed_seconds()
                if self.done > 0 and elapsed > 0:
                    rate = self.done / elapsed
            if not math.isfinite(rate) or rate < 0:
                return 0.0
            return rate
        except (ArithmeticError, IndexError):
            return 0.0

    def eta_seconds(self) -> float | None:
        """Projected seconds to completion, or None before any signal.

        Same hardening contract as :meth:`throughput_qps`: a finite
        non-negative float or ``None``, never an exception or a
        negative projection.
        """
        rate = self.throughput_qps()
        if rate <= 0:
            return None
        try:
            eta = self.remaining / rate
        except ArithmeticError:
            return None
        if not math.isfinite(eta) or eta < 0:
            return None
        return eta

    def snapshot(self) -> dict:
        """JSON-serializable live view (the ``/progress`` payload)."""
        with self._lock:
            now = self._clock()
            eta = self.eta_seconds()
            return {
                "estimator": self.estimator,
                "workload": self.workload,
                "total": self.total,
                "done": self.done,
                "failed": self.failed,
                "aborted": self.aborted,
                "remaining": self.remaining,
                "in_flight": sorted(self._in_flight),
                "elapsed_seconds": self.elapsed_seconds(),
                "throughput_qps": self.throughput_qps(),
                "eta_seconds": eta,
                "workers": {
                    str(worker): round(now - seen, 3)
                    for worker, seen in sorted(self._workers.items())
                },
            }

    def render(self) -> str:
        """One-line human progress view."""
        view = self.snapshot()
        parts = [f"{view['done']}/{view['total']} done"]
        if view["failed"] or view["aborted"]:
            parts.append(f"{view['failed']} failed, {view['aborted']} aborted")
        parts.append(f"{view['throughput_qps']:.2f} q/s")
        eta = view["eta_seconds"]
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        label = f"{view['estimator']}/{view['workload']}".strip("/")
        prefix = f"[{label}] " if label else ""
        return prefix + " | ".join(parts)


# -- Prometheus text exposition ----------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """Registry name -> valid Prometheus metric name."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(
    registry: obs_metrics.MetricsRegistry | None = None,
    tracker: ProgressTracker | None = None,
) -> str:
    """Render campaign progress + the metrics registry as Prometheus text.

    Counters map to ``counter``, gauges to ``gauge``; histograms are
    exported summary-style (``_count`` / ``_sum`` plus quantile lines).
    Output is sorted by metric name, so snapshots diff cleanly.
    """
    registry = registry if registry is not None else obs_metrics.registry()
    snapshot = registry.snapshot()
    lines: list[str] = []

    if tracker is not None:
        view = tracker.snapshot()
        campaign = [
            ("campaign_queries_total", view["total"]),
            ("campaign_queries_done", view["done"]),
            ("campaign_queries_failed", view["failed"]),
            ("campaign_queries_aborted", view["aborted"]),
            ("campaign_queries_in_flight", len(view["in_flight"])),
            ("campaign_elapsed_seconds", view["elapsed_seconds"]),
            ("campaign_throughput_qps", view["throughput_qps"]),
            ("campaign_workers_alive", len(view["workers"])),
        ]
        if view["eta_seconds"] is not None:
            campaign.append(("campaign_eta_seconds", view["eta_seconds"]))
        for name, value in campaign:
            full = f"repro_{name}"
            lines.append(f"# TYPE {full} gauge")
            lines.append(f"{full} {_prom_value(value)}")

    for name in sorted(snapshot["counters"]):
        full = _prom_name(name)
        lines.append(f"# TYPE {full} counter")
        lines.append(f"{full} {_prom_value(snapshot['counters'][name])}")
    for name in sorted(snapshot["gauges"]):
        full = _prom_name(name)
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_prom_value(snapshot['gauges'][name])}")
    histograms = registry.histograms()
    for name in sorted(snapshot["histograms"]):
        summary = snapshot["histograms"][name]
        full = _prom_name(name)
        lines.append(f"# TYPE {full} summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in summary:
                value = _prom_value(summary[key])
                lines.append(f'{full}{{quantile="{quantile}"}} {value}')
        lines.append(f"{full}_count {_prom_value(summary.get('count', 0))}")
        lines.append(f"{full}_sum {_prom_value(summary.get('sum', 0.0))}")
        # SLO-grade log-bucketed series alongside the percentile
        # snapshot: cumulative counts per upper bound, `le`-labelled
        # like a native Prometheus histogram, so alerting rules can
        # compute exact-window quantiles no reservoir can freeze.
        histogram = histograms.get(name)
        if histogram is not None:
            for bound, cumulative in histogram.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else _prom_value(bound)
                lines.append(f'{full}_bucket{{le="{le}"}} {cumulative}')
    return "\n".join(lines) + "\n"


class SnapshotWriter:
    """Throttled, atomic writer of Prometheus snapshot files.

    ``maybe_write`` is called from the completion hot loop, so it
    rate-limits itself to one write per ``interval_seconds`` unless
    forced; writes go through a temp file + ``os.replace`` so a scraper
    (or a kill signal) can never observe a half-written snapshot.
    """

    def __init__(
        self,
        path: str | Path,
        interval_seconds: float = 1.0,
        clock=time.monotonic,
    ):
        self.path = Path(path)
        self.interval_seconds = interval_seconds
        self._clock = clock
        self._last_write: float | None = None
        self.writes = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def maybe_write(self, tracker: ProgressTracker | None, force: bool = False) -> bool:
        now = self._clock()
        if (
            not force
            and self._last_write is not None
            and now - self._last_write < self.interval_seconds
        ):
            return False
        text = prometheus_text(tracker=tracker)
        temp = self.path.with_name(self.path.name + ".tmp")
        temp.write_text(text)
        os.replace(temp, self.path)
        self._last_write = now
        self.writes += 1
        return True


# -- HTTP endpoint ------------------------------------------------------------


class MetricsServer(RoutedHTTPServer):
    """The campaign's ``/metrics``, ``/progress`` and ``/healthz`` endpoint.

    A :class:`repro.obs.httpd.RoutedHTTPServer` (bound by the
    constructor, served from :meth:`start`).  Never required for a
    campaign — the snapshot file covers scrape-from-disk setups.
    ``/healthz`` answers 200 with the campaign's ``run_id`` whenever the
    server thread is alive, so external watchdogs can distinguish "the
    campaign is slow" from "the process is gone".  ``tracker`` is the
    campaign whose ``/progress`` and gauges are served (``None`` serves
    the registry alone).
    """

    def __init__(
        self,
        addr: str = "127.0.0.1:9464",
        run_id: str = "",
        tracker: ProgressTracker | None = None,
    ):
        super().__init__(addr, flag="--metrics-addr", thread_name="repro-metrics")
        self.run_id = run_id
        self.tracker = tracker
        self.add_route("GET", "/", self._metrics)
        self.add_route("GET", "/metrics", self._metrics)
        self.add_route("GET", "/progress", self._progress)
        self.add_route("GET", "/healthz", self._healthz)

    def _metrics(self, request: Request) -> Response:
        return text_response(
            prometheus_text(tracker=self.tracker),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _progress(self, request: Request) -> Response:
        tracker = self.tracker
        return json_response(tracker.snapshot() if tracker is not None else {})

    def _healthz(self, request: Request) -> Response:
        return json_response({"status": "ok", "run_id": self.run_id})


# -- the current live view ---------------------------------------------------

#: ``(tracker, snapshot writer or None)`` installed in this context.
_ACTIVE: ContextVar[tuple[ProgressTracker, SnapshotWriter | None] | None] = (
    ContextVar("repro_progress", default=None)
)


@contextmanager
def use_progress(snapshot_path: str | Path | None = None):
    """Install a fresh :class:`ProgressTracker` for the enclosed block.

    Yields the tracker.  With ``snapshot_path`` the hooks also keep a
    Prometheus snapshot file there (at most one unforced write per
    :data:`SNAPSHOT_INTERVAL_SECONDS`).  Scoped to the calling thread
    like :func:`repro.obs.trace.use_tracer`; a nested block replaces
    the outer tracker (and its file) until it ends.
    """
    writer = (
        SnapshotWriter(snapshot_path, interval_seconds=SNAPSHOT_INTERVAL_SECONDS)
        if snapshot_path is not None
        else None
    )
    tracker = ProgressTracker()
    token = _ACTIVE.set((tracker, writer))
    try:
        yield tracker
    finally:
        _ACTIVE.reset(token)


def begin_campaign(total: int, estimator: str = "", workload: str = "") -> None:
    """Reset the live view for a new campaign; no-op when inactive."""
    active = _ACTIVE.get()
    if active is None:
        return
    tracker, writer = active
    tracker.begin(total, estimator=estimator, workload=workload)
    if writer is not None:
        writer.maybe_write(tracker, force=True)


def record_claim(index: int, worker: int | None = None) -> None:
    active = _ACTIVE.get()
    if active is None:
        return
    tracker, writer = active
    tracker.record_claim(index, worker=worker)
    if writer is not None:
        writer.maybe_write(tracker)


def heartbeat(worker: int) -> None:
    active = _ACTIVE.get()
    if active is not None:
        active[0].heartbeat(worker)


def record_result(run, index: int | None = None) -> None:
    active = _ACTIVE.get()
    if active is None:
        return
    tracker, writer = active
    tracker.record_result(run, index=index)
    if writer is not None:
        writer.maybe_write(tracker)


def end_campaign() -> None:
    """Force a final snapshot so the file reflects the terminal state."""
    active = _ACTIVE.get()
    if active is not None and active[1] is not None:
        active[1].maybe_write(active[0], force=True)
