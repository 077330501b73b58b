"""Process-wide counters, gauges and histograms.

A single :class:`MetricsRegistry` (reachable through :func:`registry`)
accumulates runtime signals the benchmark cares about:

- ``executor.rows.<operator>`` — rows produced per physical operator,
- ``planner.sub_plans_enumerated`` / ``planner.bipartitions_pruned`` —
  DP search effort,
- ``inference.latency_seconds.<estimator>`` — per-sub-plan estimator
  latency histograms (amortised over the batch on the batched path),
- ``inference.batch_size.<estimator>`` /
  ``injection.sub_plans_estimated`` — batched-inference shape and the
  total sub-plans priced,
- ``benchmark.aborted_queries`` — row-budget / timeout aborts,
- ``benchmark.failed_queries`` / ``benchmark.worker_crashes`` —
  infrastructure failures isolated by the resilience layer (estimator
  exceptions, planner/executor errors, dead fork workers),
- ``resilience.fallback_estimates`` and
  ``resilience.batch_inference_degraded`` — graceful degradation.

Metrics are plain Python objects with no locking: the engine is
single-process and instrumented call sites record aggregates (one
registry touch per plan/query, not per row), so the registry stays off
the hot path.  :meth:`MetricsRegistry.snapshot` returns a
JSON-serializable view used by ``run_manifest.json``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

#: Histograms keep at most this many raw observations for percentile
#: estimates; count/sum/min/max stay exact beyond it.
_HISTOGRAM_SAMPLE_CAP = 8192

#: Log-spaced (factor-2) bucket upper bounds shared by every histogram:
#: ~1µs through ~16k, covering both latency-seconds and batch-size
#: observations.  Unlike the raw-sample reservoir, bucket counts admit
#: EVERY observation, so late-run distribution shifts stay visible in
#: percentiles long after the reservoir has filled.
HISTOGRAM_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    2.0**exponent for exponent in range(-20, 15)
)


@dataclass
class Counter:
    """Monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins instantaneous value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Distribution summary: bounded raw-sample reservoir + log buckets.

    The reservoir gives exact percentiles for short runs but stops
    admitting new samples at the cap, so a long-lived process (the
    serving path) would freeze its percentiles on the first
    ``_HISTOGRAM_SAMPLE_CAP`` observations.  The factor-2 log buckets
    count every observation forever; once the reservoir is saturated,
    :meth:`percentile` switches to the bucket counts, so late-run
    latency shifts move p95/p99 (within one bucket boundary).
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    samples: list[float] = field(default_factory=list)
    #: One count per bound in :data:`HISTOGRAM_BUCKET_BOUNDS` plus a
    #: final overflow bucket; ``bucket_counts[i]`` counts observations
    #: with ``value <= bounds[i]`` (non-cumulative storage).
    bucket_counts: list[int] = field(
        default_factory=lambda: [0] * (len(HISTOGRAM_BUCKET_BOUNDS) + 1)
    )

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.samples) < _HISTOGRAM_SAMPLE_CAP:
            self.samples.append(value)
        self.bucket_counts[bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile.

        Exact over the raw reservoir while it holds every observation;
        once observations outnumber retained samples (reservoir
        saturated, or a lossy merge), the estimate comes from the log
        buckets instead — at worst one bucket boundary off, but never
        blind to a post-saturation distribution shift.
        """
        if not self.samples and not any(self.bucket_counts):
            return 0.0
        if self.count <= len(self.samples):
            ordered = sorted(self.samples)
            rank = min(
                len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1)))
            )
            return ordered[rank]
        return self._bucket_percentile(q)

    def _bucket_percentile(self, q: float) -> float:
        """Percentile from the bucket counts (upper-bound estimate)."""
        bucketed = sum(self.bucket_counts)
        if not bucketed:
            return 0.0
        rank = min(bucketed - 1, max(0, round(q / 100.0 * (bucketed - 1))))
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative > rank:
                if index < len(HISTOGRAM_BUCKET_BOUNDS):
                    return min(HISTOGRAM_BUCKET_BOUNDS[index], self.maximum)
                return self.maximum  # overflow bucket
        return self.maximum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs.

        Only boundaries whose cumulative count changed are included
        (plus the final ``+Inf`` bucket), so exports stay compact.
        """
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(
            HISTOGRAM_BUCKET_BOUNDS, self.bucket_counts
        ):
            cumulative += bucket_count
            if bucket_count:
                pairs.append((bound, cumulative))
        pairs.append((float("inf"), cumulative + self.bucket_counts[-1]))
        return pairs

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Name-keyed store of counters, gauges and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def histograms(self) -> dict[str, Histogram]:
        """Live histogram objects by name (for bucket-level exporters)."""
        return dict(self._histograms)

    def snapshot(self) -> dict:
        """JSON-serializable view of every metric, sorted by name."""
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
        }

    def dump(self) -> dict:
        """Full lossless state, including raw histogram samples.

        Unlike :meth:`snapshot` (a human/JSON summary), a dump can be
        merged into another registry without losing information — the
        transport format for per-worker metrics in multi-process
        benchmark runs.  Keys are sorted so dumps (and anything
        serialized from them) are deterministic and diff cleanly.
        """
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {
                name: {
                    "count": self._histograms[name].count,
                    "total": self._histograms[name].total,
                    "minimum": self._histograms[name].minimum,
                    "maximum": self._histograms[name].maximum,
                    "samples": list(self._histograms[name].samples),
                    "bucket_counts": list(self._histograms[name].bucket_counts),
                }
                for name in sorted(self._histograms)
            },
        }

    def merge(self, dump: dict) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters and histogram totals add; gauges are last-write-wins;
        histogram sample reservoirs extend up to the cap.  Used to
        aggregate per-worker metrics after a parallel workload run.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in dump.get("histograms", {}).items():
            histogram = self.histogram(name)
            histogram.count += payload["count"]
            histogram.total += payload["total"]
            histogram.minimum = min(histogram.minimum, payload["minimum"])
            histogram.maximum = max(histogram.maximum, payload["maximum"])
            room = _HISTOGRAM_SAMPLE_CAP - len(histogram.samples)
            if room > 0:
                histogram.samples.extend(payload["samples"][:room])
            bucket_counts = payload.get("bucket_counts")
            if bucket_counts is None:
                # Pre-bucket dump: rebucket its samples, the best
                # available stand-in for the counts it never kept.
                for value in payload["samples"]:
                    histogram.bucket_counts[
                        bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)
                    ] += 1
            else:
                for index, bucket_count in enumerate(bucket_counts):
                    histogram.bucket_counts[index] += bucket_count

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def reset() -> None:
    _REGISTRY.reset()
