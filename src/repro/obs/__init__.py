"""Observability: tracing, metrics, events, live progress (``repro.obs``).

Dependency-free instrumentation for the benchmark platform:

- :mod:`repro.obs.trace` — hierarchical spans with a JSONL exporter,
- :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms,
- :mod:`repro.obs.events` — leveled, run-scoped JSONL structured events,
- :mod:`repro.obs.jsonl` — the append/recover contract every JSONL log
  shares (terminate a torn tail before appending, skip it on read),
- :mod:`repro.obs.progress` — live campaign progress, Prometheus-text
  export and an optional stdlib HTTP ``/metrics`` + ``/progress`` +
  ``/healthz`` endpoint,
- :mod:`repro.obs.blame` — misestimation attribution records, roll-ups
  and report (filled by :mod:`repro.experiments.blame`),
- :mod:`repro.obs.dashboard` — self-contained HTML campaign report,
- :mod:`repro.obs.manifest` — machine-readable ``run_manifest.json``
  (per-query and per-run inference / planning / execution seconds).

The package imports neither ``repro.engine`` nor ``repro.core``.  Speed,
including what tracing costs (``trace.overhead_share``), is measured by
``benchmarks/perf/run.py`` (``BENCHMARK.json``), not from inside this
package; for function-level stacks run the command under
``python -m cProfile``.

Every sink follows one scoping rule: it lives in a
:class:`~contextvars.ContextVar` and is installed for a ``with`` block
by its own installer — :func:`~repro.obs.trace.use_tracer`,
:func:`~repro.obs.events.use_event_log`,
:func:`~repro.obs.progress.use_progress` and
:func:`~repro.obs.manifest.collecting` — so it is scoped to the
calling thread and undone however the block ends.  Everything is **off
by default**: :func:`repro.obs.trace.span`,
:func:`repro.obs.events.emit`, the progress hooks and
:func:`repro.obs.manifest.collect_run` are shared no-ops outside such
a block, so an instrumented hot path costs one context-variable read
when disabled.  Only the metrics registry is process-wide: it is an
aggregate, not a sink.
"""

from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    is_active,
    load_trace,
    render_trace,
    span,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_tracer",
    "is_active",
    "load_trace",
    "registry",
    "render_trace",
    "span",
    "use_tracer",
]
