"""Estimation-as-a-service: a concurrent serving layer.

The paper evaluates CardEst methods as offline artifacts; this package
is the deployment shape its end-to-end claim actually lives in — a
long-lived process answering estimation requests over HTTP:

- :mod:`repro.serve.registry` — named estimator versions with atomic
  hot-swap (train offline, promote under a lock);
- :mod:`repro.serve.batching` — cross-client micro-batching: requests
  that arrive while one is being priced share the next
  ``estimate_batch`` call, a lone one is priced on its own thread;
  bounded queue with admission control (429 on overflow);
- :mod:`repro.serve.service` — the transport-free service core:
  parse-cached SQL, per-request timeout/fallback via the
  :mod:`repro.resilience` policies, sub-plan-space pricing through the
  batched :mod:`repro.core.injection` path;
- :mod:`repro.serve.app` — the HTTP surface (``POST /estimate``,
  ``/estimate_batch``, ``/subplans``, ``/admin/promote``, plus
  ``/metrics`` and ``/healthz``) on the shared
  :mod:`repro.obs.httpd` machinery;
- :mod:`repro.serve.loadgen` — the closed-loop load generator behind
  ``benchmarks/bench_serve.py`` (QPS, p50/p99 at 1/8/64 clients);
- :mod:`repro.serve.tracing` — the append-only span sink, the
  batch links between request and batch traces, and the structured
  access log (request tracers are :mod:`repro.obs.trace`'s);
- :mod:`repro.serve.slo` — sliding-window burn-rate SLO accounting;
- :mod:`repro.serve.drift` — windowed est-vs-actual q-error
  monitoring fed by ``POST /feedback`` or self-execution sampling.
"""

from repro.serve.app import build_server
from repro.serve.batching import AdmissionError, MicroBatcher
from repro.serve.drift import DriftConfig, DriftMonitor
from repro.serve.loadgen import LoadReport, RequestSample, run_load
from repro.serve.registry import ModelRegistry, ModelVersion, UnknownModelError
from repro.serve.service import (
    BadRequestError,
    EstimationService,
    ServeObservability,
    ServiceError,
)
from repro.serve.slo import SLOConfig, SLOMonitor
from repro.serve.tracing import AccessLog, TraceLink, TraceSink

__all__ = [
    "AccessLog",
    "AdmissionError",
    "BadRequestError",
    "DriftConfig",
    "DriftMonitor",
    "EstimationService",
    "LoadReport",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "RequestSample",
    "SLOConfig",
    "SLOMonitor",
    "ServeObservability",
    "ServiceError",
    "TraceLink",
    "TraceSink",
    "UnknownModelError",
    "build_server",
    "run_load",
]
