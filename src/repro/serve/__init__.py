"""Estimation-as-a-service: a concurrent serving layer.

The paper evaluates CardEst methods as offline artifacts; this package
is the deployment shape its end-to-end claim actually lives in — a
long-lived process answering estimation requests over HTTP:

- :mod:`repro.serve.registry` — named estimator versions with atomic
  hot-swap (train offline, promote under a lock);
- :mod:`repro.serve.service` — the transport-free service core:
  parse-cached SQL, rounds of estimate requests priced with one
  ``estimate_batch`` per model (429 beyond a round cap), timeout and
  fallback via :mod:`repro.resilience`, sub-plan-space pricing through
  the batched :mod:`repro.core.injection` path;
- :mod:`repro.serve.app` — the HTTP surface (``POST /estimate``,
  ``/estimate_batch``, ``/subplans``, ``/admin/promote``, plus
  ``/metrics`` and ``/healthz``) on the shared single-threaded
  :mod:`repro.obs.httpd` loop, one round per wake-up;
- :mod:`repro.serve.loadgen` — the closed-loop load generator behind
  ``benchmarks/bench_serve.py`` (QPS, p50/p99 at 1/8/64 clients);
- :mod:`repro.serve.tracing` — the append-only span sink and the
  structured access log (request tracers are :mod:`repro.obs.trace`'s);
- :mod:`repro.serve.slo` — sliding-window burn-rate SLO accounting;
- :mod:`repro.serve.drift` — windowed est-vs-actual q-error
  monitoring fed by ``POST /feedback`` or self-execution sampling.
"""

from repro.serve.app import build_server
from repro.serve.drift import DriftConfig, DriftMonitor
from repro.serve.loadgen import LoadReport, RequestSample, run_load
from repro.serve.registry import ModelRegistry, ModelVersion, UnknownModelError
from repro.serve.service import (
    AdmissionError,
    BadRequestError,
    EstimationService,
    ServeObservability,
    ServiceError,
)
from repro.serve.slo import SLOConfig, SLOMonitor
from repro.serve.tracing import AccessLog, TraceSink

__all__ = [
    "AccessLog",
    "AdmissionError",
    "BadRequestError",
    "DriftConfig",
    "DriftMonitor",
    "EstimationService",
    "LoadReport",
    "ModelRegistry",
    "ModelVersion",
    "RequestSample",
    "SLOConfig",
    "SLOMonitor",
    "ServeObservability",
    "ServiceError",
    "TraceSink",
    "UnknownModelError",
    "build_server",
    "run_load",
]
