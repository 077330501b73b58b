"""The HTTP surface of the estimation service.

Routes (all JSON bodies/responses):

- ``POST /estimate``        — ``{"sql": "...", "model": "name"?}`` ->
  one estimate (micro-batched across clients);
- ``POST /estimate_batch``  — ``{"sql": ["...", ...], "model": ...}``;
- ``POST /subplans``        — the whole connected-sub-plan space of
  one query, priced through the batched injection path;
- ``POST /feedback``        — actual cardinalities for a served
  request (``{"request_id": ..., "actuals": [...]}``) or a standalone
  pair, folded into the accuracy-drift monitor;
- ``POST /admin/promote``   — ``{"estimator": "LW-XGB"}`` (train) or
  ``{"path": "model.pkl"}`` (load), then atomic hot-swap;
- ``POST /admin/shutdown``  — ask the serving process to exit cleanly;
- ``GET /models`` ``/healthz`` ``/metrics`` (Prometheus text, the
  whole obs registry — request counters, latency histograms with
  ``_bucket`` series, SLO burn rates, drift gauges).

Status mapping: 400 malformed request, 404 unknown model/route, 405
wrong method, 429 admission control, 504 request deadline, 500
anything else (still JSON).  Every route is instrumented into the
:mod:`repro.obs.metrics` registry: ``serve.requests.<route>``,
``serve.errors.<route>`` and ``serve.latency_seconds.<route>``.

Every response carries ``X-Request-ID`` (adopted from the client or
minted in :mod:`repro.obs.httpd`).  When a
:class:`~repro.serve.service.ServeObservability` bundle is attached,
the instrumented wrapper additionally gives each request its own
trace (trace id == request id) exported to the shared sink, installs
the bundle's event log on the handler thread for the request, appends
one access-log line, and folds the outcome into the SLO monitor —
whatever the status, including error paths.
"""

from __future__ import annotations

import time

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.httpd import (
    PROMETHEUS_CONTENT_TYPE,
    HTTPError,
    Request,
    Response,
    RoutedHTTPServer,
    json_response,
    text_response,
)
from repro.obs.progress import prometheus_text
from repro.serve.batching import AdmissionError, BatcherClosedError
from repro.serve.registry import UnknownModelError
from repro.serve.service import BadRequestError, EstimationService

#: service exception -> HTTP status.
_STATUS_OF = (
    (BadRequestError, 400),
    (UnknownModelError, 404),
    (AdmissionError, 429),
    (BatcherClosedError, 503),
    (TimeoutError, 504),
)


def _status_of(error: Exception) -> int:
    for exc_type, status in _STATUS_OF:
        if isinstance(error, exc_type):
            return status
    return 500


def _instrumented(route_name: str, fn, service: EstimationService):
    """Wrap a route with metrics, status mapping, tracing and logging."""
    obs = service.obs
    if obs.events is not None:
        fn = _with_event_log(fn, obs.events)

    def route(request: Request) -> Response:
        registry = obs_metrics.registry()
        registry.counter(f"serve.requests.{route_name}").inc()
        started = time.perf_counter()
        tracer = (
            obs_trace.Tracer(trace_id=request.request_id)
            if obs.trace_sink is not None
            else None
        )
        status = 200
        try:
            with obs_trace.use_tracer(tracer):
                if tracer is None:
                    response = fn(request)
                else:
                    with tracer.span(
                        "request",
                        route=route_name,
                        method=request.method,
                        request_id=request.request_id,
                    ) as root:
                        response = fn(request)
                        root.set(status=response.status)
            status = response.status
            return response
        except HTTPError as error:
            status = error.status
            registry.counter(f"serve.errors.{route_name}").inc()
            raise
        except Exception as error:
            registry.counter(f"serve.errors.{route_name}").inc()
            status = _status_of(error)
            if status != 500:
                raise HTTPError(status, str(error)) from error
            raise
        finally:
            elapsed = time.perf_counter() - started
            registry.histogram(f"serve.latency_seconds.{route_name}").observe(
                elapsed
            )
            if tracer is not None:
                obs.trace_sink.write_spans(tracer.spans)
            if obs.access_log is not None:
                obs.access_log.record(
                    request_id=request.request_id,
                    route=route_name,
                    method=request.method,
                    status=status,
                    latency_seconds=elapsed,
                )
            if obs.slo is not None:
                obs.slo.record(route_name, elapsed, status)

    return route


def _with_event_log(fn, log):
    """``fn`` with ``log`` installed on the calling (handler) thread."""

    def route(request: Request) -> Response:
        with obs_events.use_event_log(log):
            return fn(request)

    return route


def _sql_list(payload: dict) -> list:
    sqls = payload.get("sql")
    if isinstance(sqls, str):
        return [sqls]
    if isinstance(sqls, list) and sqls:
        return sqls
    raise HTTPError(400, "'sql' must be a non-empty string or list of strings")


def build_server(
    service: EstimationService, addr: str, flag: str = "--serve-addr"
) -> RoutedHTTPServer:
    """Bind (not start) a routed HTTP server around ``service``."""
    server = RoutedHTTPServer(addr, flag=flag, thread_name="repro-serve")

    def estimate(request: Request) -> Response:
        payload = request.json()
        result = service.estimate_many(
            _sql_list(payload),
            model=payload.get("model"),
            request_id=request.request_id,
        )
        if isinstance(payload.get("sql"), str):
            result["estimate"] = result["estimates"][0]
        return json_response(result)

    def sub_plans(request: Request) -> Response:
        payload = request.json()
        sql = payload.get("sql")
        if not isinstance(sql, str):
            raise HTTPError(400, "'sql' must be a string")
        return json_response(
            service.sub_plans(
                sql, model=payload.get("model"), request_id=request.request_id
            )
        )

    def feedback(request: Request) -> Response:
        return json_response(service.feedback(request.json()))

    def promote(request: Request) -> Response:
        payload = request.json()
        return json_response(
            service.promote(
                name=payload.get("name"),
                estimator_name=payload.get("estimator"),
                path=payload.get("path"),
            )
        )

    def shutdown(request: Request) -> Response:
        service.shutdown_requested.set()
        return json_response({"status": "shutting down"})

    def models(request: Request) -> Response:
        return json_response(service.registry.describe())

    def healthz(request: Request) -> Response:
        return json_response(service.healthz())

    def metrics(request: Request) -> Response:
        if service.obs.slo is not None:
            service.obs.slo.snapshot()  # refresh burn-rate gauges at scrape
        return text_response(
            prometheus_text(),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    server.add_route(
        "POST", "/estimate", _instrumented("estimate", estimate, service)
    )
    server.add_route(
        "POST",
        "/estimate_batch",
        _instrumented("estimate_batch", estimate, service),
    )
    server.add_route(
        "POST", "/subplans", _instrumented("subplans", sub_plans, service)
    )
    server.add_route(
        "POST", "/feedback", _instrumented("feedback", feedback, service)
    )
    server.add_route(
        "POST", "/admin/promote", _instrumented("promote", promote, service)
    )
    server.add_route("POST", "/admin/shutdown", shutdown)
    server.add_route("GET", "/models", models)
    server.add_route("GET", "/healthz", healthz)
    server.add_route("GET", "/", metrics)
    server.add_route("GET", "/metrics", metrics)
    return server
