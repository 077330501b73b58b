"""The estimation service core, independent of any transport.

One :class:`EstimationService` owns everything a request needs:

- the live :class:`~repro.engine.database.Database` and its join
  graph (SQL is parsed against it, through a bounded parse cache —
  the serving analogue of a plan cache);
- a :class:`~repro.serve.registry.ModelRegistry` of hot-swappable
  estimators (promotion trains/loads *offline*, then swaps atomically);
- the :mod:`repro.resilience` policies applied per request: bounded
  retries, a per-request deadline, and the PostgreSQL-default
  fallback so an estimator failure degrades a response instead of
  erroring it;
- the :class:`~repro.serve.batching.MicroBatcher` every estimate
  request goes through, coalescing concurrent requests into one
  ``estimate_batch`` call (its bounded queue is the admission
  control behind 429).

Sub-plan-space requests go through
:func:`repro.core.injection.price_sub_plans`, i.e. the same batched
injection path the benchmark uses, so a serving deployment prices a
planner's whole sub-plan space in one call.

Requests trace through :mod:`repro.obs.trace`: whatever tracer the
calling thread installed (the HTTP layer installs one per request)
receives the ``parse`` and ``queue_wait`` spans here and every span
the shared code records on the way — ``retry`` from the retry policy,
``inference`` from ``price_sub_plans``.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.injection import clamped_batch, price_sub_plans
from repro.engine.database import Database
from repro.engine.query import Query
from repro.engine.sql import parse_query
from repro.estimators.base import EstimationError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import EventLog
from repro.resilience.fallback import PostgresDefaultFallback
from repro.resilience.policy import Deadline, RetryPolicy, call_with_retry
from repro.serve.batching import AdmissionError, MicroBatcher
from repro.serve.drift import DriftMonitor
from repro.serve.registry import ModelRegistry
from repro.serve.slo import SLOMonitor
from repro.serve.tracing import AccessLog, TraceLink, TraceSink

#: How many recently served requests keep their estimates around so a
#: later ``POST /feedback`` can resolve a ``request_id`` to the exact
#: (model, version, per-query estimate) that answered it.
_RECENT_REQUEST_CAP = 4096

#: Distinct SQL texts the parse cache keeps (least recently used go first).
PARSE_CACHE_SIZE = 2048


class ServiceError(RuntimeError):
    """Base class for request-level service failures."""


class BadRequestError(ServiceError):
    """Malformed request content (unparseable SQL, wrong field types)."""


@dataclass
class ServeObservability:
    """The serving path's observability bundle (all parts optional).

    One instance is wired through :class:`EstimationService` into the
    app layer and the micro-batcher: the trace sink collects per-request
    and per-batch spans, the access log records one line per served
    request, the SLO monitor turns outcomes into burn rates, the drift
    monitor folds est-vs-actual feedback into windowed q-errors, and the
    event log receives the structured events (``serve.drift``, retries)
    of the service's own threads: it is installed with
    :func:`repro.obs.events.use_event_log` on each request's handler
    thread and on the self-execution thread, never process-wide.
    """

    trace_sink: TraceSink | None = None
    access_log: AccessLog | None = None
    slo: SLOMonitor | None = None
    drift: DriftMonitor | None = None
    events: EventLog | None = None

    def close(self) -> None:
        for part in (self.trace_sink, self.access_log, self.drift, self.events):
            if part is not None:
                part.close()


class EstimationService:
    """Answers estimation requests; one instance per serving process."""

    def __init__(
        self,
        database: Database,
        registry: ModelRegistry | None = None,
        trainer=None,
        fallback=None,
        retry: RetryPolicy | None = None,
        request_timeout_seconds: float | None = None,
        batch_window_seconds: float = 0.001,
        max_queue: int = 256,
        run_id: str = "",
        obs: ServeObservability | None = None,
        self_execute_every: int = 0,
    ):
        self.database = database
        self.registry = registry if registry is not None else ModelRegistry()
        self.run_id = run_id
        self.obs = obs if obs is not None else ServeObservability()
        self._trainer = trainer
        self._fallback = (
            fallback if fallback is not None else PostgresDefaultFallback(database)
        )
        self._retry = retry
        self._request_timeout = request_timeout_seconds
        self._parse_cache: OrderedDict[str, Query] = OrderedDict()
        self._parse_lock = threading.Lock()
        self._promote_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.shutdown_requested = threading.Event()
        self.batcher = MicroBatcher(
            self._run_batch,
            max_queue=max_queue,
            window_seconds=batch_window_seconds,
            trace_sink=self.obs.trace_sink,
        )
        # Recently served requests, for /feedback request_id resolution.
        self._recent: OrderedDict[str, dict] = OrderedDict()
        self._recent_lock = threading.Lock()
        # Optional self-execution sampler: every Nth served query is
        # executed for ground truth on a background thread.
        self._self_execute_every = max(0, int(self_execute_every))
        self._self_exec_seq = 0
        self._self_exec_queue: queue.Queue | None = None
        self._self_exec_thread: threading.Thread | None = None
        if self._self_execute_every and self.obs.drift is not None:
            self._self_exec_queue = queue.Queue(maxsize=64)
            self._self_exec_thread = threading.Thread(
                target=self._self_execute_worker,
                name="repro-serve-selfexec",
                daemon=True,
            )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "EstimationService":
        self.batcher.start()
        if self._self_exec_thread is not None:
            self._self_exec_thread.start()
        return self

    def close(self) -> None:
        self.batcher.close()
        if self._self_exec_thread is not None and self._self_exec_thread.is_alive():
            try:
                self._self_exec_queue.put_nowait(None)  # wake + stop
            except queue.Full:
                pass
            self._self_exec_thread.join(timeout=5.0)
        self.obs.close()

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    # -- request building blocks -------------------------------------------

    def parse(self, sql) -> Query:
        """SQL -> :class:`Query` through the bounded parse cache."""
        if not isinstance(sql, str) or not sql.strip():
            raise BadRequestError("'sql' must be a non-empty string")
        with self._parse_lock:
            cached = self._parse_cache.get(sql)
            if cached is not None:
                self._parse_cache.move_to_end(sql)
                return cached
        try:
            query = parse_query(sql, self.database.join_graph, name="serve")
        except Exception as error:
            raise BadRequestError(f"cannot parse SQL: {error}") from error
        with self._parse_lock:
            self._parse_cache[sql] = query
            while len(self._parse_cache) > PARSE_CACHE_SIZE:
                self._parse_cache.popitem(last=False)
        return query

    def _run_batch(
        self, model: str | None, queries: list[Query]
    ) -> tuple[list[float], int]:
        """Batch execution hook: one batcher round of one model.

        Resolves the model at call time — so promotions apply to queued
        requests — and clamps estimates to >= 1 row like the injection
        pass.  Raises whatever the estimator raises; per-request
        fallback handling lives in :meth:`estimate_many`.
        """
        active = self.registry.get(model)
        started = time.perf_counter()
        with obs_trace.span(
            "inference",
            estimator=active.estimator_name,
            queries=len(queries),
            version=active.version,
        ):
            values = active.estimator.estimate_batch(queries)
        elapsed = time.perf_counter() - started
        estimates = clamped_batch(active.estimator_name, values, queries)
        registry = obs_metrics.registry()
        registry.histogram(
            f"serve.inference_seconds.{active.estimator_name}"
        ).observe(elapsed)
        return estimates, active.version

    # -- endpoints ---------------------------------------------------------

    def estimate_many(
        self, sqls: list, model: str | None = None, request_id: str = ""
    ) -> dict:
        """Price ``sqls`` (the /estimate and /estimate_batch core).

        The queries may share an ``estimate_batch`` call with other
        clients' requests (a request nothing contends with is priced at
        once on this thread).  The request is wrapped in the service's
        retry policy, and a final failure degrades to the
        PostgreSQL-default fallback (flagged in the response) instead
        of erroring — the serving analogue of campaign failure
        isolation.
        """
        if not isinstance(sqls, list) or not sqls:
            raise BadRequestError("'sql' must be a non-empty string or list")
        with obs_trace.span("parse", queries=len(sqls)):
            queries = [self.parse(sql) for sql in sqls]
        model_name = self.registry.get(model).name  # 404 before queueing
        deadline = Deadline.after(self._request_timeout)
        fallback_used = False
        try:
            values, version = call_with_retry(
                lambda: self._submit(model_name, queries, deadline),
                self._retry,
                non_retryable=(EstimationError, AdmissionError),
                deadline=deadline,
                on_retry=lambda *_: obs_metrics.registry()
                .counter("serve.request_retries")
                .inc(),
            )[0]
        except AdmissionError:
            raise
        except Exception as error:
            # Graceful degradation: stat-free fallback estimates, the
            # request is answered (and flagged) rather than failed.
            values = [
                max(1.0, float(self._fallback.estimate(query)))
                for query in queries
            ]
            version = self.registry.get(model_name).version
            fallback_used = True
            obs_metrics.registry().counter("serve.fallback_requests").inc()
            error_text = f"{type(error).__name__}: {error}"
        result = {
            "model": model_name,
            "version": version,
            "estimates": values,
            "fallback": fallback_used,
        }
        if fallback_used:
            result["error"] = error_text
        if request_id:
            result["request_id"] = request_id
        if self.obs.drift is not None:
            self._note_served(
                request_id, model_name, version, sqls, queries, values
            )
        return result

    def _note_served(
        self,
        request_id: str,
        model_name: str,
        version: int,
        sqls: list,
        queries: list[Query],
        values: list[float],
    ) -> None:
        """Remember what was served (feedback + self-execution sampling)."""
        estimator = self.registry.get(model_name).estimator_name
        entries = [
            {
                "sql": sql,
                "template": tuple(sorted(query.tables)),
                "estimate": float(value),
            }
            for sql, query, value in zip(sqls, queries, values)
        ]
        if request_id:
            with self._recent_lock:
                self._recent[request_id] = {
                    "model": model_name,
                    "version": version,
                    "estimator": estimator,
                    "queries": entries,
                }
                while len(self._recent) > _RECENT_REQUEST_CAP:
                    self._recent.popitem(last=False)
        if self._self_exec_queue is not None:
            for entry, query in zip(entries, queries):
                self._self_exec_seq += 1
                if self._self_exec_seq % self._self_execute_every:
                    continue
                try:
                    self._self_exec_queue.put_nowait(
                        (model_name, version, estimator, request_id, entry, query)
                    )
                except queue.Full:
                    obs_metrics.registry().counter(
                        "serve.self_execution_dropped"
                    ).inc()

    def _submit(
        self, model_name: str, queries: list[Query], deadline: Deadline
    ) -> tuple[list[float], int]:
        timeout = deadline.tightest(30.0)
        tracer = obs_trace.active_tracer()
        if tracer is None:
            return self.batcher.submit(model_name, queries, timeout)
        # The queue_wait span covers enqueue->resolve; the link the
        # round's leader fills lets this trace name the batch span (and
        # registry version) that actually served it.
        with tracer.span("queue_wait", queries=len(queries)) as wait_span:
            link = TraceLink(tracer.trace_id, wait_span.span_id)
            outcome = self.batcher.submit(model_name, queries, timeout, link=link)
            if link.batch_span_id is not None:
                wait_span.set(batch_span_id=link.batch_span_id, version=link.version)
        return outcome

    def sub_plans(
        self, sql: str, model: str | None = None, request_id: str = ""
    ) -> dict:
        """Price the whole sub-plan space of ``sql`` (the /subplans core).

        Runs the same failure-isolated batched path the benchmark's
        injection step uses: one ``estimate_batch`` call over every
        connected sub-plan on the fast path, per-sub-plan
        retry/fallback when the estimator misbehaves or a per-request
        deadline needs cooperative checking.
        """
        with obs_trace.span("parse", queries=1):
            query = self.parse(sql)
        active = self.registry.get(model)
        outcome = price_sub_plans(
            active.estimator,
            query,
            fallback=self._fallback,
            retry=self._retry,
            deadline=Deadline.after(self._request_timeout),
        )
        sub_plans = [
            {"tables": sorted(subset), "estimate": estimate}
            for subset, estimate in sorted(
                outcome.cards.items(),
                key=lambda item: (len(item[0]), sorted(item[0])),
            )
        ]
        result = {
            "model": active.name,
            "version": active.version,
            "estimator": active.estimator_name,
            "sub_plans": sub_plans,
            "failed_sub_plans": len(outcome.failures),
            "fallback_estimates": outcome.fallback_count,
            "attempts": outcome.attempts,
        }
        if request_id:
            result["request_id"] = request_id
        return result

    # -- accuracy feedback -------------------------------------------------

    def feedback(self, payload: dict) -> dict:
        """Fold actual cardinalities into the drift monitor (POST /feedback).

        Two forms: ``{"request_id": ..., "actuals": [...]}`` resolves a
        recently served request to the exact estimates (and registry
        version) that answered it; ``{"sql": ..., "estimate": ...,
        "actual": ...}`` reports a standalone pair (the estimate is
        recomputed against the current model when omitted).
        """
        drift = self.obs.drift
        if drift is None:
            raise BadRequestError("drift monitoring is disabled on this server")
        if not isinstance(payload, dict):
            raise BadRequestError("feedback body must be a JSON object")
        records: list[dict] = []
        request_id = payload.get("request_id")
        if request_id is not None:
            with self._recent_lock:
                entry = self._recent.pop(str(request_id), None)
            if entry is None:
                raise BadRequestError(
                    f"unknown or expired request_id {request_id!r}"
                )
            actuals = payload.get("actuals")
            if actuals is None and "actual" in payload:
                actuals = [payload["actual"]]
            if not isinstance(actuals, list) or len(actuals) != len(
                entry["queries"]
            ):
                raise BadRequestError(
                    f"'actuals' must be a list of {len(entry['queries'])} "
                    "values (one per served query)"
                )
            for served, actual in zip(entry["queries"], actuals):
                records.append(
                    drift.observe(
                        model=entry["model"],
                        version=entry["version"],
                        template=served["template"],
                        estimate=served["estimate"],
                        actual=_as_rows(actual),
                        estimator=entry["estimator"],
                        request_id=str(request_id),
                        source="feedback",
                        sql=served["sql"],
                    )
                )
        else:
            sql = payload.get("sql")
            if not isinstance(sql, str) or "actual" not in payload:
                raise BadRequestError(
                    "feedback needs 'request_id' or 'sql' plus 'actual'"
                )
            query = self.parse(sql)
            active = self.registry.get(payload.get("model"))
            estimate = payload.get("estimate")
            if estimate is None:
                estimate = self.estimate_many([sql], model=active.name)[
                    "estimates"
                ][0]
            records.append(
                drift.observe(
                    model=active.name,
                    version=active.version,
                    template=tuple(sorted(query.tables)),
                    estimate=_as_rows(estimate),
                    actual=_as_rows(payload["actual"]),
                    estimator=active.estimator_name,
                    source="feedback",
                    sql=sql,
                )
            )
        obs_metrics.registry().counter("serve.feedback_pairs").inc(len(records))
        return {
            "accepted": len(records),
            "q_errors": [round(record["q_error"], 4) for record in records],
            "degraded_windows": drift.snapshot()["degraded_windows"],
        }

    def _self_execute_worker(self) -> None:
        """Ground-truth sampler: execute sampled queries, feed the monitor."""
        from repro.core.truecards import TrueCardinalityService

        truth: TrueCardinalityService | None = None
        registry = obs_metrics.registry()
        with obs_events.use_event_log(self.obs.events):
            while True:
                item = self._self_exec_queue.get()
                if item is None:
                    return
                model_name, version, estimator, request_id, entry, query = item
                try:
                    if truth is None:
                        truth = TrueCardinalityService(self.database)
                    actual = truth.cardinality(query)
                    self.obs.drift.observe(
                        model=model_name,
                        version=version,
                        template=entry["template"],
                        estimate=entry["estimate"],
                        actual=float(actual),
                        estimator=estimator,
                        request_id=request_id,
                        source="self_execution",
                        sql=entry["sql"],
                    )
                    registry.counter("serve.self_execution_pairs").inc()
                except Exception:
                    registry.counter("serve.self_execution_failures").inc()

    def promote(
        self,
        name: str | None = None,
        estimator_name: str | None = None,
        path: str | None = None,
    ) -> dict:
        """Train or load an estimator offline, then hot-swap it in.

        Exactly one of ``estimator_name`` (train via the configured
        trainer) or ``path`` (load a file saved by
        :func:`repro.estimators.persistence.save_estimator`) must be
        given.  The expensive step runs outside the registry lock —
        requests keep being served by the current version until the
        atomic swap.  ``_promote_lock`` serialises concurrent
        promotions so two trainings cannot interleave their swaps.
        """
        if (estimator_name is None) == (path is None):
            raise BadRequestError(
                "promote needs exactly one of 'estimator' or 'path'"
            )
        with self._promote_lock:
            started = time.perf_counter()
            if estimator_name is not None:
                if self._trainer is None:
                    raise BadRequestError(
                        "this server has no trainer configured; "
                        "promote from a saved model 'path' instead"
                    )
                try:
                    estimator = self._trainer(estimator_name)
                except KeyError:
                    raise BadRequestError(
                        f"unknown estimator {estimator_name!r}"
                    ) from None
                source = f"trained:{estimator_name}"
            else:
                from repro.estimators.persistence import (
                    PersistenceError,
                    load_estimator,
                )

                try:
                    estimator = load_estimator(path, database=self.database)
                except (OSError, PersistenceError) as error:
                    raise BadRequestError(f"cannot load {path}: {error}") from error
                source = f"loaded:{path}"
            elapsed = time.perf_counter() - started
            model = self.registry.promote(estimator, name=name, source=source)
        return {
            "promoted": model.describe(),
            "prepare_seconds": elapsed,
        }

    # -- health ------------------------------------------------------------

    def healthz(self) -> dict:
        health = {
            "status": "ok",
            "run_id": self.run_id,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "queue_depth": self.batcher.depth,
            "models": {
                name: self.registry.get(name).version
                for name in self.registry.names()
            },
        }
        if self.obs.slo is not None:
            health["slo"] = self.obs.slo.snapshot()
        if self.obs.drift is not None:
            drift = self.obs.drift.snapshot()
            health["drift"] = {
                "events": drift["events"],
                "degraded_windows": drift["degraded_windows"],
                "tracked_windows": len(drift["windows"]),
                "degraded": [
                    entry for entry in drift["windows"] if entry["degraded"]
                ],
            }
        return health


def _as_rows(value) -> float:
    """Coerce a client-supplied cardinality; reject junk as a 400."""
    try:
        rows = float(value)
    except (TypeError, ValueError):
        raise BadRequestError(
            f"cardinality values must be numbers, got {value!r}"
        ) from None
    if rows < 0 or rows != rows:  # negative or NaN
        raise BadRequestError(f"cardinality values must be >= 0, got {value!r}")
    return rows
