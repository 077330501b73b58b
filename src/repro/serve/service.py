"""The estimation service core, independent of any transport.

One :class:`EstimationService` owns everything a request needs:

- the live :class:`~repro.engine.database.Database` and its join
  graph (SQL is parsed against it, through a bounded parse cache —
  the serving analogue of a plan cache);
- a :class:`~repro.serve.registry.ModelRegistry` of hot-swappable
  estimators (promotion trains/loads *offline*, then swaps atomically);
- the :mod:`repro.resilience` policies applied per request: a
  per-request deadline and the PostgreSQL-default fallback, so an
  estimator failure degrades a response instead of erroring it (a
  request is priced once: estimators are deterministic, so nothing is
  retried);
- **rounds** of estimate requests, each priced by
  :meth:`EstimationService.price_round` with one ``estimate_batch`` call
  per model: the HTTP loop's wake-ups, or an in-process
  :meth:`estimate_many` as a round of one; jobs beyond ``max_queue`` in
  a round are refused (the 429).

Sub-plan-space requests go through
:func:`repro.core.injection.price_sub_plans`, i.e. the same batched
injection path the benchmark uses, so a serving deployment prices a
planner's whole sub-plan space in one call.

Requests trace through :mod:`repro.obs.trace`: whatever tracer the
caller installed (the HTTP layer installs one per request) receives the
``parse`` and ``queue_wait`` spans here and every span the shared code
records on the way, such as ``inference`` from ``price_sub_plans``.
Each priced group gets a trace of its own: a ``batch`` span linking the
``queue_wait`` span of every member (each of which names the batch back),
``batch_assembly`` (how long its oldest member waited in the round) and
``inference``.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.injection import clamped_batch, price_sub_plans
from repro.engine.database import Database
from repro.engine.query import Query
from repro.engine.sql import parse_query
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import EventLog
from repro.resilience.fallback import PostgresDefaultFallback
from repro.resilience.policy import Deadline
from repro.serve.drift import DriftMonitor
from repro.serve.registry import ModelRegistry
from repro.serve.slo import SLOMonitor
from repro.serve.tracing import AccessLog, TraceSink

#: How many recently served requests keep their estimates around so a
#: later ``POST /feedback`` can resolve a ``request_id`` to the exact
#: (model, version, per-query estimate) that answered it.
_RECENT_REQUEST_CAP = 4096

#: Distinct SQL texts the parse cache keeps (least recently used go first).
PARSE_CACHE_SIZE = 2048

#: Queries one ``estimate_batch`` call takes before a group of a round is
#: split (a job is never split, so a call may exceed it by one job).
MAX_BATCH_QUERIES = 1024


class ServiceError(RuntimeError):
    """Base class for request-level service failures."""


class BadRequestError(ServiceError):
    """Malformed request content (unparseable SQL, wrong field types)."""


class AdmissionError(ServiceError):
    """The round already holds ``max_queue`` estimate jobs (the HTTP 429)."""


class ServiceClosedError(ServiceError):
    """The service is shutting down; the request was not priced (HTTP 503)."""


@dataclass(eq=False, slots=True)
class EstimateJob:
    """One estimate request's queries in a round: :meth:`price_round` fills
    ``values`` and ``version`` (or ``error``), and, for a traced request,
    the ``batch`` span id beside its ``queue_wait`` span id."""

    model: str
    queries: list[Query]
    deadline: Deadline
    queued: float = field(default_factory=time.perf_counter)
    span_id: str | None = None
    batch_span_id: str | None = None
    values: list[float] | None = None
    version: int | None = None
    error: Exception | None = None


@dataclass
class ServeObservability:
    """The serving path's observability bundle (all parts optional).

    One instance is wired through :class:`EstimationService` into the
    app layer: the trace sink collects per-request and per-batch spans,
    the access log records one line per served request, the SLO monitor
    turns outcomes into burn rates, the drift monitor folds est-vs-actual
    feedback into windowed q-errors, and the event log receives the
    structured events (``serve.drift``, sub-plan fallbacks) of the
    service: it is installed with :func:`repro.obs.events.use_event_log`
    in each request's context and on the self-execution thread, never
    process-wide.
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
        request_timeout_seconds: float | None = None,
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
        self._request_timeout = request_timeout_seconds
        self.max_queue = max_queue
        self._parse_cache: OrderedDict[str, Query] = OrderedDict()
        self._parse_lock = threading.Lock()
        self._promote_lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.shutdown_requested = threading.Event()
        # One round is priced at a time, whoever asks.
        self._round_lock = threading.Lock()
        self._pricing = 0  # estimate jobs of the round being priced
        self._closed = False
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
        if self._self_exec_thread is not None:
            self._self_exec_thread.start()
        return self

    def close(self) -> None:
        """Refuse later rounds (:class:`ServiceClosedError`); close the rest."""
        with self._round_lock:
            self._closed = True
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

    def price_round(self, jobs: list[EstimateJob]) -> None:
        """Price one round, one ``estimate_batch`` per model (and chunk);
        every job ends with ``values`` or ``error``, never a raise: jobs
        beyond ``max_queue`` get :class:`AdmissionError`, a job past its
        deadline ``TimeoutError``, a failed call's jobs its error, and all
        of them :class:`ServiceClosedError` once the service is closed."""
        with self._round_lock:
            if self._closed:
                for job in jobs:
                    job.error = ServiceClosedError("estimation service is shut down")
                return
            for job in jobs[self.max_queue :]:
                job.error = AdmissionError(f"round full ({self.max_queue} estimate jobs)")
                obs_metrics.registry().counter("serve.admission_rejected").inc()
            admitted = jobs[: self.max_queue]
            groups: dict[str, list[EstimateJob]] = {}
            for job in admitted:
                if job.deadline.expired:
                    job.error = TimeoutError("request deadline passed before pricing")
                else:
                    groups.setdefault(job.model, []).append(job)
            self._pricing = len(admitted)
            for model, group in groups.items():
                start = size = 0
                for end, job in enumerate(group, 1):
                    size += len(job.queries)
                    if size >= MAX_BATCH_QUERIES or end == len(group):
                        self._price_chunk(model, group[start:end])  # never raises
                        start, size = end, 0
            self._pricing = 0

    def _price_chunk(self, model: str, jobs: list[EstimateJob]) -> None:
        """One ``estimate_batch`` call for ``jobs``, by the version of
        ``model`` active now — so a promotion applies to queued requests —
        with estimates clamped to >= 1 row like the injection pass."""
        queries = [query for job in jobs for query in job.queries]
        links = [job.span_id for job in jobs if job.span_id is not None]
        sink = self.obs.trace_sink
        tracer = obs_trace.Tracer() if links and sink is not None else None
        try:
            # The batch tracer, not a caller's, receives the inference span.
            with obs_trace.use_tracer(tracer), obs_trace.span(
                "batch", model=model, jobs=len(jobs), batch_size=len(queries), links=links
            ) as batch:
                if tracer is not None:
                    tracer.record("batch_assembly", time.perf_counter() - jobs[0].queued)
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
                values = clamped_batch(active.estimator_name, values, queries)
                batch.set(version=active.version)
        except Exception as error:  # handed to every job of the chunk
            for job in jobs:
                job.error = error
        else:
            registry = obs_metrics.registry()
            registry.histogram(f"serve.inference_seconds.{active.estimator_name}").observe(elapsed)
            registry.histogram("serve.batch_size").observe(float(len(queries)))
            registry.counter("serve.batches").inc()
            offset = 0
            for job in jobs:
                job.values = values[offset : offset + len(job.queries)]
                job.version = active.version
                job.batch_span_id = batch.span_id
                offset += len(job.queries)
        finally:
            if tracer is not None:
                sink.write_spans(tracer.spans)

    # -- endpoints ---------------------------------------------------------

    def estimate_request(self, sqls: list, model: str | None = None, request_id: str = ""):
        """The /estimate and /estimate_batch core, as a member of a round.

        A generator: it parses ``sqls`` and yields one
        :class:`EstimateJob`, which :meth:`price_round` prices beside the
        round's other jobs; resumed, it returns the response dict.  Any
        failure but admission control and shutdown degrades to the
        PostgreSQL-default fallback (flagged in the response) instead of
        erroring — the serving analogue of campaign failure isolation.
        """
        if not isinstance(sqls, list) or not sqls:
            raise BadRequestError("'sql' must be a non-empty string or list")
        with obs_trace.span("parse", queries=len(sqls)):
            queries = [self.parse(sql) for sql in sqls]
        model_name = self.registry.get(model).name  # 404 before queueing
        job = EstimateJob(model_name, queries, Deadline.after(self._request_timeout))
        # queue_wait covers the round around this job and names the
        # batch span (and version) that served it.
        with obs_trace.span("queue_wait", queries=len(queries)) as wait:
            job.span_id = wait.span_id
            yield job
            if job.batch_span_id is not None:
                wait.set(batch_span_id=job.batch_span_id, version=job.version)
        if isinstance(job.error, (AdmissionError, ServiceClosedError)):
            raise job.error
        if job.error is not None:
            # Graceful degradation: stat-free fallback estimates, the
            # request is answered (and flagged) rather than failed.
            job.values = [
                max(1.0, float(self._fallback.estimate(query)))
                for query in queries
            ]
            job.version = self.registry.get(model_name).version
            obs_metrics.registry().counter("serve.fallback_requests").inc()
        result = {
            "model": model_name,
            "version": job.version,
            "estimates": job.values,
            "fallback": job.error is not None,
        }
        if job.error is not None:
            result["error"] = f"{type(job.error).__name__}: {job.error}"
        if request_id:
            result["request_id"] = request_id
        if self.obs.drift is not None:
            self._note_served(
                request_id, model_name, job.version, sqls, queries, job.values
            )
        return result

    def estimate_many(self, sqls: list, model: str | None = None, request_id: str = "") -> dict:
        """Price ``sqls`` now, on the calling thread, as a round of one."""
        request = self.estimate_request(sqls, model, request_id)
        self.price_round([next(request)])
        try:
            request.send(None)
        except StopIteration as answered:
            return answered.value

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

    def sub_plans(
        self, sql: str, model: str | None = None, request_id: str = ""
    ) -> dict:
        """Price the whole sub-plan space of ``sql`` (the /subplans core).

        Runs the same failure-isolated batched path the benchmark's
        injection step uses: one ``estimate_batch`` call over every
        connected sub-plan on the fast path, per-sub-plan estimates and
        fallback when the estimator misbehaves or a per-request deadline
        needs cooperative checking.
        """
        with obs_trace.span("parse", queries=1):
            query = self.parse(sql)
        active = self.registry.get(model)
        outcome = price_sub_plans(
            active.estimator,
            query,
            fallback=self._fallback,
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
            "queue_depth": self._pricing,  # over HTTP 0: answered between rounds
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
