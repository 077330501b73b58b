"""Cross-client micro-batching with admission control.

The estimation hot path is batched (`estimate_batch` prices a whole
list of queries in one vectorised pass), but HTTP clients arrive one
request at a time.  The :class:`MicroBatcher` closes that gap without
a thread of its own.  Requests are priced in **rounds**, one at a time,
each led by one of the submitting handler threads: the leader gathers
the round's jobs, groups them by model name, prices each group with
**one** ``estimate_batch`` call, hands every job its slice and passes
leadership to the oldest job still queued, whose thread wakes and
leads the next round.  Jobs that arrive meanwhile wait on a **bounded**
queue (overflow is an :class:`AdmissionError` — the app layer's 429),
each blocked on its own event.

One rule decides when a round leaves: *as soon as every request it can
expect is in hand; ``window_seconds`` only caps that wait*.  What a
round expects is one integer: the jobs the previous round served plus
the jobs already queued when it finished.  A lone client expects 1, so
its request is priced at once **on its own thread** with no hand-off
and no wait; two closed-loop clients expect 2 and ride one call per
round, leaving the moment both are in; under saturation the number
climbs towards the connected clients, and a wait that ran into the cap
brings it back to what was actually collected.
``benchmarks/bench_serve.py`` measures the result at 1/8/64 clients.

When a :class:`~repro.serve.tracing.TraceSink` is attached, each
executed group gets its own trace: a ``batch`` span whose ``links``
attribute names the ``queue_wait`` span of every member request, plus
a backdated ``batch_assembly`` span for the time spent gathering and
the service's ``inference`` span nested under it (the leader installs
the batch tracer with :func:`~repro.obs.trace.use_tracer` around
``run_batch``; its own request tracer is back in place afterwards).
The member requests' :class:`~repro.serve.tracing.TraceLink` handles
are filled with the batch span id before their events fire, so each
request trace can point back at the batch that served it.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer, use_tracer
from repro.serve.tracing import TraceLink, TraceSink


class AdmissionError(RuntimeError):
    """The bounded request queue is full (the HTTP layer's 429)."""


class BatcherClosedError(RuntimeError):
    """The batcher is shutting down; the request was not served."""


class _Job:
    """One submitted request: queries in, values (or an error) out.

    ``event`` fires when the job is resolved or failed, or — with
    ``leads`` set — when its thread has been handed the next round.
    """

    __slots__ = ("model", "queries", "event", "values", "error", "version", "link", "leads")

    def __init__(
        self, model: str | None, queries: list, link: TraceLink | None = None
    ):
        self.model = model
        self.queries = queries
        self.event = threading.Event()
        self.values: list[float] | None = None
        self.error: BaseException | None = None
        self.version: int | None = None
        self.link = link
        self.leads = False

    def resolve(self, values: list[float], version: int | None) -> None:
        self.values = values
        self.version = version
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class MicroBatcher:
    """Turns concurrent requests into one batch call per round.

    ``run_batch(model_name, queries) -> (values, version)`` is the
    execution hook — the service resolves the model name when the round
    *executes*, so a promotion applies atomically to every queued
    request.  The hook returns one value per query or raises; the
    service's hook checks that through
    :func:`repro.core.injection.clamped_batch`.  A round runs on the
    thread of one of its own submitters; one lock guards the closed
    flag, the queue and who leads.
    """

    def __init__(
        self,
        run_batch,
        max_queue: int = 256,
        window_seconds: float = 0.001,
        max_batch: int = 1024,
        trace_sink: TraceSink | None = None,
    ):
        self._run_batch = run_batch
        self._trace_sink = trace_sink
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._lock = threading.Lock()
        # Tells a gathering leader its round is complete (or closed), and
        # close() that the last round is over.
        self._changed = threading.Condition(self._lock)
        self._pending: deque[_Job] = deque()
        self._started = False
        self._closed = False
        self._leading = False  # a thread owns the current round
        self._expected = 1  # jobs the next round waits for, at most the cap

    def start(self) -> "MicroBatcher":
        with self._lock:
            self._started = True
            if not self._leading:
                self._hand_off()
        return self

    @property
    def depth(self) -> int:
        """Jobs waiting for a round, not those being priced (/healthz ``queue_depth``)."""
        return len(self._pending)

    def submit(
        self,
        model: str | None,
        queries: list,
        timeout_seconds: float | None = 30.0,
        link: TraceLink | None = None,
    ) -> tuple[list[float], int | None]:
        """Have ``queries`` priced in the next round and return its slice.

        With nothing executing and nothing more to expect, that round is
        this job alone, run on the calling thread.  Raises
        :class:`AdmissionError` when ``max_queue`` jobs are already
        waiting (callers map it to 429), :class:`BatcherClosedError` on
        shutdown, :class:`TimeoutError` after ``timeout_seconds`` behind
        other rounds, and re-raises whatever the estimator raised for
        this job's group.  A ``link`` rides along to the round's leader,
        which fills in the batch span id before the event fires.
        """
        job = _Job(model, list(queries), link=link)
        with self._lock:
            if self._closed:
                raise BatcherClosedError("estimation service is shutting down")
            if len(self._pending) >= self.max_queue:
                obs_metrics.registry().counter("serve.admission_rejected").inc()
                raise AdmissionError(f"request queue full ({self.max_queue} pending)")
            self._pending.append(job)
            if self._started and not self._leading:
                self._leading = job.leads = True
            elif self._round_complete():
                self._changed.notify()
        if not job.leads and not job.event.wait(timeout_seconds):
            self._abandon(job)
            raise TimeoutError(f"batched estimate not served within {timeout_seconds}s")
        if job.leads:
            self._lead()
        if job.error is not None:
            raise job.error
        return job.values or [], job.version

    # -- rounds ------------------------------------------------------------

    def _round_complete(self) -> bool:
        """Lock held: the queue holds all a round waits for."""
        return (
            len(self._pending) >= self._expected
            or sum(len(job.queries) for job in self._pending) >= self.max_batch
        )

    def _lead(self) -> None:
        """One round on this thread; the caller's job heads the queue."""
        gathering_started = time.perf_counter()
        with self._lock:
            self._changed.wait_for(
                lambda: self._closed or self._round_complete(), self.window_seconds
            )
            jobs, size = [], 0
            while self._pending and size < self.max_batch:
                jobs.append(self._pending.popleft())
                size += len(jobs[-1].queries)
        try:
            self._execute(jobs, time.perf_counter() - gathering_started)
        finally:
            with self._lock:
                self._expected = len(jobs) + len(self._pending)
                self._hand_off()

    def _hand_off(self) -> None:
        """Lock held: the oldest waiting job's thread leads the next round."""
        self._leading = bool(self._pending)
        if self._leading:
            self._pending[0].leads = True
            self._pending[0].event.set()
        else:
            self._changed.notify_all()

    def _abandon(self, job: _Job) -> None:
        """A timed-out ``job`` leaves the queue and passes on a round just handed to it."""
        with self._lock:
            if job in self._pending:
                self._pending.remove(job)
            if job.leads:
                job.leads = False
                self._hand_off()

    def _execute(self, jobs: list[_Job], assembly_seconds: float = 0.0) -> None:
        registry = obs_metrics.registry()
        groups: dict[str | None, list[_Job]] = {}
        for job in jobs:
            groups.setdefault(job.model, []).append(job)
        for model, group in groups.items():
            queries = [query for job in group for query in job.queries]
            tracer = batch_span = None
            if self._trace_sink is not None and any(
                job.link is not None for job in group
            ):
                tracer = Tracer()
            try:
                if tracer is not None:
                    # The batch tracer becomes THIS thread's tracer so the
                    # service's inference span nests under the batch span.
                    with use_tracer(tracer), tracer.span(
                        "batch",
                        model=model or "",
                        jobs=len(group),
                        batch_size=len(queries),
                        links=[
                            job.link.span_id
                            for job in group
                            if job.link is not None
                        ],
                    ) as batch_span:
                        tracer.record("batch_assembly", assembly_seconds)
                        values, version = self._run_batch(model, queries)
                        batch_span.set(version=version)
                else:
                    values, version = self._run_batch(model, queries)
            except BaseException as error:  # noqa: BLE001 — handed to waiters
                for job in group:
                    job.fail(error)
                if tracer is not None:
                    self._trace_sink.write_spans(tracer.spans)
                continue
            registry.histogram("serve.batch_size").observe(float(len(queries)))
            registry.counter("serve.batches").inc()
            if batch_span is not None:
                # Links must be complete before any waiter's event fires.
                for job in group:
                    if job.link is not None:
                        job.link.batch_span_id = batch_span.span_id
                        job.link.version = version
                self._trace_sink.write_spans(tracer.spans)
            offset = 0
            for job in group:
                job.resolve(values[offset : offset + len(job.queries)], version)
                offset += len(job.queries)

    def close(self, timeout: float = 5.0) -> bool:
        """Refuse new jobs and fail the waiting ones with
        :class:`BatcherClosedError` (never silently dropped); idempotent.
        Returns whether the round in flight, if any, ended in ``timeout``."""
        with self._lock:
            self._closed = True
            while self._pending:
                self._pending.popleft().fail(
                    BatcherClosedError("estimation service shut down")
                )
            self._changed.notify_all()
            return self._changed.wait_for(lambda: not self._leading, timeout)
