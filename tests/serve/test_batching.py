"""Rounds: a round's estimate jobs are priced together, per model.

The round API is :meth:`EstimationService.estimate_request` (a generator
yielding one job) plus :meth:`EstimationService.price_round`; the HTTP
loop makes every wake-up a round, and ``estimate_many`` is a round of one.
"""

import http.client
import json
import sys
import threading
import time

import pytest

import repro.serve.service as service_module
from repro.engine.sql import parse_query
from repro.estimators.postgres import PostgresEstimator
from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer, active_tracer, load_trace, use_tracer
from repro.serve.app import build_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import (
    AdmissionError,
    EstimationService,
    ServeObservability,
    ServiceClosedError,
)
from repro.serve.tracing import TraceSink

SINGLE = "SELECT COUNT(*) FROM posts WHERE posts.Score > 10;"
JOIN = (
    "SELECT COUNT(*) FROM users, posts "
    "WHERE users.Id = posts.OwnerUserId AND users.Reputation > 5;"
)


class _Recording:
    """A fitted PostgreSQL estimator that records the size of each batch
    call and the thread it ran on; it can be made to block or fail."""

    def __init__(self, inner, name="recording", failure=None):
        self.inner = inner
        self.name = name
        self.failure = failure
        self.sizes: list[int] = []
        self.threads: list[int] = []
        self.entered = threading.Event()
        self.release: threading.Event | None = None

    def estimate_batch(self, queries):
        self.sizes.append(len(queries))
        self.threads.append(threading.get_ident())
        self.entered.set()
        if self.release is not None:
            self.release.wait(timeout=10.0)
        if self.failure is not None:
            raise self.failure
        return self.inner.estimate_batch(queries)


@pytest.fixture(scope="module")
def fitted(tiny_db):
    return PostgresEstimator().fit(tiny_db)


def _service(tiny_db, *estimators, **kwargs):
    registry = ModelRegistry()
    for estimator in estimators:
        registry.promote(estimator, name=estimator.name)
    registry.default_name = estimators[0].name
    return EstimationService(tiny_db, registry=registry, **kwargs).start()


def _offline(tiny_db, fitted, sql):
    return max(1.0, fitted.estimate_batch([parse_query(sql, tiny_db.join_graph)])[0])


def _round(service, requests):
    """Price ``requests`` — ``(sqls, model)`` pairs — as one round; each
    one's response dict, or what it raised."""
    pending = [service.estimate_request(sqls, model=model) for sqls, model in requests]
    service.price_round([next(request) for request in pending])
    outcomes = []
    for request in pending:
        try:
            request.send(None)
        except StopIteration as answered:
            outcomes.append(answered.value)
        except Exception as error:  # noqa: BLE001 — asserted by the tests
            outcomes.append(error)
    return outcomes


def test_single_submit_round_trips(tiny_db, fitted):
    estimator = _Recording(fitted)
    service = _service(tiny_db, estimator)
    result = service.estimate_many([SINGLE, JOIN])
    assert result["estimates"] == [
        _offline(tiny_db, fitted, SINGLE),
        _offline(tiny_db, fitted, JOIN),
    ]
    assert (result["version"], result["fallback"]) == (1, False)
    assert estimator.sizes == [2]
    service.close()


def test_lone_submit_runs_on_the_calling_thread_without_waiting(tiny_db, fitted):
    estimator = _Recording(fitted)
    service = _service(tiny_db, estimator)
    for _ in range(3):
        started = time.perf_counter()
        service.estimate_many([SINGLE])
        assert time.perf_counter() - started < 0.010
    assert estimator.threads == [threading.get_ident()] * 3
    service.close()


def test_concurrent_submits_coalesce_into_fewer_batches(tiny_db, fitted):
    # The first request holds the loop inside the model; the other seven
    # queue in the kernel meanwhile and are read in one wake-up: a round.
    estimator = _Recording(fitted)
    estimator.release = threading.Event()
    service = _service(tiny_db, estimator)
    server = build_server(service, "127.0.0.1:0").start()
    connections = [http.client.HTTPConnection(*server.address, timeout=10.0) for _ in range(8)]
    try:
        connections[0].request("POST", "/estimate", body=json.dumps({"sql": SINGLE}))
        assert estimator.entered.wait(timeout=10.0)
        for connection in connections[1:]:
            connection.request("POST", "/estimate", body=json.dumps({"sql": JOIN}))
        time.sleep(0.2)
        estimator.release.set()
        replies = [json.loads(c.getresponse().read()) for c in connections]
    finally:
        estimator.release.set()
        for connection in connections:
            connection.close()
        assert server.close() is True
        service.close()
    assert [reply["estimate"] for reply in replies] == [
        _offline(tiny_db, fitted, SINGLE)
    ] + [_offline(tiny_db, fitted, JOIN)] * 7
    assert len(estimator.sizes) <= 3
    assert max(estimator.sizes) >= 2
    assert sum(estimator.sizes) == 8


def test_window_respects_max_batch(tiny_db, fitted, monkeypatch):
    # A call closes once it holds MAX_BATCH_QUERIES queries; a job is
    # never split, so a call may exceed that by one job.
    monkeypatch.setattr(service_module, "MAX_BATCH_QUERIES", 3)
    estimator = _Recording(fitted)
    service = _service(tiny_db, estimator)
    outcomes = _round(service, [([SINGLE], None)] * 5 + [([SINGLE, JOIN, SINGLE, JOIN], None)])
    assert estimator.sizes == [3, 6]
    assert all(outcome["fallback"] is False for outcome in outcomes)
    service.close()


def test_jobs_grouped_per_model(tiny_db, fitted):
    a, b = _Recording(fitted, name="a"), _Recording(fitted, name="b")
    service = _service(tiny_db, a, b)
    outcomes = _round(service, [([SINGLE], "a"), ([JOIN], "b"), ([SINGLE, JOIN], "a")])
    assert (a.sizes, b.sizes) == ([3], [1])
    assert [outcome["model"] for outcome in outcomes] == ["a", "b", "a"]
    assert outcomes[2]["estimates"] == [
        _offline(tiny_db, fitted, SINGLE),
        _offline(tiny_db, fitted, JOIN),
    ]
    service.close()


def test_estimator_failure_propagates_to_every_job_in_group(tiny_db, fitted):
    broken = _Recording(fitted, name="broken", failure=RuntimeError("model exploded"))
    healthy = _Recording(fitted, name="healthy")
    service = _service(tiny_db, broken, healthy)
    outcomes = _round(
        service, [([SINGLE], "broken"), ([JOIN], "healthy"), ([JOIN], "broken")]
    )
    assert [outcome["fallback"] for outcome in outcomes] == [True, False, True]
    assert all("model exploded" in outcomes[i]["error"] for i in (0, 2))
    assert broken.sizes == [2]
    service.close()


def test_queue_overflow_raises_admission_error(tiny_db, fitted):
    obs_metrics.registry().reset()
    estimator = _Recording(fitted)
    service = _service(tiny_db, estimator, max_queue=2)
    outcomes = _round(service, [([SINGLE], None)] * 3)
    assert [type(outcome) for outcome in outcomes[:2]] == [dict, dict]
    assert isinstance(outcomes[2], AdmissionError)
    assert "round full" in str(outcomes[2])
    assert estimator.sizes == [2]
    assert obs_metrics.registry().counter("serve.admission_rejected").value == 1
    service.close()


def test_a_job_past_its_deadline_is_answered_from_the_fallback(tiny_db, fitted):
    estimator = _Recording(fitted)
    service = _service(tiny_db, estimator, request_timeout_seconds=0.0)
    result = service.estimate_many([SINGLE])
    assert result["fallback"] is True and "TimeoutError" in result["error"]
    assert estimator.sizes == []
    service.close()


def test_promotion_before_execution_is_seen_inline_and_queued(tiny_db, fitted):
    service = _service(tiny_db, _Recording(fitted, name="default"))
    queued = service.estimate_request([SINGLE])
    job = next(queued)  # in a round, not yet priced
    service.registry.promote(_Recording(fitted, name="default"))
    service.price_round([job])
    with pytest.raises(StopIteration) as answered:
        queued.send(None)
    assert answered.value.value["version"] == 2
    service.registry.promote(_Recording(fitted, name="default"))
    assert service.estimate_many([SINGLE])["version"] == 3  # a round of one
    service.close()


def test_queue_depth_counts_the_round_being_priced(tiny_db, fitted):
    estimator = _Recording(fitted)
    estimator.release = threading.Event()
    service = _service(tiny_db, estimator, max_queue=2)
    pricing = threading.Thread(
        target=_round, args=(service, [([SINGLE], None)] * 3), daemon=True
    )
    assert service.healthz()["queue_depth"] == 0
    pricing.start()
    assert estimator.entered.wait(timeout=5.0)
    assert service.healthz()["queue_depth"] == 2  # the admitted jobs only
    estimator.release.set()
    pricing.join(timeout=5.0)
    assert service.healthz()["queue_depth"] == 0
    service.close()


def test_inline_request_keeps_the_linked_span_chain(tiny_db, fitted, tmp_path):
    sink = TraceSink(tmp_path / "traces.jsonl")
    service = _service(tiny_db, fitted, obs=ServeObservability(trace_sink=sink))
    request = Tracer(trace_id="request-1")
    with use_tracer(request), request.span("request"):
        result = service.estimate_many([SINGLE])
        # The batch tracer was installed only while the batch ran.
        assert active_tracer() is request
    service.close()  # drains the sink
    spans = {record["name"]: record for record in load_trace(sink.path)}
    (wait,) = [span for span in request.spans if span.name == "queue_wait"]
    batch = spans["batch"]
    assert batch["trace_id"] != request.trace_id
    assert batch["attributes"]["links"] == [wait.span_id]
    assert batch["attributes"]["version"] == result["version"]
    assert wait.attributes == {
        "queries": 1,
        "batch_span_id": batch["span_id"],
        "version": result["version"],
    }
    for child in ("batch_assembly", "inference"):
        assert spans[child]["parent_id"] == batch["span_id"]


def test_batch_counters_once_per_executed_group_on_both_paths(tiny_db, fitted):
    registry = obs_metrics.registry()
    registry.reset()
    service = _service(tiny_db, _Recording(fitted, name="a"), _Recording(fitted, name="b"))
    # A round: three jobs of two models -> two groups.
    _round(service, [([SINGLE, JOIN], "a"), ([SINGLE, JOIN], "a"), ([SINGLE, JOIN], "b")])
    assert registry.counter("serve.batches").value == 2
    assert sorted(registry.histogram("serve.batch_size").samples) == [2.0, 4.0]
    service.estimate_many([SINGLE], model="a")  # a round of one
    assert registry.counter("serve.batches").value == 3
    assert sorted(registry.histogram("serve.batch_size").samples) == [1.0, 2.0, 4.0]
    service.close()


def test_close_is_idempotent_and_fails_pending_jobs(tiny_db, fitted):
    service = _service(tiny_db, fitted)
    pending = service.estimate_request([SINGLE])
    job = next(pending)  # yielded before the close, priced after it
    service.close()
    service.close()
    service.price_round([job])
    with pytest.raises(ServiceClosedError):
        pending.send(None)
    with pytest.raises(ServiceClosedError, match="shut down"):
        service.estimate_many([SINGLE])


def test_submits_racing_close_end_served_or_refused_within_a_second(tiny_db, fitted):
    service = _service(tiny_db, fitted)
    expected = _offline(tiny_db, fitted, SINGLE)
    outcomes = []
    go = threading.Event()

    def client():
        go.wait(timeout=5.0)
        started = time.perf_counter()
        try:
            outcome = service.estimate_many([SINGLE])["estimates"] == [expected]
        except ServiceClosedError:
            outcome = True
        outcomes.append((outcome, time.perf_counter() - started))

    threads = [threading.Thread(target=client) for _ in range(50)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        go.set()
        time.sleep(0.002)
        service.close()
        for thread in threads:
            thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(previous)
    assert len(outcomes) == 50
    assert all(outcome for outcome, _ in outcomes)
    assert max(elapsed for _, elapsed in outcomes) < 1.0
    assert service.healthz()["queue_depth"] == 0
