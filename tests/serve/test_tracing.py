"""Request-scoped tracing, access log and SLO accounting, end to end.

Every HTTP-level test here drives a real socket server with the full
observability bundle attached and then resolves the response's
``X-Request-ID`` against the exported artifacts — the contract the
serving path promises: a request id on every response, and a complete
trace (request span -> queue_wait -> batch span -> inference) behind
every 2xx.
"""

import http.client
import json
import threading

import pytest

from repro.estimators.postgres import PostgresEstimator
from repro.obs import metrics as obs_metrics
from repro.obs.httpd import sanitize_request_id
from repro.obs.jsonl import read_jsonl
from repro.obs.trace import Tracer, load_trace
from repro.serve.app import build_server
from repro.serve.loadgen import run_load
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService, ServeObservability
from repro.serve.slo import SLOConfig, SLOMonitor
from repro.serve.tracing import AccessLog, TraceSink

SINGLE = "SELECT COUNT(*) FROM posts WHERE posts.Score > 10;"
JOIN = (
    "SELECT COUNT(*) FROM users, posts "
    "WHERE users.Id = posts.OwnerUserId AND users.Reputation > 5;"
)


@pytest.fixture(scope="module")
def obs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-obs")


@pytest.fixture(scope="module")
def serving(tiny_db, obs_dir):
    registry = ModelRegistry()
    registry.promote(PostgresEstimator().fit(tiny_db), source="trained:PostgreSQL")

    def trainer(name):
        if name != "PostgreSQL":
            raise KeyError(name)
        return PostgresEstimator().fit(tiny_db)

    obs = ServeObservability(
        trace_sink=TraceSink(obs_dir / "traces.jsonl"),
        access_log=AccessLog(obs_dir / "access.jsonl"),
        slo=SLOMonitor(SLOConfig(target_p99_seconds=0.25)),
    )
    service = EstimationService(
        tiny_db,
        registry=registry,
        trainer=trainer,
        run_id="trace-test",
        obs=obs,
    ).start()
    server = build_server(service, "127.0.0.1:0")
    server.start()
    yield server.address, service, obs
    assert server.close() is True
    service.close()


def _request(address, method, path, payload=None, headers=None):
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        body = None if payload is None else json.dumps(payload)
        merged = {"Content-Type": "application/json"}
        merged.update(headers or {})
        connection.request(method, path, body=body, headers=merged)
        response = connection.getresponse()
        raw = response.read()
        return response.status, raw, dict(response.getheaders())
    finally:
        connection.close()


def _sync(obs):
    """Barrier: wait for the async exporters to land on disk."""
    if obs.trace_sink is not None:
        obs.trace_sink.flush()
    if obs.access_log is not None:
        obs.access_log.flush()


def _spans_by_trace(path):
    spans = load_trace(path)
    by_trace = {}
    for record in spans:
        by_trace.setdefault(record["trace_id"], []).append(record)
    return by_trace


def _assert_linked_chain(trace_path, request_id):
    """The full chain behind one 2xx: request -> queue_wait -> batch -> inference."""
    by_trace = _spans_by_trace(trace_path)
    assert request_id in by_trace, f"no trace exported for {request_id}"
    request_spans = {record["name"]: record for record in by_trace[request_id]}
    root = request_spans["request"]
    assert root["parent_id"] is None
    assert root["attributes"]["request_id"] == request_id
    assert root["attributes"]["status"] == 200
    assert request_spans["parse"]["parent_id"] == root["span_id"]
    wait = request_spans["queue_wait"]
    assert wait["parent_id"] == root["span_id"]
    batch_span_id = wait["attributes"]["batch_span_id"]
    all_spans = [rec for recs in by_trace.values() for rec in recs]
    batch = next(r for r in all_spans if r["span_id"] == batch_span_id)
    assert batch["name"] == "batch"
    assert wait["span_id"] in batch["attributes"]["links"]
    assert wait["attributes"]["version"] == batch["attributes"]["version"]
    inference = [
        r
        for r in by_trace[batch["trace_id"]]
        if r["name"] == "inference" and r["parent_id"] == batch_span_id
    ]
    assert len(inference) == 1
    return request_spans


class TestTraceSinkAndAccessLog:
    def test_sink_appends_and_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = TraceSink(path)
        tracer = Tracer(trace_id="t1")
        with tracer.span("a"):
            pass
        sink.write_spans(tracer.spans)
        sink.close()
        sink.write_spans(tracer.spans)  # after close: silently dropped
        with path.open("a") as handle:
            handle.write('{"torn": ')  # simulate a killed writer
        spans = load_trace(path)
        assert [s["name"] for s in spans] == ["a"]
        assert sink.spans_written == 1

    def test_access_log_roundtrip_with_torn_tail(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, clock=lambda: 123.0)
        log.record(
            request_id="r1",
            route="estimate",
            method="POST",
            status=200,
            latency_seconds=0.002,
        )
        log.close()
        with path.open("a") as handle:
            handle.write('{"half')
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["request_id"] == "r1"
        assert records[0]["status"] == 200
        assert records[0]["latency_ms"] == 2.0
        assert records[0]["ts"] == 123.0
        assert log.count == 1

    def test_load_access_log_missing_file(self, tmp_path):
        assert read_jsonl(tmp_path / "nope.jsonl") == []


class TestRequestIdHeader:
    def test_minted_id_on_success(self, serving):
        address, _, _ = serving
        status, raw, headers = _request(
            address, "POST", "/estimate", {"sql": SINGLE}
        )
        assert status == 200
        request_id = headers["X-Request-ID"]
        assert request_id
        assert json.loads(raw)["request_id"] == request_id

    def test_client_id_is_adopted_and_sanitized(self, serving):
        address, _, _ = serving
        status, raw, headers = _request(
            address,
            "POST",
            "/estimate",
            {"sql": SINGLE},
            headers={"X-Request-ID": "my-req-1"},
        )
        assert status == 200
        assert headers["X-Request-ID"] == "my-req-1"
        status, _raw, headers = _request(
            address,
            "POST",
            "/estimate",
            {"sql": SINGLE},
            headers={"X-Request-ID": "evil id: {yes}!"},
        )
        assert status == 200
        assert headers["X-Request-ID"] == "evilidyes"

    def test_error_responses_carry_request_id(self, serving):
        address, _, _ = serving
        for path, payload, expected in (
            ("/estimate", {"sql": "SELECT nonsense"}, 400),
            ("/estimate", {"sql": SINGLE, "model": "nope"}, 404),
            ("/nope", {}, 404),
        ):
            status, raw, headers = _request(address, "POST", path, payload)
            assert status == expected
            request_id = headers["X-Request-ID"]
            assert request_id
            assert json.loads(raw)["request_id"] == request_id

    def test_sanitize_request_id_unit(self):
        assert sanitize_request_id("ok-id_1.2") == "ok-id_1.2"
        assert sanitize_request_id("a" * 100) == "a" * 64
        minted = sanitize_request_id(None)
        assert minted and len(minted) == 16
        assert sanitize_request_id("\r\n\r\n") != ""


class TestExportedTraces:
    def test_estimate_trace_chain(self, serving, obs_dir):
        address, _, obs = serving
        status, _raw, headers = _request(
            address, "POST", "/estimate", {"sql": SINGLE}
        )
        assert status == 200
        _sync(obs)
        _assert_linked_chain(obs_dir / "traces.jsonl", headers["X-Request-ID"])

    def test_estimate_batch_trace_chain(self, serving, obs_dir):
        address, _, obs = serving
        status, _raw, headers = _request(
            address, "POST", "/estimate_batch", {"sql": [SINGLE, JOIN]}
        )
        assert status == 200
        _sync(obs)
        _assert_linked_chain(obs_dir / "traces.jsonl", headers["X-Request-ID"])

    def test_subplans_trace_has_inference(self, serving, obs_dir):
        address, _, obs = serving
        status, _raw, headers = _request(
            address, "POST", "/subplans", {"sql": JOIN}
        )
        assert status == 200
        _sync(obs)
        by_trace = _spans_by_trace(obs_dir / "traces.jsonl")
        trace = by_trace[headers["X-Request-ID"]]
        spans = {r["name"]: r for r in trace}
        root = spans["request"]
        assert root["attributes"]["route"] == "subplans"
        (inference,) = [r for r in trace if r["name"] == "inference"]
        assert inference["parent_id"] == root["span_id"]
        assert inference["attributes"]["estimator"] == "PostgreSQL"
        assert inference["attributes"]["sub_plans"] == 3

    def test_error_request_trace_is_exported(self, serving, obs_dir):
        address, _, obs = serving
        status, _raw, headers = _request(
            address, "POST", "/estimate", {"sql": "SELECT nonsense"}
        )
        assert status == 400
        _sync(obs)
        by_trace = _spans_by_trace(obs_dir / "traces.jsonl")
        spans = by_trace[headers["X-Request-ID"]]
        root = next(r for r in spans if r["name"] == "request")
        assert root["status"].startswith("error:")


class _FailingBatch:
    """An estimator whose every ``estimate_batch`` call raises."""

    name = "failing"

    def estimate_batch(self, queries):
        raise RuntimeError("model failure")


class TestFallbackInRequestTraces:
    def test_fallback_keeps_spans_in_own_trace(self, tiny_db, tmp_path):
        registry = ModelRegistry()
        registry.promote(_FailingBatch())
        obs = ServeObservability(trace_sink=TraceSink(tmp_path / "traces.jsonl"))
        service = EstimationService(tiny_db, registry=registry, obs=obs).start()
        server = build_server(service, "127.0.0.1:0")
        server.start()
        try:
            status, raw, headers = _request(
                server.address,
                "POST",
                "/estimate",
                {"sql": SINGLE},
                headers={"X-Request-ID": "fallback-1"},
            )
        finally:
            server.close()
            service.close()
        assert status == 200
        assert json.loads(raw)["fallback"] is True
        assert headers["X-Request-ID"] == "fallback-1"
        trace = _spans_by_trace(tmp_path / "traces.jsonl")["fallback-1"]
        by_id = {record["span_id"]: record for record in trace}
        for name in ("parse", "queue_wait"):
            (span,) = [r for r in trace if r["name"] == name]
            root = span
            while root["parent_id"] is not None:
                root = by_id[root["parent_id"]]
            assert root["name"] == "request"
            assert root["attributes"]["request_id"] == "fallback-1"


class TestAccessLogAndSLOOverHTTP:
    def test_access_log_records_successes_and_errors(self, serving, obs_dir):
        address, _, obs = serving
        _status, _raw, ok_headers = _request(
            address, "POST", "/estimate", {"sql": SINGLE}
        )
        _status, _raw, bad_headers = _request(
            address, "POST", "/estimate", {"sql": "SELECT nonsense"}
        )
        _sync(obs)
        records = {
            record["request_id"]: record
            for record in read_jsonl(obs_dir / "access.jsonl")
        }
        ok = records[ok_headers["X-Request-ID"]]
        assert ok["route"] == "estimate" and ok["status"] == 200
        assert ok["latency_ms"] > 0.0
        bad = records[bad_headers["X-Request-ID"]]
        assert bad["status"] == 400

    def test_slo_gauges_and_healthz_detail(self, serving):
        address, _, obs = serving
        _request(address, "POST", "/estimate", {"sql": SINGLE})
        status, raw, _headers = _request(address, "GET", "/healthz")
        assert status == 200
        # /healthz snapshots the monitor, which mirrors the burn-rate
        # gauges into the registry for the next /metrics scrape.
        registry = obs_metrics.registry()
        gauges = registry.snapshot()["gauges"]
        assert "serve.slo.error_burn_rate.60s" in gauges
        assert "serve.slo.latency_burn_rate.600s" in gauges
        health = json.loads(raw)
        assert health["slo"]["target_p99_ms"] == 250.0
        assert health["slo"]["windows"]["60s"]["requests"] >= 1
        snapshot = obs.slo.snapshot()
        assert snapshot["lifetime_requests"] >= 1

    def test_slo_burn_rate_fires_on_errors(self):
        monitor = SLOMonitor(
            SLOConfig(target_p99_seconds=0.01, error_budget=0.1, windows=(60,))
        )
        for _ in range(10):
            monitor.record("estimate", 0.001, 500)
        snapshot = monitor.snapshot()
        assert snapshot["windows"]["60s"]["error_rate"] == 1.0
        assert snapshot["windows"]["60s"]["error_burn_rate"] == 10.0
        gauges = obs_metrics.registry().snapshot()["gauges"]
        assert gauges["serve.slo.error_burn_rate.60s"] == 10.0


class TestLoadgenSamples:
    def test_samples_resolve_against_traces(self, serving, obs_dir):
        address, _, obs = serving
        report = run_load(
            address,
            [{"sql": SINGLE}, {"sql": JOIN}],
            clients=2,
            requests_per_client=3,
        )
        assert report.requests == 6
        assert len(report.samples) == 6
        assert report.status_counts == {200: 6}
        _sync(obs)
        by_trace = _spans_by_trace(obs_dir / "traces.jsonl")
        for sample in report.samples:
            assert sample.status == 200
            assert sample.latency_seconds > 0.0
            assert sample.request_id in by_trace
        payload = report.as_dict()
        assert len(payload["samples"]) == 6
        assert all(s["request_id"] for s in payload["samples"])


class TestBatchLinkingUnderConcurrency:
    def test_links_exact_during_hot_swap(self, serving, obs_dir):
        """N concurrent traced requests during /admin/promote: every batch
        span links exactly its member queue_wait spans, and each member's
        recorded registry version matches its batch's version attribute."""
        address, _, obs = serving
        results = {}
        errors = []
        barrier = threading.Barrier(9)

        def client(index):
            try:
                barrier.wait(timeout=10.0)
                request_id = f"swap-client-{index}"
                status, raw, _headers = _request(
                    address,
                    "POST",
                    "/estimate",
                    {"sql": SINGLE if index % 2 else JOIN},
                    headers={"X-Request-ID": request_id},
                )
                results[request_id] = (status, json.loads(raw))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        def promoter():
            barrier.wait(timeout=10.0)
            _request(
                address, "POST", "/admin/promote", {"estimator": "PostgreSQL"}
            )

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(8)
        ]
        threads.append(threading.Thread(target=promoter))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(results) == 8
        assert all(status == 200 for status, _ in results.values())

        _sync(obs)
        spans = load_trace(obs_dir / "traces.jsonl")
        by_id = {record["span_id"]: record for record in spans}
        waits = {
            record["trace_id"]: record
            for record in spans
            if record["name"] == "queue_wait"
            and record["trace_id"] in results
        }
        assert set(waits) == set(results)
        batches = {}
        for request_id, wait in waits.items():
            batch = by_id[wait["attributes"]["batch_span_id"]]
            assert batch["name"] == "batch"
            # This member's served version matches the batch's version.
            assert results[request_id][1]["version"] == (
                batch["attributes"]["version"]
            )
            assert wait["attributes"]["version"] == (
                batch["attributes"]["version"]
            )
            batches.setdefault(batch["span_id"], set()).add(wait["span_id"])
        for batch_span_id, members in batches.items():
            links = set(by_id[batch_span_id]["attributes"]["links"])
            # Every drained batch links exactly its member request spans.
            linked_to_results = {
                span_id
                for span_id in links
                if by_id[span_id]["trace_id"] in results
            }
            assert linked_to_results == members
