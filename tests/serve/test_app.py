"""End-to-end HTTP tests for the serving surface (real sockets, port 0)."""

import http.client
import json
import threading
import time

import pytest

from repro.estimators.persistence import save_estimator
from repro.estimators.postgres import PostgresEstimator
from repro.serve.app import build_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService

SINGLE = "SELECT COUNT(*) FROM posts WHERE posts.Score > 10;"
JOIN = (
    "SELECT COUNT(*) FROM users, posts "
    "WHERE users.Id = posts.OwnerUserId AND users.Reputation > 5;"
)


@pytest.fixture(scope="module")
def serving(tiny_db):
    registry = ModelRegistry()
    registry.promote(PostgresEstimator().fit(tiny_db), source="trained:PostgreSQL")

    def trainer(name):
        if name != "PostgreSQL":
            raise KeyError(name)
        return PostgresEstimator().fit(tiny_db)

    service = EstimationService(
        tiny_db,
        registry=registry,
        trainer=trainer,
        run_id="test-run-42",
    ).start()
    server = build_server(service, "127.0.0.1:0")
    server.start()
    yield server.address, service
    assert server.close() is True
    service.close()


def _request(address, method, path, payload=None):
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, raw, dict(response.getheaders())
    finally:
        connection.close()


def _post_json(address, path, payload):
    status, raw, _ = _request(address, "POST", path, payload)
    return status, json.loads(raw)


def _get_json(address, path):
    status, raw, _ = _request(address, "GET", path)
    return status, json.loads(raw)


class TestEstimateRoutes:
    def test_estimate_single(self, serving):
        address, _ = serving
        status, body = _post_json(address, "/estimate", {"sql": SINGLE})
        assert status == 200
        assert body["model"] == "default"
        assert body["fallback"] is False
        assert body["estimates"] == [body["estimate"]]
        assert body["estimate"] >= 1.0

    def test_estimate_batch(self, serving):
        address, _ = serving
        status, body = _post_json(address, "/estimate_batch", {"sql": [SINGLE, JOIN]})
        assert status == 200
        assert len(body["estimates"]) == 2
        assert "estimate" not in body  # singular key only for a single string

    def test_subplans(self, serving):
        address, _ = serving
        status, body = _post_json(address, "/subplans", {"sql": JOIN})
        assert status == 200
        tables = [entry["tables"] for entry in body["sub_plans"]]
        assert ["posts"] in tables and ["users"] in tables
        assert ["posts", "users"] in tables
        assert body["failed_sub_plans"] == 0

    def test_bad_sql_is_400(self, serving):
        address, _ = serving
        status, body = _post_json(address, "/estimate", {"sql": "SELECT nonsense"})
        assert status == 400
        assert "cannot parse" in body["error"]
        status, body = _post_json(address, "/estimate", {"sql": []})
        assert status == 400
        status, body = _post_json(address, "/subplans", {"sql": [JOIN]})
        assert status == 400

    def test_unknown_model_is_404(self, serving):
        address, _ = serving
        status, body = _post_json(
            address, "/estimate", {"sql": SINGLE, "model": "nope"}
        )
        assert status == 404
        assert "nope" in body["error"]

    def test_invalid_json_body_is_400(self, serving):
        address, _ = serving
        status, raw, _ = _request(address, "POST", "/estimate", payload=None)
        assert status == 400

    def test_unknown_route_404_and_wrong_method_405(self, serving):
        address, _ = serving
        status, _body = _get_json(address, "/nope")
        assert status == 404
        status, _raw, _ = _request(address, "GET", "/estimate")
        assert status == 405


class TestAdminRoutes:
    def test_models_and_healthz(self, serving):
        address, _ = serving
        status, body = _get_json(address, "/models")
        assert status == 200
        assert body["models"]["default"]["estimator"] == "PostgreSQL"
        status, health = _get_json(address, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["run_id"] == "test-run-42"

    def test_healthz_with_query_string(self, serving):
        address, _ = serving
        status, health = _get_json(address, "/healthz?probe=1")
        assert status == 200
        assert health["status"] == "ok"

    def test_metrics_exposes_serve_counters(self, serving):
        address, _ = serving
        _post_json(address, "/estimate", {"sql": SINGLE})
        status, raw, headers = _request(address, "GET", "/metrics?format=prometheus")
        assert status == 200
        text = raw.decode("utf-8")
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_serve_requests_estimate" in text

    def test_promote_advances_served_version(self, serving, tiny_db, tmp_path):
        address, _ = serving
        _status, before = _post_json(address, "/estimate", {"sql": SINGLE})
        status, body = _post_json(
            address, "/admin/promote", {"estimator": "PostgreSQL"}
        )
        assert status == 200
        assert body["promoted"]["version"] == before["version"] + 1
        _status, after = _post_json(address, "/estimate", {"sql": SINGLE})
        assert after["version"] == before["version"] + 1

        path = tmp_path / "model.bin"
        save_estimator(PostgresEstimator().fit(tiny_db), path)
        status, body = _post_json(address, "/admin/promote", {"path": str(path)})
        assert status == 200
        assert body["promoted"]["source"] == f"loaded:{path}"

        status, body = _post_json(address, "/admin/promote", {})
        assert status == 400
        status, body = _post_json(address, "/admin/promote", {"estimator": "nope"})
        assert status == 400

    def test_shutdown_sets_event(self, serving):
        address, service = serving
        assert not service.shutdown_requested.is_set()
        status, body = _post_json(address, "/admin/shutdown", {})
        assert status == 200
        assert service.shutdown_requested.is_set()
        service.shutdown_requested.clear()


class _StuckEstimator:
    """PostgreSQL whose ``estimate_batch`` blocks until released."""

    name = "stuck"

    def __init__(self, inner):
        self.inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def estimate_batch(self, queries):
        self.entered.set()
        self.release.wait(timeout=10.0)
        return self.inner.estimate_batch(queries)


class TestAdmissionOverHTTP:
    def test_full_queue_returns_429(self, tiny_db):
        # The round cap: with the model stuck, two requests queue in the
        # kernel, are read in one wake-up, and one of them is refused.
        estimator = _StuckEstimator(PostgresEstimator().fit(tiny_db))
        registry = ModelRegistry()
        registry.promote(estimator)
        service = EstimationService(tiny_db, registry=registry, max_queue=1).start()
        server = build_server(service, "127.0.0.1:0")
        server.start()
        connections = [
            http.client.HTTPConnection(*server.address, timeout=10.0) for _ in range(3)
        ]
        body = json.dumps({"sql": SINGLE})
        try:
            for connection in connections:  # accepted before the model blocks
                connection.request("GET", "/healthz")
                connection.getresponse().read()
            connections[0].request("POST", "/estimate", body=body)
            assert estimator.entered.wait(timeout=10.0)
            for connection in connections[1:]:
                connection.request("POST", "/estimate", body=body)
            time.sleep(0.2)
            estimator.release.set()
            replies = [connection.getresponse() for connection in connections]
            outcomes = [(reply.status, json.loads(reply.read())) for reply in replies]
        finally:
            estimator.release.set()
            for connection in connections:
                connection.close()
            server.close()
            service.close()
        assert outcomes[0][0] == 200
        assert sorted(status for status, _ in outcomes[1:]) == [200, 429]
        (refused,) = [body for status, body in outcomes if status == 429]
        assert "round full" in refused["error"] and refused["request_id"]


class TestStatusMapping:
    def test_shutdown_deadline_and_bugs_map_to_503_504_500(self, tiny_db):
        registry = ModelRegistry()
        registry.promote(PostgresEstimator().fit(tiny_db))
        failures = {"slow": TimeoutError("training overran"), "bug": RuntimeError("oops")}

        def trainer(name):
            raise failures[name]

        service = EstimationService(tiny_db, registry=registry, trainer=trainer).start()
        server = build_server(service, "127.0.0.1:0").start()
        try:
            status, body = _post_json(server.address, "/admin/promote", {"estimator": "slow"})
            assert (status, body["error"]) == (504, "training overran")
            status, body = _post_json(server.address, "/admin/promote", {"estimator": "bug"})
            assert status == 500 and body["error"] == "RuntimeError: oops"
            service.close()  # the server still answers; the service refuses
            status, body = _post_json(server.address, "/estimate", {"sql": SINGLE})
            assert status == 503 and "shut down" in body["error"]
            status, _ = _post_json(server.address, "/subplans", {"sql": JOIN})
            assert status == 200
        finally:
            assert server.close() is True
