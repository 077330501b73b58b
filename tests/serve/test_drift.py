"""Accuracy-drift monitoring: the monitor, /feedback, self-execution."""

import http.client
import json
import time

import pytest

from repro.estimators.postgres import PostgresEstimator
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.jsonl import read_jsonl
from repro.serve.app import build_server
from repro.serve.drift import DriftConfig, DriftMonitor
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService, ServeObservability

SINGLE = "SELECT COUNT(*) FROM posts WHERE posts.Score > 10;"
JOIN = (
    "SELECT COUNT(*) FROM users, posts "
    "WHERE users.Id = posts.OwnerUserId AND users.Reputation > 5;"
)


def _observe_n(monitor, n, q, **overrides):
    kwargs = {
        "model": "default",
        "version": 1,
        "template": ("posts",),
        "estimator": "PostgreSQL",
    }
    kwargs.update(overrides)
    for _ in range(n):
        monitor.observe(estimate=100.0 * q, actual=100.0, **kwargs)


class TestDriftMonitor:
    def test_quiet_below_threshold(self, tmp_path):
        monitor = DriftMonitor(
            DriftConfig(window=8, min_count=4, threshold=4.0),
            pairs_path=tmp_path / "pairs.jsonl",
        )
        _observe_n(monitor, 10, q=2.0)
        assert monitor.events() == []
        snapshot = monitor.snapshot()
        assert snapshot["degraded_windows"] == 0
        assert snapshot["windows"][0]["median_q_error"] == 2.0
        monitor.close()

    def test_fires_once_per_episode_and_recovers(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        with obs_events.use_event_log(events_path):
            monitor = DriftMonitor(
                DriftConfig(window=8, min_count=4, threshold=4.0),
                pairs_path=tmp_path / "pairs.jsonl",
            )
            before = obs_metrics.registry().counter("serve.drift.events").value
            _observe_n(monitor, 8, q=10.0)  # all windowed q-errors = 10
            events = monitor.events()
            assert len(events) == 1  # threshold crossed once, not 5 times
            assert events[0]["median_q_error"] == 10.0
            assert events[0]["template"] == ["posts"]
            after = obs_metrics.registry().counter("serve.drift.events").value
            assert after == before + 1
            gauges = obs_metrics.registry().snapshot()["gauges"]
            assert gauges["serve.drift.degraded_windows"] == 1.0
            # Recovery: window refills with accurate pairs.
            _observe_n(monitor, 8, q=1.0)
            assert len(monitor.events()) == 1
            gauges = obs_metrics.registry().snapshot()["gauges"]
            assert gauges["serve.drift.degraded_windows"] == 0.0
            # Degrading again is a new episode.
            _observe_n(monitor, 8, q=20.0)
            assert len(monitor.events()) == 2
            monitor.close()
        logged = [
            record
            for record in obs_events.load_events(events_path)
            if record["event"] == "serve.drift"
        ]
        assert len(logged) == 2
        assert logged[0]["level"] == "warning"

    def test_min_count_gates_alerts(self):
        monitor = DriftMonitor(DriftConfig(window=16, min_count=8, threshold=4.0))
        _observe_n(monitor, 7, q=100.0, template=("users",))
        assert monitor.events() == []
        _observe_n(monitor, 1, q=100.0, template=("users",))
        assert len(monitor.events()) == 1

    def test_windows_keyed_by_model_version_template(self):
        monitor = DriftMonitor(DriftConfig(window=8, min_count=4, threshold=4.0))
        _observe_n(monitor, 8, q=10.0, version=1)
        _observe_n(monitor, 8, q=1.0, version=2)
        _observe_n(monitor, 8, q=1.0, version=2, template=("posts", "users"))
        snapshot = monitor.snapshot()
        assert len(snapshot["windows"]) == 3
        degraded = [w for w in snapshot["windows"] if w["degraded"]]
        assert len(degraded) == 1
        assert degraded[0]["version"] == 1

    def test_pairs_persisted_in_blame_shape(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        monitor = DriftMonitor(DriftConfig(), pairs_path=path)
        monitor.observe(
            model="default",
            version=3,
            template=("posts", "users"),
            estimate=50.0,
            actual=200.0,
            estimator="PostgreSQL",
            request_id="r-9",
            source="feedback",
            sql=JOIN,
        )
        monitor.close()
        pairs = read_jsonl(path)
        assert len(pairs) == 1
        pair = pairs[0]
        # The blame-attribution dict shape plus serving context.
        assert pair["tables"] == ["posts", "users"]
        assert pair["estimated_rows"] == 50.0
        assert pair["true_rows"] == 200.0
        assert pair["ratio"] == 4.0
        assert pair["direction"] == "under"
        assert pair["q_error"] == 4.0
        assert pair["model"] == "default" and pair["version"] == 3
        assert pair["request_id"] == "r-9" and pair["source"] == "feedback"

    def test_load_drift_pairs_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        monitor = DriftMonitor(DriftConfig(), pairs_path=path)
        monitor.observe(
            model="m", version=1, template=("posts",), estimate=1.0, actual=1.0
        )
        monitor.close()
        with path.open("a") as handle:
            handle.write('{"torn":')
        assert len(read_jsonl(path)) == 1


@pytest.fixture(scope="module")
def drift_serving(tiny_db, tmp_path_factory):
    pairs_path = tmp_path_factory.mktemp("drift") / "pairs.jsonl"
    registry = ModelRegistry()
    registry.promote(PostgresEstimator().fit(tiny_db), source="trained:PostgreSQL")
    obs = ServeObservability(
        drift=DriftMonitor(
            DriftConfig(window=8, min_count=4, threshold=4.0),
            pairs_path=pairs_path,
        )
    )
    service = EstimationService(
        tiny_db,
        registry=registry,
        batch_window_seconds=0.0,
        run_id="drift-test",
        obs=obs,
    ).start()
    server = build_server(service, "127.0.0.1:0")
    server.start()
    yield server.address, service, pairs_path
    assert server.close() is True
    service.close()


def _post(address, path, payload, headers=None):
    host, port = address
    connection = http.client.HTTPConnection(host, port, timeout=10.0)
    try:
        merged = {"Content-Type": "application/json"}
        merged.update(headers or {})
        connection.request(
            "POST", path, body=json.dumps(payload), headers=merged
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw), dict(response.getheaders())
    finally:
        connection.close()


class TestFeedbackRoute:
    def test_request_id_form(self, drift_serving):
        address, _, pairs_path = drift_serving
        status, body, headers = _post(address, "/estimate", {"sql": SINGLE})
        assert status == 200
        request_id = headers["X-Request-ID"]
        assert body["request_id"] == request_id
        status, reply, _ = _post(
            address,
            "/feedback",
            {"request_id": request_id, "actuals": [body["estimate"] * 2.0]},
        )
        assert status == 200
        assert reply["accepted"] == 1
        assert reply["q_errors"] == [2.0]
        pair = read_jsonl(pairs_path)[-1]
        assert pair["request_id"] == request_id
        assert pair["estimated_rows"] == body["estimate"]
        assert pair["source"] == "feedback"
        assert pair["version"] == body["version"]

    def test_request_id_is_single_use_and_unknown_is_400(self, drift_serving):
        address, _, _ = drift_serving
        status, body, headers = _post(address, "/estimate", {"sql": SINGLE})
        request_id = headers["X-Request-ID"]
        _post(address, "/feedback", {"request_id": request_id, "actuals": [1.0]})
        status, reply, _ = _post(
            address, "/feedback", {"request_id": request_id, "actuals": [1.0]}
        )
        assert status == 400
        assert "unknown or expired" in reply["error"]
        status, reply, _ = _post(
            address, "/feedback", {"request_id": "never-seen", "actuals": [1.0]}
        )
        assert status == 400

    def test_actuals_arity_must_match(self, drift_serving):
        address, _, _ = drift_serving
        status, _body, headers = _post(
            address, "/estimate_batch", {"sql": [SINGLE, JOIN]}
        )
        assert status == 200
        status, reply, _ = _post(
            address,
            "/feedback",
            {"request_id": headers["X-Request-ID"], "actuals": [5.0]},
        )
        assert status == 400
        assert "2 values" in reply["error"]

    def test_direct_form(self, drift_serving):
        address, _, pairs_path = drift_serving
        status, reply, _ = _post(
            address,
            "/feedback",
            {"sql": JOIN, "estimate": 100.0, "actual": 400.0},
        )
        assert status == 200
        assert reply["accepted"] == 1
        assert reply["q_errors"] == [4.0]
        pair = read_jsonl(pairs_path)[-1]
        assert pair["tables"] == ["posts", "users"]
        assert pair["direction"] == "under"

    def test_direct_form_recomputes_missing_estimate(self, drift_serving):
        address, _, pairs_path = drift_serving
        status, reply, _ = _post(
            address, "/feedback", {"sql": SINGLE, "actual": 123.0}
        )
        assert status == 200
        assert reply["accepted"] == 1
        assert read_jsonl(pairs_path)[-1]["estimated_rows"] >= 1.0

    def test_bad_payloads_are_400(self, drift_serving):
        address, _, _ = drift_serving
        for payload in (
            {},
            {"sql": SINGLE},  # no actual
            {"sql": SINGLE, "actual": "many"},
            {"sql": SINGLE, "actual": -5},
        ):
            status, reply, _ = _post(address, "/feedback", payload)
            assert status == 400, payload
            assert "error" in reply

    def test_feedback_disabled_is_400(self, tiny_db):
        registry = ModelRegistry()
        registry.promote(PostgresEstimator().fit(tiny_db))
        service = EstimationService(
            tiny_db, registry=registry, batch_window_seconds=0.0
        ).start()
        server = build_server(service, "127.0.0.1:0")
        server.start()
        try:
            status, reply, _ = _post(
                server.address,
                "/feedback",
                {"sql": SINGLE, "estimate": 1.0, "actual": 1.0},
            )
            assert status == 400
            assert "disabled" in reply["error"]
        finally:
            server.close()
            service.close()

    def test_drift_event_fires_through_http(self, drift_serving):
        address, service, _ = drift_serving
        before = len(service.obs.drift.events())
        for index in range(8):
            status, body, headers = _post(
                address,
                "/estimate",
                {"sql": JOIN},
                headers={"X-Request-ID": f"shifted-{index}"},
            )
            assert status == 200
            # Report actuals 50x the estimate: a workload shift the
            # served model never saw.
            _post(
                address,
                "/feedback",
                {
                    "request_id": headers["X-Request-ID"],
                    "actuals": [body["estimate"] * 50.0],
                },
            )
        events = service.obs.drift.events()
        assert len(events) == before + 1
        assert events[-1]["median_q_error"] == pytest.approx(50.0)
        status, health, _headers = _post(address, "/estimate", {"sql": SINGLE})
        assert status == 200  # serving keeps working while degraded


class TestServiceEventLog:
    def test_drift_event_lands_in_the_service_log_not_the_campaign_log(
        self, tiny_db, tmp_path
    ):
        """Handler threads emit into ``obs.events``, which the app
        installs per request; a log the main thread has installed (a
        campaign running in the same process) never sees them."""
        registry = ModelRegistry()
        registry.promote(PostgresEstimator().fit(tiny_db))
        service_path = tmp_path / "serve.events.jsonl"
        campaign_path = tmp_path / "campaign.events.jsonl"
        obs = ServeObservability(
            drift=DriftMonitor(DriftConfig(window=8, min_count=4, threshold=4.0)),
            events=obs_events.EventLog(service_path),
        )
        service = EstimationService(
            tiny_db, registry=registry, batch_window_seconds=0.0, obs=obs
        ).start()
        server = build_server(service, "127.0.0.1:0")
        server.start()
        try:
            with obs_events.use_event_log(campaign_path):
                obs_events.emit("campaign.begin")
                for _ in range(4):
                    status, _reply, _ = _post(
                        server.address,
                        "/feedback",
                        {"sql": JOIN, "estimate": 1.0, "actual": 500.0},
                    )
                    assert status == 200
                obs_events.emit("campaign.end")
        finally:
            server.close()
            service.close()
        served = [record["event"] for record in obs_events.load_events(service_path)]
        assert served == ["serve.drift"]
        campaign = [
            record["event"] for record in obs_events.load_events(campaign_path)
        ]
        assert campaign == ["campaign.begin", "campaign.end"]
        assert obs.events.count == 1
        obs.events.emit("after-close")  # service.close() closed the log
        assert obs.events.count == 1


class TestSelfExecution:
    def test_sampled_queries_produce_ground_truth_pairs(self, tiny_db, tmp_path):
        registry = ModelRegistry()
        registry.promote(PostgresEstimator().fit(tiny_db))
        monitor = DriftMonitor(
            DriftConfig(window=8, min_count=4, threshold=1000.0),
            pairs_path=tmp_path / "pairs.jsonl",
        )
        service = EstimationService(
            tiny_db,
            registry=registry,
            batch_window_seconds=0.0,
            obs=ServeObservability(drift=monitor),
            self_execute_every=1,  # sample every query
        ).start()
        try:
            service.estimate_many([SINGLE], request_id="self-1")
            service.estimate_many([JOIN], request_id="self-2")
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                pairs = read_jsonl(tmp_path / "pairs.jsonl")
                if len(pairs) >= 2:
                    break
                time.sleep(0.05)
            assert len(pairs) >= 2
            assert {pair["source"] for pair in pairs} == {"self_execution"}
            # Ground truth is the real execution result, not the estimate.
            for pair in pairs:
                assert pair["true_rows"] >= 1.0
                assert pair["request_id"] in ("self-1", "self-2")
        finally:
            service.close()

    def test_disabled_without_drift_monitor(self, tiny_db):
        registry = ModelRegistry()
        registry.promote(PostgresEstimator().fit(tiny_db))
        service = EstimationService(
            tiny_db, registry=registry, self_execute_every=5
        )
        assert service._self_exec_thread is None
