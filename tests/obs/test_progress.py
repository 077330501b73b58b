"""Live progress: tracker, Prometheus text, snapshot writer, HTTP server."""

import json
import math
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs.httpd import ServerStartError
from repro.obs.progress import (
    MetricsServer,
    ProgressTracker,
    SnapshotWriter,
    prometheus_text,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class _Run:
    def __init__(self, failed=False, aborted=False):
        self.failed = failed
        self.aborted = aborted


# -- ProgressTracker ----------------------------------------------------------


def test_tracker_classifies_outcomes():
    tracker = ProgressTracker(total=5, estimator="PostgreSQL", workload="stats")
    tracker.record_result(_Run())
    tracker.record_result(_Run(failed=True))
    tracker.record_result(_Run(aborted=True))
    view = tracker.snapshot()
    assert (view["done"], view["failed"], view["aborted"]) == (3, 1, 1)
    assert view["remaining"] == 2


def test_tracker_in_flight_and_workers():
    clock = FakeClock()
    tracker = ProgressTracker(total=4, clock=clock)
    tracker.record_claim(0, worker=101)
    tracker.record_claim(1, worker=102)
    assert tracker.snapshot()["in_flight"] == [0, 1]
    clock.advance(10.0)
    tracker.heartbeat(102)
    assert tracker.snapshot()["workers"] == {"101": 10.0, "102": 0.0}
    tracker.record_result(_Run(), index=0)
    assert tracker.snapshot()["in_flight"] == [1]


def test_throughput_and_eta_from_fake_clock():
    clock = FakeClock()
    tracker = ProgressTracker(total=10, clock=clock)
    assert tracker.throughput_qps() == 0.0
    assert tracker.eta_seconds() is None
    for _ in range(5):
        clock.advance(2.0)
        tracker.record_result(_Run())
    # 5 completions spaced 2s apart -> 0.5 q/s, 5 remaining -> 10s ETA.
    assert tracker.throughput_qps() == pytest.approx(0.5)
    assert tracker.eta_seconds() == pytest.approx(10.0)


def test_render_mentions_progress_and_label():
    tracker = ProgressTracker(total=3, estimator="TrueCard", workload="stats")
    tracker.record_result(_Run())
    text = tracker.render()
    assert "1/3 done" in text
    assert "[TrueCard/stats]" in text


# -- Prometheus text ----------------------------------------------------------


def test_prometheus_text_campaign_and_registry():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("cache.plans.hits").inc(7)
    registry.gauge("cache.plans.bytes").set(128)
    for value in (1.0, 2.0, 3.0):
        registry.histogram("phase.exec_seconds").observe(value)
    tracker = ProgressTracker(total=4, estimator="PostgreSQL", workload="stats")
    tracker.record_result(_Run())

    text = prometheus_text(registry=registry, tracker=tracker)
    assert "# TYPE repro_campaign_queries_total gauge" in text
    assert "repro_campaign_queries_total 4.0" in text
    assert "repro_campaign_queries_done 1.0" in text
    assert "# TYPE repro_cache_plans_hits counter" in text
    assert "repro_cache_plans_hits 7.0" in text
    assert "# TYPE repro_cache_plans_bytes gauge" in text
    assert "# TYPE repro_phase_exec_seconds summary" in text
    assert 'repro_phase_exec_seconds{quantile="0.5"}' in text
    assert "repro_phase_exec_seconds_count 3.0" in text
    assert "repro_phase_exec_seconds_sum 6.0" in text
    assert text.endswith("\n")


def test_prometheus_names_sanitized():
    registry = obs_metrics.MetricsRegistry()
    registry.counter("executor.rows-out/total").inc()
    text = prometheus_text(registry=registry)
    assert "repro_executor_rows_out_total 1.0" in text


def test_prometheus_histogram_bucket_series():
    registry = obs_metrics.MetricsRegistry()
    for value in (0.0009, 0.0009, 0.1, 3.0):
        registry.histogram("serve.latency_seconds.estimate").observe(value)
    text = prometheus_text(registry=registry)
    lines = [
        line
        for line in text.splitlines()
        if line.startswith("repro_serve_latency_seconds_estimate_bucket")
    ]
    assert lines, "expected _bucket series alongside the summary"
    # Cumulative counts are monotone and end at +Inf == count.
    counts = [float(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts)
    assert lines[-1].startswith(
        'repro_serve_latency_seconds_estimate_bucket{le="+Inf"}'
    )
    assert counts[-1] == 4.0
    # The 2^-10 boundary (0.0009765625) covers both sub-ms observations.
    assert any('le="0.0009765625"' in line and " 2" in line for line in lines)

    # The p99 an alerting rule reconstructs from the _bucket series
    # brackets the raw-sample p99 within one factor-2 bucket.
    spread = registry.histogram("serve.latency_seconds.subplans")
    for index in range(1000):
        spread.observe(0.0004 * 1.006**index)  # 0.4 ms .. 160 ms
    buckets = [
        (float(line.split('le="', 1)[1].split('"', 1)[0]), float(line.rsplit(" ", 1)[1]))
        for line in prometheus_text(registry=registry).splitlines()
        if line.startswith("repro_serve_latency_seconds_subplans_bucket")
    ]
    rank = math.ceil(0.99 * buckets[-1][1])
    bucketed = next(bound for bound, cumulative in buckets if cumulative >= rank)
    raw = spread.percentile(99)
    assert raw <= bucketed <= 4 * raw


# -- SnapshotWriter -----------------------------------------------------------


def test_snapshot_writer_throttles_and_forces(tmp_path):
    clock = FakeClock()
    tracker = ProgressTracker(total=2, clock=clock)
    writer = SnapshotWriter(tmp_path / "progress.prom", interval_seconds=1.0, clock=clock)

    assert writer.maybe_write(tracker) is True
    assert writer.maybe_write(tracker) is False  # within interval
    clock.advance(1.5)
    assert writer.maybe_write(tracker) is True
    assert writer.maybe_write(tracker, force=True) is True
    assert writer.writes == 3

    content = (tmp_path / "progress.prom").read_text()
    assert "repro_campaign_queries_total 2.0" in content
    assert not (tmp_path / "progress.prom.tmp").exists()  # atomic replace


# -- module hooks -------------------------------------------------------------


def test_module_hooks_are_noops_when_inactive(tmp_path):
    snapshot_path = tmp_path / "ended.prom"
    with obs_progress.use_progress(snapshot_path) as ended:
        pass
    obs_progress.begin_campaign(total=3)
    obs_progress.record_claim(0, worker=1)
    obs_progress.heartbeat(1)
    obs_progress.record_result(_Run(), index=0)
    obs_progress.end_campaign()
    # The tracker of a block that has ended sees nothing, nor its file.
    assert (ended.total, ended.done) == (0, 0)
    assert not snapshot_path.exists()


def test_live_telemetry_cost_is_bounded(tmp_path):
    """What live telemetry adds per campaign query — two events and a
    progress update with a snapshot writer active — stays under 500 us."""
    cycles = []
    with (
        obs_events.use_event_log(tmp_path / "live.events.jsonl"),
        obs_progress.use_progress(tmp_path / "live.prom"),
    ):
        obs_progress.begin_campaign(total=50, estimator="PostgreSQL", workload="stats")
        for index in range(50):
            started = time.perf_counter()
            obs_events.emit("query.start", query=f"q{index}")
            obs_progress.record_result(_Run(), index=index)
            obs_events.emit("query.completed", query=f"q{index}", seconds=0.001)
            cycles.append(time.perf_counter() - started)
        obs_progress.end_campaign()
    assert statistics.median(cycles) < 500e-6, cycles


def test_module_hooks_drive_tracker_and_snapshot(tmp_path):
    snapshot_path = tmp_path / "live.prom"
    with obs_progress.use_progress(snapshot_path) as tracker:
        obs_progress.begin_campaign(total=2, estimator="PostgreSQL", workload="stats")
        obs_progress.record_claim(0, worker=11)
        obs_progress.record_result(_Run(), index=0)
        obs_progress.end_campaign()
    assert tracker.done == 1
    assert snapshot_path.exists()
    assert "repro_campaign_queries_done 1.0" in snapshot_path.read_text()


# -- MetricsServer ------------------------------------------------------------


def test_metrics_server_serves_metrics_and_progress():
    tracker = ProgressTracker(total=3, estimator="PostgreSQL", workload="stats")
    tracker.record_result(_Run())

    server = MetricsServer("127.0.0.1:0", tracker=tracker).start()
    try:
        host, port = server.address
        base = f"http://{host}:{port}"
        with urllib.request.urlopen(f"{base}/metrics", timeout=5) as response:
            body = response.read().decode()
            assert response.status == 200
            assert "repro_campaign_queries_done 1.0" in body
        with urllib.request.urlopen(f"{base}/progress", timeout=5) as response:
            payload = json.loads(response.read().decode())
            assert payload["done"] == 1
            assert payload["total"] == 3
            assert payload["estimator"] == "PostgreSQL"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{base}/nope", timeout=5)
    finally:
        server.close()


def test_metrics_server_serves_the_tracker_it_was_given():
    """The server thread cannot see the campaign thread's installed
    tracker, so ``/progress`` serves the one passed to the constructor —
    not whichever tracker the constructing thread has installed."""
    given = ProgressTracker(total=7, estimator="given", workload="stats")
    with obs_progress.use_progress() as installed:
        obs_progress.begin_campaign(total=99, estimator="installed")
        server = MetricsServer("127.0.0.1:0", tracker=given).start()
        try:
            host, port = server.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/progress", timeout=5
            ) as response:
                payload = json.loads(response.read().decode())
        finally:
            server.close()
    assert (payload["estimator"], payload["total"]) == ("given", 7)
    assert installed.total == 99


def test_metrics_server_rejects_bad_addr():
    with pytest.raises(ValueError):
        MetricsServer("not-an-addr")


def test_throughput_and_eta_never_raise_or_go_negative():
    """Hardening contract: finite non-negative float / None, no exceptions."""
    clock = FakeClock()
    tracker = ProgressTracker(total=10, clock=clock)

    # Clock skew: completions recorded, then the clock runs backwards.
    clock.advance(2.0)
    tracker.record_result(_Run())
    clock.advance(-5.0)
    tracker.record_result(_Run())
    rate = tracker.throughput_qps()
    assert rate >= 0.0
    eta = tracker.eta_seconds()
    assert eta is None or eta >= 0.0

    # Denormal-small completion spacing drives the recent-window rate
    # to infinity; the guard must collapse it instead of leaking inf.
    tracker2 = ProgressTracker(total=10, clock=clock)
    tracker2._recent.extend([0.0, 5e-324])
    assert tracker2.throughput_qps() == 0.0
    assert tracker2.eta_seconds() is None

    # Zero-signal state stays at the documented fallbacks.
    fresh = ProgressTracker(total=0, clock=clock)
    assert fresh.throughput_qps() == 0.0
    assert fresh.eta_seconds() is None


def test_metrics_server_healthz_reports_run_id():
    server = MetricsServer("127.0.0.1:0", run_id="run-42ab").start()
    try:
        host, port = server.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=5
        ) as response:
            assert response.status == 200
            payload = json.loads(response.read().decode())
            assert payload == {"run_id": "run-42ab", "status": "ok"}
    finally:
        server.close()


def test_metrics_server_routes_paths_with_query_strings():
    """Regression: ``/healthz?probe=1`` used to 404 because routing
    compared the raw request target instead of the path component."""
    server = MetricsServer("127.0.0.1:0", run_id="probe-run").start()
    try:
        host, port = server.address
        base = f"http://{host}:{port}"
        with urllib.request.urlopen(f"{base}/healthz?probe=1", timeout=5) as response:
            assert response.status == 200
            assert json.loads(response.read().decode())["run_id"] == "probe-run"
        with urllib.request.urlopen(
            f"{base}/metrics?format=prometheus", timeout=5
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
        with urllib.request.urlopen(f"{base}/progress?pretty=1", timeout=5) as response:
            assert response.status == 200
    finally:
        server.close()


def test_metrics_server_close_is_idempotent():
    """Regression: a second ``close()`` used to raise/hang."""
    server = MetricsServer("127.0.0.1:0").start()
    assert server.close() is True
    assert server.close() is True

    # Bound but never started: close must not hang waiting for a
    # serve_forever loop that never ran.
    unstarted = MetricsServer("127.0.0.1:0")
    assert unstarted.close() is True
    assert unstarted.close() is True


def test_metrics_server_bind_failure_leaks_no_thread():
    """Regression: the constructor used to start the daemon thread
    before binding, so an occupied port leaked a wedged thread."""
    holder = MetricsServer("127.0.0.1:0").start()
    try:
        host, port = holder.address
        before = {thread.ident for thread in threading.enumerate()}
        with pytest.raises(ServerStartError, match="--metrics-addr"):
            MetricsServer(f"{host}:{port}")
        after = {thread.ident for thread in threading.enumerate()}
        assert after == before
    finally:
        holder.close()


def test_server_swallows_client_aborts_but_reports_others(capfd):
    server = MetricsServer("127.0.0.1:0")

    def broken(request):
        raise RuntimeError("genuinely broken")

    server.add_route("GET", "/broken", broken)
    server.start()
    try:
        host, port = server.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
        # Reset, not FIN: the reply's send meets a vanished client.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        with pytest.raises(urllib.error.HTTPError) as failure:
            urllib.request.urlopen(f"http://{host}:{port}/broken", timeout=5)
        assert failure.value.code == 500  # still surfaced, to the client
        assert "RuntimeError: genuinely broken" in failure.value.read().decode()
        assert capfd.readouterr().err == ""  # benign abort: silent
    finally:
        server.close()


def test_concurrent_scrapes_during_campaign_mutation():
    """Satellite: hammer ``/metrics`` and ``/progress`` from threads
    while a campaign mutates the tracker and metrics registry; every
    response must be a 200 with coherent (untorn) content."""
    tracker = ProgressTracker(total=500, estimator="PostgreSQL", workload="stats")
    server = MetricsServer("127.0.0.1:0", tracker=tracker).start()
    errors: list[str] = []
    stop = threading.Event()

    def scrape(path, check):
        host, port = server.address
        url = f"http://{host}:{port}{path}"
        while not stop.is_set():
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status != 200:
                        errors.append(f"{path}: HTTP {response.status}")
                        return
                    check(response.read().decode())
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                errors.append(f"{path}: {type(error).__name__}: {error}")
                return

    def check_progress(body):
        payload = json.loads(body)  # torn JSON would raise
        if not 0 <= payload["done"] <= payload["total"]:
            errors.append(f"incoherent snapshot: {payload}")

    def check_metrics(body):
        if not body.endswith("\n"):
            errors.append("truncated Prometheus body")
        for line in body.splitlines():
            if not line.startswith("#") and line:
                name, _, value = line.rpartition(" ")
                if not name:
                    errors.append(f"malformed sample line: {line!r}")
                else:
                    float(value)  # must parse

    scrapers = [
        threading.Thread(target=scrape, args=("/progress", check_progress)),
        threading.Thread(target=scrape, args=("/metrics", check_metrics)),
        threading.Thread(target=scrape, args=("/metrics", check_metrics)),
    ]
    try:
        for thread in scrapers:
            thread.start()
        registry = obs_metrics.registry()
        for index in range(500):
            tracker.record_claim(index, worker=index % 7)
            tracker.record_result(_Run(failed=index % 11 == 0), index=index)
            registry.counter("campaign.queries").inc()
            registry.histogram("campaign.latency").observe(index / 500.0)
    finally:
        stop.set()
        for thread in scrapers:
            thread.join(timeout=10.0)
        server.close()
    assert errors == []
    assert tracker.snapshot()["done"] == 500
