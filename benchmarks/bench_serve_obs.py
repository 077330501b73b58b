"""Benchmark: cost and fidelity of the serving observability layer.

Three contracts from the serving-observability work, measured against
live ``repro serve`` stacks and written to
``benchmarks/BENCH_serve_obs.json``:

- **Overhead**: per-request latency with the full observability
  pipeline on (per-request JSONL traces, access log, SLO accounting,
  drift bookkeeping) versus an identical dark stack, interleaved
  best-of rounds over persistent connections, reported as the
  **absolute** cost added per request.  The former "under 2 %" was a
  ratio over a request padded by the 2 ms batch window; a lone request
  no longer waits that window out (0.5 ms instead of 2.9 ms), so the
  same ~80 us reads as 16 % of it.  The gate is now: not above what the
  commit before demand-driven batching added, plus 20 %.
- **Drift detection**: a workload shift injected through ``POST
  /feedback`` (actuals 50x the served estimates) must trip the drift
  monitor — an emitted event *and* the ``serve.drift.degraded_windows``
  gauge — while a no-shift control run with faithful actuals stays
  completely quiet.
- **Histogram fidelity**: under concurrent load, the p99 reconstructed
  from the Prometheus ``_bucket`` series scraped off ``/metrics`` must
  agree with the raw-sample p99 within one factor-2 bucket boundary.
"""

from __future__ import annotations

import json
import math
import time
from http.client import HTTPConnection
from pathlib import Path

from repro.engine.sql import query_to_sql
from repro.obs import metrics as obs_metrics
from repro.serve.app import build_server
from repro.serve.drift import DriftConfig, DriftMonitor
from repro.serve.loadgen import run_load
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService, ServeObservability
from repro.serve.slo import SLOConfig, SLOMonitor
from repro.serve.tracing import AccessLog, TraceSink

REPORT_PATH = Path(__file__).parent / "BENCH_serve_obs.json"

ESTIMATOR = "LW-XGB"
#: What observability added per request at the commit before demand-driven
#: batching: median of 26 stack pairs measured with this file's procedure
#: on the 2-CPU box (0-172 us, quartiles 54-107; 0-5.9 % of a 2.9 ms
#: request, so the parent crossed the 2 % gate this replaces both ways).
PARENT_ADDED_US = 80.0
MAX_ADDED_OVER_PARENT = 1.2
#: Fresh stack pairs measured; the median reading is reported, since one
#: pair reads anywhere in 28-183 us depending on where its threads landed.
OVERHEAD_REPEATS = 5
DRIFT_SHIFT_FACTOR = 50.0
#: Feedback pairs per scenario — comfortably past DriftConfig.min_count.
DRIFT_FEEDBACK_PAIRS = 12


def _serving_stack(database, estimator, obs=None, batch_window=0.0):
    registry = ModelRegistry()
    registry.promote(estimator, source=f"trained:{ESTIMATOR}")
    service = EstimationService(
        database,
        registry=registry,
        batch_window_seconds=batch_window,
        max_queue=1024,
        obs=obs,
    ).start()
    server = build_server(service, "127.0.0.1:0")
    server.start()
    return service, server


def _full_observability(obs_dir: Path) -> ServeObservability:
    obs_dir.mkdir(parents=True, exist_ok=True)
    return ServeObservability(
        trace_sink=TraceSink(obs_dir / "traces.jsonl"),
        access_log=AccessLog(obs_dir / "access.jsonl"),
        slo=SLOMonitor(SLOConfig()),
        drift=DriftMonitor(DriftConfig(), pairs_path=obs_dir / "drift_pairs.jsonl"),
    )


def _post(address, path, payload):
    host, port = address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _get_text(address, path):
    host, port = address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        assert response.status == 200, (path, response.status)
        return response.read().decode()
    finally:
        connection.close()


def measure_serve_overhead(
    baseline_address: tuple[str, int],
    instrumented_address: tuple[str, int],
    payloads: list[dict],
    path: str = "/estimate",
    rounds: int = 30,
    requests_per_round: int = 8,
    warmup: int = 5,
    timeout: float = 30.0,
) -> dict:
    """Per-request serving cost with full request observability on vs off.

    Two identical serving stacks answer the same payload cycle over
    persistent HTTP connections; the instrumented one additionally
    writes per-request traces, access-log lines and SLO accounting.
    Rounds are *interleaved* (one baseline round, one instrumented
    round, repeated) and each stack keeps its best round's mean
    request latency, for the same drift-suppression reasons as
    :func:`repro.obs.overhead.measure_live_overhead`.
    ``added_us_per_request`` is the number the budget in
    ``BENCH_serve_obs.json`` applies to; ``overhead_serve`` is the same
    cost as a share of the dark request.
    """

    def connect(address: tuple[str, int]) -> HTTPConnection:
        return HTTPConnection(address[0], address[1], timeout=timeout)

    def run_round(connection: HTTPConnection, offset: int) -> float:
        started = time.perf_counter()
        for index in range(requests_per_round):
            payload = payloads[(offset + index) % len(payloads)]
            connection.request(
                "POST",
                path,
                body=json.dumps(payload),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise RuntimeError(
                    f"serve overhead round got HTTP {response.status}"
                )
        return (time.perf_counter() - started) / requests_per_round

    base_conn = connect(baseline_address)
    inst_conn = connect(instrumented_address)
    try:
        for index in range(warmup):
            run_round(base_conn, index)
            run_round(inst_conn, index)
        baseline = float("inf")
        instrumented = float("inf")
        for round_index in range(rounds):
            offset = round_index * requests_per_round
            baseline = min(baseline, run_round(base_conn, offset))
            instrumented = min(instrumented, run_round(inst_conn, offset))
    finally:
        base_conn.close()
        inst_conn.close()

    return {
        "rounds": rounds,
        "requests_per_round": requests_per_round,
        "payloads": len(payloads),
        "baseline_seconds_per_request": baseline,
        "instrumented_seconds_per_request": instrumented,
        "added_us_per_request": (instrumented - baseline) * 1e6,
        "overhead_serve": instrumented / baseline - 1.0,
    }


def _measure_overhead(database, estimator, payloads, tmp_path):
    """The median of ``OVERHEAD_REPEATS`` readings, each on fresh stacks."""
    runs = sorted(
        (
            _measure_overhead_once(database, estimator, payloads, tmp_path / str(index))
            for index in range(OVERHEAD_REPEATS)
        ),
        key=lambda run: run["added_us_per_request"],
    )
    return {
        **runs[len(runs) // 2],
        "added_us_runs": [run["added_us_per_request"] for run in runs],
        "parent_added_us_per_request": PARENT_ADDED_US,
    }


def _measure_overhead_once(database, estimator, payloads, tmp_path):
    # The canonical serving configuration from bench_serve: batched
    # with the 2ms cap on the coalescing wait.
    baseline_service, baseline_server = _serving_stack(
        database, estimator, batch_window=0.002
    )
    obs = _full_observability(tmp_path / "serve-obs")
    traced_service, traced_server = _serving_stack(
        database, estimator, obs=obs, batch_window=0.002
    )
    try:
        result = measure_serve_overhead(
            baseline_server.address,
            traced_server.address,
            payloads,
            rounds=20,
            requests_per_round=16,
        )
    finally:
        baseline_server.close()
        baseline_service.close()
        traced_server.close()
        traced_service.close()
    # The instrumented stack must actually have been observing.
    assert obs.trace_sink.spans_written > 0
    assert obs.access_log.count > 0
    return result


def _run_drift_scenario(database, estimator, payload, tmp_path, *, shift, name):
    """Serve, feed back actuals (shifted or faithful), report the monitor."""
    obs_dir = tmp_path / f"drift-{name}"
    obs_dir.mkdir(parents=True)
    drift = DriftMonitor(
        DriftConfig(), pairs_path=obs_dir / "drift_pairs.jsonl"
    )
    obs = ServeObservability(drift=drift)
    service, server = _serving_stack(database, estimator, obs=obs)
    try:
        for _ in range(DRIFT_FEEDBACK_PAIRS):
            status, body = _post(server.address, "/estimate", payload)
            assert status == 200, body
            estimate = float(body["estimates"][0])
            actual = max(1.0, estimate * shift)
            status, reply = _post(
                server.address,
                "/feedback",
                {"request_id": body["request_id"], "actuals": [actual]},
            )
            assert status == 200, reply
            assert reply["accepted"] == 1
        gauge = obs_metrics.registry().gauge("serve.drift.degraded_windows").value
        snapshot = drift.snapshot()
    finally:
        server.close()
        service.close()
    return {
        "feedback_pairs": DRIFT_FEEDBACK_PAIRS,
        "shift_factor": shift,
        "events": snapshot["events"],
        "degraded_windows": snapshot["degraded_windows"],
        "degraded_gauge": gauge,
        "median_q_error": max(
            (window["median_q_error"] for window in snapshot["windows"]),
            default=0.0,
        ),
    }


def _bucket_p99_from_metrics_text(text, metric):
    """Reconstruct p99 from the scraped Prometheus ``_bucket`` series."""
    buckets = []
    for line in text.splitlines():
        if not line.startswith(f"{metric}_bucket{{"):
            continue
        le_text = line.split('le="', 1)[1].split('"', 1)[0]
        bound = float("inf") if le_text == "+Inf" else float(le_text)
        buckets.append((bound, int(float(line.rsplit(" ", 1)[1]))))
    assert buckets, f"no {metric}_bucket series scraped from /metrics"
    buckets.sort(key=lambda pair: pair[0])
    count = buckets[-1][1]
    rank = max(1, math.ceil(0.99 * count))
    for bound, cumulative in buckets:
        if cumulative >= rank:
            return bound, count
    return buckets[-1][0], count


def _measure_histogram_fidelity(database, estimator, payloads, tmp_path):
    obs = _full_observability(tmp_path / "fidelity-obs")
    service, server = _serving_stack(database, estimator, obs=obs)
    registry = obs_metrics.registry()
    registry.reset()  # isolate this load from earlier phases
    try:
        report = run_load(
            server.address, payloads, clients=16, requests_per_client=48
        )
        assert report.failures == 0, report.as_dict()
        text = _get_text(server.address, "/metrics")
    finally:
        server.close()
        service.close()
    bucket_p99, scraped_count = _bucket_p99_from_metrics_text(
        text, "repro_serve_latency_seconds_estimate"
    )
    histogram = registry.histogram("serve.latency_seconds.estimate")
    samples = sorted(histogram.samples)
    raw_p99 = samples[min(len(samples) - 1, round(0.99 * (len(samples) - 1)))]
    bucket_p99 = min(bucket_p99, histogram.maximum)
    return {
        "requests": report.requests,
        "scraped_observations": scraped_count,
        "raw_p99_ms": raw_p99 * 1000.0,
        "bucketed_p99_ms": bucket_p99 * 1000.0,
        "ratio": bucket_p99 / raw_p99 if raw_p99 else float("inf"),
    }


def test_emit_serve_obs_report(context, tmp_path):
    database = context.database("stats")
    workload = context.workload("stats-ceb")
    estimator = context.fitted_estimator(ESTIMATOR, "stats-ceb")
    payloads = [
        {"sql": query_to_sql(labeled.query)} for labeled in workload.queries
    ]
    assert payloads

    overhead = _measure_overhead(database, estimator, payloads, tmp_path)

    shifted = _run_drift_scenario(
        database,
        estimator,
        payloads[0],
        tmp_path,
        shift=DRIFT_SHIFT_FACTOR,
        name="shifted",
    )
    control = _run_drift_scenario(
        database, estimator, payloads[0], tmp_path, shift=1.0, name="control"
    )

    fidelity = _measure_histogram_fidelity(database, estimator, payloads, tmp_path)

    report = {
        "estimator": ESTIMATOR,
        "workload_queries": len(payloads),
        "overhead": overhead,
        "drift": {"shifted": shifted, "control": control},
        "histogram_fidelity": fidelity,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nserve obs ({ESTIMATOR}): overhead "
        f"{overhead['added_us_per_request']:.0f}us/request "
        f"(parent {PARENT_ADDED_US:.0f}us), "
        f"{overhead['overhead_serve'] * 100:.2f}% "
        f"(baseline {overhead['baseline_seconds_per_request'] * 1000:.2f}ms, "
        f"traced {overhead['instrumented_seconds_per_request'] * 1000:.2f}ms); "
        f"drift shifted={shifted['events']} events "
        f"(gauge {shifted['degraded_gauge']:.0f}, "
        f"q50 {shifted['median_q_error']:.0f}) "
        f"control={control['events']} events; "
        f"p99 raw {fidelity['raw_p99_ms']:.2f}ms vs bucketed "
        f"{fidelity['bucketed_p99_ms']:.2f}ms ({fidelity['ratio']:.2f}x)"
    )

    # Contract 1: full tracing + drift bookkeeping adds no more per
    # request than it did at the parent commit, plus 20 %.
    assert (
        overhead["added_us_per_request"] <= PARENT_ADDED_US * MAX_ADDED_OVER_PARENT
    ), overhead
    # Contract 2: the injected shift trips the monitor (event + gauge),
    # the faithful control stays quiet.
    assert shifted["events"] >= 1, shifted
    assert shifted["degraded_windows"] >= 1, shifted
    assert shifted["degraded_gauge"] >= 1, shifted
    assert control["events"] == 0, control
    assert control["degraded_windows"] == 0, control
    # Contract 3: bucketed p99 within one factor-2 bucket boundary of
    # the raw-sample p99 (bucket bound >= the raw value it covers, and
    # at worst one bucket above the raw value's own bucket).
    assert fidelity["raw_p99_ms"] <= fidelity["bucketed_p99_ms"] * 1.0001, fidelity
    assert fidelity["bucketed_p99_ms"] <= fidelity["raw_p99_ms"] * 4.0, fidelity
