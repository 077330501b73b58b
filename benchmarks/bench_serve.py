"""Benchmark: the estimation service under concurrent HTTP load.

A live ``repro serve`` stack — :class:`EstimationService` behind the
routed stdlib HTTP server — is driven by the closed-loop load
generator at 1, 8 and 64 concurrent clients, plus a hot-swap run where
``/admin/promote`` fires mid-load.  Written to
``benchmarks/BENCH_serve.json``:

- per client count: QPS, p50/p95/p99 latency, failure counts;
- the hot-swap run: zero dropped requests while the active model
  version advances under load.

Every request in every run must succeed (zero non-200s) — admission
control exists for overload, and these loads are sized within the
queue bounds.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from pathlib import Path

from repro.engine.sql import query_to_sql
from repro.estimators.persistence import save_estimator
from repro.serve.app import build_server
from repro.serve.loadgen import run_load
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService

REPORT_PATH = Path(__file__).parent / "BENCH_serve.json"

ESTIMATOR = "LW-XGB"
CLIENT_COUNTS = (1, 8, 64)
#: Total requests per run, split across the clients.
REQUESTS_PER_RUN = 1024


def _summary(report) -> dict:
    """The report without its per-request samples (1 024 per run)."""
    summary = report.as_dict()
    del summary["samples"]
    return summary


def _serving_stack(database, estimator):
    registry = ModelRegistry()
    registry.promote(estimator, source=f"trained:{ESTIMATOR}")
    service = EstimationService(
        database,
        registry=registry,
        max_queue=1024,
    ).start()
    server = build_server(service, "127.0.0.1:0")
    server.start()
    return service, server


def _measure_clients(database, estimator, payloads):
    """One serving process, loaded at each client count in turn."""
    service, server = _serving_stack(database, estimator)
    try:
        # Warm up: fill the parse cache and touch the inference path.
        run_load(server.address, payloads, clients=4, requests_per_client=16)
        runs = {}
        for clients in CLIENT_COUNTS:
            report = run_load(
                server.address,
                payloads,
                clients=clients,
                requests_per_client=max(1, REQUESTS_PER_RUN // clients),
            )
            assert report.failures == 0, (clients, report.as_dict())
            runs[clients] = _summary(report)
    finally:
        server.close()
        service.close()
    return runs


def _measure_hot_swap(database, estimator, payloads, model_path):
    """64-client load while ``/admin/promote`` fires repeatedly."""
    service, server = _serving_stack(database, estimator)
    try:
        host, port = server.address
        stop = threading.Event()
        promotions = []

        def promoter():
            url = f"http://{host}:{port}/admin/promote"
            body = json.dumps({"path": str(model_path)}).encode()
            while not stop.is_set():
                request = urllib.request.Request(
                    url, data=body, headers={"Content-Type": "application/json"}
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    assert response.status == 200
                    promotions.append(
                        json.loads(response.read())["promoted"]["version"]
                    )
                time.sleep(0.05)

        thread = threading.Thread(target=promoter)
        thread.start()
        try:
            report = run_load(
                server.address, payloads, clients=64, requests_per_client=16
            )
        finally:
            stop.set()
            thread.join(timeout=30.0)
        final_version = service.registry.get().version
    finally:
        server.close()
        service.close()
    assert report.failures == 0, report.as_dict()
    assert len(promotions) >= 2, "load finished before a promotion landed"
    assert final_version == 1 + len(promotions)
    return {
        "load": _summary(report),
        "promotions": len(promotions),
        "final_version": final_version,
    }


def test_emit_serve_report(context, tmp_path):
    database = context.database("stats")
    workload = context.workload("stats-ceb")
    estimator = context.fitted_estimator(ESTIMATOR, "stats-ceb")
    payloads = [
        {"sql": query_to_sql(labeled.query)} for labeled in workload.queries
    ]
    assert payloads
    model_path = tmp_path / "serve-model.bin"
    save_estimator(estimator, model_path)

    runs = _measure_clients(database, estimator, payloads)
    hot_swap = _measure_hot_swap(database, estimator, payloads, model_path)

    report = {
        "estimator": ESTIMATOR,
        "workload_queries": len(payloads),
        "clients": {str(c): runs[c] for c in CLIENT_COUNTS},
        "hot_swap": hot_swap,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        "\nserve ({}): ".format(ESTIMATOR)
        + "; ".join(
            f"{clients}c {runs[clients]['qps']:.0f}/s "
            f"p99={runs[clients]['p99_ms']:.1f}ms"
            for clients in CLIENT_COUNTS
        )
        + f"; hot-swap {hot_swap['promotions']} promotions, 0 drops"
    )
