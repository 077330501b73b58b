"""Benchmark: sub-plan result caching and multi-process evaluation.

Two measurements, written to ``benchmarks/BENCH_exec_cache.json``:

1. **Labelling speedup** — exact sub-plan labelling of the quick-mode
   STATS-CEB queries through the shared-intermediate, cache-backed
   :class:`TrueCardinalityService` versus the seed path (no execution
   context, every subset planned and executed from base scans).
   Labelling is correctness-only work, so the caches are on by default
   there; counts are asserted bit-identical between both passes.

2. **Workload-run speedup** — one full ``EndToEndBenchmark`` pass
   (PostgreSQL estimates) through the seed serial path (per-query
   subset-space re-enumeration, as before the shared
   :mod:`repro.engine.subsets` module) versus the current serial path
   and a 2-worker fork-parallel run.  The parallel numbers are
   recorded together with ``cpu_count`` but not gated: the serial pass
   takes ~0.4 s, which a fork pool's start-up cannot amortise.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.benchmark import EndToEndBenchmark
from repro.core.parallel import fork_available
from repro.core.truecards import TrueCardinalityService
from repro.engine import subsets as subsets_module
from repro.estimators.postgres import PostgresEstimator
from repro.obs import metrics as obs_metrics

REPORT_PATH = Path(__file__).parent / "BENCH_exec_cache.json"


def _label_pass(service, queries):
    started = time.perf_counter()
    cards = [service.sub_plan_cards(labeled.query) for labeled in queries]
    return time.perf_counter() - started, cards


def test_emit_exec_cache_report(context):
    database = context.database("stats")
    workload = context.workload("stats-ceb")
    queries = workload.queries

    # -- 1. labelling: seed path vs shared/cached path -----------------------
    seed_service = TrueCardinalityService(
        database, use_exec_cache=False, share_intermediates=False
    )
    cached_service = TrueCardinalityService(database)

    seed_label_seconds, seed_cards = _label_pass(seed_service, queries)
    obs_metrics.reset()
    cached_label_seconds, cached_cards = _label_pass(cached_service, queries)
    counters = obs_metrics.snapshot()["counters"]
    assert seed_cards == cached_cards, "caching must not change any count"
    labelling_speedup = seed_label_seconds / cached_label_seconds

    # -- 2. workload run: seed serial vs current serial vs 2-worker ----------
    estimator = PostgresEstimator().fit(database)
    bench = EndToEndBenchmark(database, workload)
    bench.run(estimator, queries=workload.queries[:2])  # warm-up

    def timed_run(**kwargs):
        started = time.perf_counter()
        run = bench.run(estimator, **kwargs)
        return time.perf_counter() - started, run

    # The seed path re-enumerated the subset space for every plan call;
    # clearing the shape memo before each query reproduces that cost.
    original_run_query = bench._run_query

    def seed_run_query(*args, **kwargs):
        subsets_module._space_cached.cache_clear()
        return original_run_query(*args, **kwargs)

    bench._run_query = seed_run_query
    seed_serial_seconds, seed_run = timed_run()
    bench._run_query = original_run_query

    serial_seconds, serial_run = timed_run()
    if fork_available():
        parallel_seconds, parallel_run = timed_run(workers=2)
    else:
        parallel_seconds, parallel_run = serial_seconds, serial_run

    for other in (serial_run, parallel_run):
        assert [r.result_cardinality for r in other.query_runs] == [
            r.result_cardinality for r in seed_run.query_runs
        ]
        assert [r.q_errors for r in other.query_runs] == [
            r.q_errors for r in seed_run.query_runs
        ]

    report = {
        "labelled_queries": len(queries),
        "seed_labelling_seconds": seed_label_seconds,
        "cached_labelling_seconds": cached_label_seconds,
        "labelling_speedup": labelling_speedup,
        "selection_cache_hits": counters.get("cache.selection.hits", 0),
        "selection_cache_misses": counters.get("cache.selection.misses", 0),
        "join_build_cache_hits": counters.get("cache.join_build.hits", 0),
        "join_build_cache_misses": counters.get("cache.join_build.misses", 0),
        "workload_queries": len(workload),
        "seed_serial_seconds": seed_serial_seconds,
        "serial_seconds": serial_seconds,
        "parallel_2worker_seconds": parallel_seconds,
        "parallel_vs_seed_serial_speedup": seed_serial_seconds / parallel_seconds,
        "parallel_vs_serial_speedup": serial_seconds / parallel_seconds,
        "cpu_count": os.cpu_count(),
        "fork_available": fork_available(),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nlabelling: seed {seed_label_seconds:.2f}s, cached "
        f"{cached_label_seconds:.2f}s ({labelling_speedup:.1f}x); "
        f"workload: seed serial {seed_serial_seconds:.2f}s, serial "
        f"{serial_seconds:.2f}s, 2-worker {parallel_seconds:.2f}s "
        f"(cpus={report['cpu_count']})"
    )
    # ``parallel_vs_serial_speedup`` is recorded, not gated: the serial
    # pass is ~0.4 s, too short to amortise fork start-up on any box.
    assert labelling_speedup >= 3.0
