"""Benchmark: sub-plan result caching in exact labelling.

One measurement, written to ``benchmarks/BENCH_exec_cache.json``:
exact sub-plan labelling of the quick-mode STATS-CEB queries through
the shared-intermediate, cache-backed :class:`TrueCardinalityService`
versus the seed path (no execution context, every subset planned and
executed from base scans).  Labelling is correctness-only work, so the
caches are on by default there; counts are asserted bit-identical
between both passes and the cached pass must be at least **3x** faster.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.truecards import TrueCardinalityService
from repro.obs import metrics as obs_metrics

REPORT_PATH = Path(__file__).parent / "BENCH_exec_cache.json"


def _label_pass(service, queries):
    started = time.perf_counter()
    cards = [service.sub_plan_cards(labeled.query) for labeled in queries]
    return time.perf_counter() - started, cards


def test_emit_exec_cache_report(context):
    database = context.database("stats")
    queries = context.workload("stats-ceb").queries

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

    report = {
        "labelled_queries": len(queries),
        "seed_labelling_seconds": seed_label_seconds,
        "cached_labelling_seconds": cached_label_seconds,
        "labelling_speedup": labelling_speedup,
        "selection_cache_hits": counters.get("cache.selection.hits", 0),
        "selection_cache_misses": counters.get("cache.selection.misses", 0),
        "join_build_cache_hits": counters.get("cache.join_build.hits", 0),
        "join_build_cache_misses": counters.get("cache.join_build.misses", 0),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nlabelling: seed {seed_label_seconds:.2f}s, cached "
        f"{cached_label_seconds:.2f}s ({labelling_speedup:.1f}x)"
    )
    assert labelling_speedup >= 3.0
