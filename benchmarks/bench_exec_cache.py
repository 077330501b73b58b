"""Benchmark: exact labelling by message passing vs one plan per subset.

One measurement, written to ``benchmarks/BENCH_exec_cache.json``:
exact sub-plan labelling of the quick-mode STATS-CEB queries through
the cache-backed, message-passing :class:`TrueCardinalityService`
versus the seed path, :func:`repro.check.oracle.planned_sub_plan_cards`
(every connected subset planned and executed from base scans, no
cache).  Counts are asserted identical between both passes and the
service must be at least **3x** faster.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.check.oracle import planned_sub_plan_cards
from repro.core.truecards import TrueCardinalityService
from repro.obs import metrics as obs_metrics

REPORT_PATH = Path(__file__).parent / "BENCH_exec_cache.json"


def _label_pass(count, queries):
    started = time.perf_counter()
    cards = [count(labeled.query) for labeled in queries]
    return time.perf_counter() - started, cards


def test_emit_exec_cache_report(context):
    database = context.database("stats")
    queries = context.workload("stats-ceb").queries

    cached_service = TrueCardinalityService(database)

    seed_label_seconds, seed_cards = _label_pass(
        lambda query: planned_sub_plan_cards(database, query), queries
    )
    obs_metrics.reset()
    cached_label_seconds, cached_cards = _label_pass(cached_service.sub_plan_cards, queries)
    counters = obs_metrics.snapshot()["counters"]
    assert seed_cards == cached_cards, "message passing must not change any count"
    labelling_speedup = seed_label_seconds / cached_label_seconds

    report = {
        "labelled_queries": len(queries),
        "seed_labelling_seconds": seed_label_seconds,
        "cached_labelling_seconds": cached_label_seconds,
        "labelling_speedup": labelling_speedup,
        "selection_cache_hits": counters.get("cache.selection.hits", 0),
        "selection_cache_misses": counters.get("cache.selection.misses", 0),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nlabelling: seed {seed_label_seconds:.2f}s, cached "
        f"{cached_label_seconds:.2f}s ({labelling_speedup:.1f}x)"
    )
    assert labelling_speedup >= 3.0
