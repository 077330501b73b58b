"""Benchmark: DP planning throughput on STATS-CEB.

One measurement, written to ``benchmarks/BENCH_plan.json``: every
quick-mode STATS-CEB query planned under its stored true cardinalities,
once by the scalar reference DP
(:class:`repro.check.reference_planner.ReferencePlanner`) and once by
the production planner (vectorised level scoring).  Reported as
sub-plans costed per second.

Two gates:

1. **Bit-identity** — both must return the *exact* same
   ``(plan, estimated_cost)`` pair for every query (no tolerance; the
   planner re-evaluates the scalar expression trees elementwise and
   breaks ties with the same codified
   ``(cost, method_rank, left_mask)`` order).
2. **Throughput** — the planner must clear **2x** the reference on
   this STATS-CEB-shaped workload.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro.check.reference_planner import ReferencePlanner
from repro.engine.planner import Planner

REPORT_PATH = Path(__file__).parent / "BENCH_plan.json"

#: Timing passes per planner; the best (lowest) time is kept.
REPEATS = 3
#: The planner must beat the scalar reference by this factor.
REQUIRED_SPEEDUP = 2.0


def _best_of(passes, fn):
    best = math.inf
    result = None
    for _ in range(passes):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_emit_plan_report(context):
    workload = context.workload("stats-ceb")
    database = context.database("stats")
    with_cards = [
        (
            labeled.query,
            {s: float(c) for s, c in labeled.sub_plan_true_cards.items()},
        )
        for labeled in workload.queries
    ]
    num_sub_plans = sum(len(cards) for _, cards in with_cards)
    assert num_sub_plans > 0

    scalar_planner = ReferencePlanner(database)
    vector_planner = Planner(database)

    def sweep(planner):
        return [planner.plan(query, cards) for query, cards in with_cards]

    # Warm-up: primes the per-shape space memo both share (and the
    # planner's numpy level templates).
    sweep(scalar_planner)
    sweep(vector_planner)

    scalar_seconds, scalar_plans = _best_of(
        REPEATS, lambda: sweep(scalar_planner)
    )
    vector_seconds, vector_plans = _best_of(
        REPEATS, lambda: sweep(vector_planner)
    )

    # Gate 1: bit-identical (plan, estimated_cost) on every query.
    mismatches = [
        s.query.name
        for s, v in zip(scalar_plans, vector_plans)
        if float(s.estimated_cost) != float(v.estimated_cost) or s.plan != v.plan
    ]
    assert mismatches == [], mismatches

    speedup = scalar_seconds / vector_seconds
    report = {
        "workload_queries": len(workload),
        "sub_plans": num_sub_plans,
        "scalar_seconds": scalar_seconds,
        "vectorised_seconds": vector_seconds,
        "scalar_subplans_per_second": num_sub_plans / scalar_seconds,
        "vectorised_subplans_per_second": num_sub_plans / vector_seconds,
        "vectorised_speedup": speedup,
        "bit_identical_queries": len(with_cards),
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"\nplanning ({len(with_cards)} queries, {num_sub_plans} sub-plans): "
        f"scalar {report['scalar_subplans_per_second']:.0f}/s, "
        f"vectorised {report['vectorised_subplans_per_second']:.0f}/s "
        f"({speedup:.2f}x, bit-identical)"
    )

    # Gate 2: the tentpole's throughput floor.
    assert speedup >= REQUIRED_SPEEDUP, speedup
