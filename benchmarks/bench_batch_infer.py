"""Benchmark: batched sub-plan inference.

One measurement, written to ``benchmarks/BENCH_batch_infer.json``:
every sub-plan of the quick-mode STATS-CEB workload priced per parent
query, once through the serial per-sub-plan ``estimate`` loop and once
through one ``estimate_batch`` call per query (the injection hot path's
shape).  Reported as sub-plans priced per second, per estimator family.
The vectorised families (LW-NN, MSCN, LW-XGB — one stacked forward pass
instead of one per sub-plan) must clear **2x** the serial loop; the
memoized arithmetic families (PostgreSQL, MultiHist) and PessEst are
recorded without a floor.  Both passes must agree to 1e-9 relative.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

from repro.core.injection import sub_plan_queries

REPORT_PATH = Path(__file__).parent / "BENCH_batch_infer.json"

#: Families whose ``estimate_batch`` is truly vectorised — one stacked
#: model pass per batch — and must therefore beat the loop by >= 2x.
VECTORISED_FAMILIES = ("LW-NN", "MSCN", "LW-XGB")
#: Families with memoized per-sub-plan arithmetic: measured and
#: reported, but cheap enough that batching is not required to win.
ARITHMETIC_FAMILIES = ("PostgreSQL", "MultiHist", "PessEst")
#: Timing passes per family; the best (lowest) time is kept.
REPEATS = 3


def _best_of(passes, fn):
    best = math.inf
    result = None
    for _ in range(passes):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_emit_batch_infer_report(context):
    workload = context.workload("stats-ceb")
    batches = [
        list(sub_plan_queries(labeled.query).values())
        for labeled in workload.queries
    ]
    num_sub_plans = sum(len(batch) for batch in batches)
    assert num_sub_plans > 0

    families = {}
    for name in VECTORISED_FAMILIES + ARITHMETIC_FAMILIES:
        estimator = context.fitted_estimator(name, "stats-ceb")
        estimator.estimate_batch(batches[0])  # warm-up (lazy init)

        serial_seconds, looped = _best_of(
            REPEATS,
            lambda est=estimator: [
                [float(est.estimate(query)) for query in batch]
                for batch in batches
            ],
        )
        batched_seconds, batched = _best_of(
            REPEATS,
            lambda est=estimator: [
                est.estimate_batch(batch) for batch in batches
            ],
        )
        for loop_batch, batch_batch in zip(looped, batched):
            assert len(loop_batch) == len(batch_batch)
            for loop_value, batch_value in zip(loop_batch, batch_batch):
                assert math.isclose(
                    loop_value,
                    float(batch_value),
                    rel_tol=1e-9,
                    abs_tol=1e-12,
                ), name

        families[name] = {
            "serial_seconds": serial_seconds,
            "batched_seconds": batched_seconds,
            "serial_subplans_per_second": num_sub_plans / serial_seconds,
            "batched_subplans_per_second": num_sub_plans / batched_seconds,
            "batched_speedup": serial_seconds / batched_seconds,
        }

    report = {
        "workload_queries": len(workload),
        "sub_plans": num_sub_plans,
        "families": families,
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(
        "\nbatched pricing ({} sub-plans): ".format(num_sub_plans)
        + "; ".join(
            f"{name} {numbers['batched_speedup']:.1f}x "
            f"({numbers['batched_subplans_per_second']:.0f}/s)"
            for name, numbers in families.items()
        )
    )
    for name in VECTORISED_FAMILIES:
        assert families[name]["batched_speedup"] >= 2.0, (
            name,
            families[name]["batched_speedup"],
        )
