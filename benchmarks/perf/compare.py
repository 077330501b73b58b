"""``run.py --compare A.json [A2.json ...] -- B.json [B2.json ...]``.

Compares two sets of result files, one row per workload and end-to-end
metric: each side's median and quartiles, the change with its base, the
metric's bound, and a verdict.  ``regressed``: B's median is worse than
A's by more than the bound.  ``unresolved``: the spread between one
side's own runs is wider than the bound, so the data cannot tell (unless
every run of B reads better than every run of A).  Anything else is ``ok``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse = sign * (statistics.median(b) - base) / base
    if worse > bound:
        return "regressed"
    spread = max(
        (high - low) / median for low, median, high in (_quartiles(a), _quartiles(b))
    )
    b_always_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if spread > bound and not b_always_better:
        return "unresolved"
    return "ok"


def compare(a_paths: list[str], b_paths: list[str], spec: dict) -> int:
    """Print the table; the exit code is non-zero on a regression."""
    a_runs = [json.loads(Path(path).read_text()) for path in a_paths]
    b_runs = [json.loads(Path(path).read_text()) for path in b_paths]
    bad = False
    print(
        f"{'workload':<18} {'metric':<12} {'A q1/median/q3':>30} {'B q1/median/q3':>30} "
        f"{'B vs A':>16} {'bound':>6}  verdict"
    )
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["workloads"][workload]["end_to_end"][name]["value"] for run in a_runs]
            b = [run["workloads"][workload]["end_to_end"][name]["value"] for run in b_runs]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            base = statistics.median(a)
            change = (statistics.median(b) - base) / base
            print(
                f"{workload:<18} {name:<12} "
                f"{'/'.join(f'{v:.4g}' for v in _quartiles(a)):>30} "
                f"{'/'.join(f'{v:.4g}' for v in _quartiles(b)):>30} "
                f"{change:>+8.1%} of {base:<.4g} {metric['bound']:>5.0%}  {outcome}"
            )
            bad |= outcome == "regressed"
        a_failed = max(run["workloads"][workload]["failed_share"] for run in a_runs)
        b_failed = max(run["workloads"][workload]["failed_share"] for run in b_runs)
        outcome = "regressed" if b_failed > a_failed else "ok"
        print(
            f"{workload:<18} {'failed_share':<12} {a_failed:>30.6f} {b_failed:>30.6f} "
            f"{'':>16} {'any':>6}  {outcome}"
        )
        bad |= outcome == "regressed"
    return 1 if bad else 0
