"""Plan-quality blame: attribute P-Error / runtime gaps to sub-plan misestimates.

The paper's central argument (Section 7) is that an estimator must be
judged by the *plans its estimates induce*.  P-Error quantifies the
damage per query; this module holds the explanation.  A
:class:`QueryBlame` ranks every sub-plan of one (estimator, query) pair
by its est-vs-true cardinality ratio, so its top entry names the
worst-misestimated sub-plan — the mechanical form of the paper's
O1/O5-style observations ("the damage comes from underestimating large
intermediate joins").  :mod:`repro.experiments.blame` fills these
records by planning and executing queries; this module imports no
engine.

Per-campaign roll-ups aggregate the per-query attributions by sub-plan
(which table subsets an estimator keeps getting wrong) and by join
template (which query shapes suffer), so ``repro blame`` can answer
"where do this estimator's bad plans come from" directly from
benchmark artifacts.
"""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from pathlib import Path

BLAME_SCHEMA_VERSION = 1


@dataclass
class NodeAttribution:
    """One sub-plan's contribution to a query's plan-quality gap."""

    #: Sorted tables of the sub-plan.
    tables: tuple[str, ...]
    #: Estimator's cardinality for the sub-plan.
    estimated_rows: float
    #: True cardinality of the sub-plan.
    true_rows: float
    #: ``max(est/true, true/est)`` clamped to >= 1 — the Q-Error of
    #: this sub-plan, which is what the ranking sorts by.
    ratio: float
    #: ``under`` / ``over`` / ``exact`` relative to the truth.
    direction: str
    #: Operator chosen for this sub-plan in the estimate-induced plan
    #: (None when the sub-plan only appears in the true plan).
    method: str | None = None
    #: Whether the sub-plan is materialized by each plan.
    in_estimate_plan: bool = False
    in_true_plan: bool = False
    #: EXPLAIN ANALYZE facts for the node in the estimate-induced plan
    #: (None without instrumentation or when absent from that plan).
    actual_rows: int | None = None
    elapsed_seconds: float | None = None

    @property
    def log2_ratio(self) -> float:
        return math.log2(self.ratio) if self.ratio > 0 else 0.0

    def label(self) -> str:
        return " ⋈ ".join(self.tables)


@dataclass
class QueryBlame:
    """Full attribution for one (estimator, query) pair."""

    query_name: str
    estimator: str
    num_tables: int
    p_error: float
    #: True when the estimates changed the chosen plan at all.
    plans_differ: bool
    est_join_order: tuple = ()
    true_join_order: tuple = ()
    est_methods: list[str] = field(default_factory=list)
    true_methods: list[str] = field(default_factory=list)
    #: Wall time of the estimate-induced plan (EXPLAIN ANALYZE run).
    execution_seconds: float | None = None
    #: Wall time of the true-cardinality plan (runtime reference).
    true_execution_seconds: float | None = None
    aborted: bool = False
    #: Ranked worst-first by ``ratio``.
    attributions: list[NodeAttribution] = field(default_factory=list)

    @property
    def top(self) -> NodeAttribution | None:
        return self.attributions[0] if self.attributions else None

    @property
    def runtime_gap_seconds(self) -> float | None:
        """Extra wall time the estimate-induced plan cost (>= 0)."""
        if self.execution_seconds is None or self.true_execution_seconds is None:
            return None
        return max(0.0, self.execution_seconds - self.true_execution_seconds)


@dataclass
class BlameReport:
    """Per-estimator campaign attribution with roll-ups."""

    estimator: str
    workload: str
    queries: list[QueryBlame] = field(default_factory=list)

    def worst_queries(self, count: int = 5) -> list[QueryBlame]:
        """Queries ranked by P-Error (NaN last), worst first."""
        def key(blame: QueryBlame):
            p_error = blame.p_error
            return (-(p_error if math.isfinite(p_error) else -1.0), blame.query_name)

        return sorted(self.queries, key=key)[:count]

    def slowest_query(self) -> QueryBlame | None:
        """The query whose estimate-induced plan ran longest."""
        timed = [b for b in self.queries if b.execution_seconds is not None]
        if not timed:
            return None
        return max(timed, key=lambda b: b.execution_seconds)

    def rollup_by_subplan(self) -> list[dict]:
        """Which sub-plans this estimator keeps getting wrong.

        Aggregates every query's *top* attribution, so the list reads
        as "these table subsets caused the bad plans", ordered by how
        often each subset was the worst offender, then by severity.
        """
        groups: dict[tuple[str, ...], dict] = {}
        for blame in self.queries:
            top = blame.top
            if top is None or top.ratio <= 1.0:
                continue
            entry = groups.setdefault(
                top.tables,
                {
                    "tables": list(top.tables),
                    "times_top_offender": 0,
                    "max_ratio": 0.0,
                    "log2_ratios": [],
                    "runtime_gap_seconds": 0.0,
                    "queries": [],
                },
            )
            entry["times_top_offender"] += 1
            entry["max_ratio"] = max(entry["max_ratio"], top.ratio)
            entry["log2_ratios"].append(top.log2_ratio)
            gap = blame.runtime_gap_seconds
            if gap is not None:
                entry["runtime_gap_seconds"] += gap
            entry["queries"].append(blame.query_name)
        rollup = []
        for entry in groups.values():
            ratios = entry.pop("log2_ratios")
            entry["mean_log2_ratio"] = statistics.fmean(ratios) if ratios else 0.0
            rollup.append(entry)
        rollup.sort(
            key=lambda e: (-e["times_top_offender"], -e["max_ratio"], e["tables"])
        )
        return rollup

    def rollup_by_template(self) -> list[dict]:
        """Per join template (the query's joined table set) aggregates."""
        groups: dict[tuple[str, ...], list[QueryBlame]] = {}
        for blame in self.queries:
            template = tuple(sorted({t for a in blame.attributions for t in a.tables}))
            # The full query's table set is the attribution with every
            # table; fall back to it via the widest attribution.
            widest = max(
                (a.tables for a in blame.attributions), key=len, default=()
            )
            groups.setdefault(tuple(widest) or template, []).append(blame)
        rollup = []
        for template, blames in groups.items():
            p_errors = [
                b.p_error for b in blames if math.isfinite(b.p_error)
            ]
            top_tables = TallyCounter(
                b.top.tables for b in blames if b.top is not None
            )
            gaps = [g for b in blames if (g := b.runtime_gap_seconds) is not None]
            rollup.append(
                {
                    "template": list(template),
                    "num_tables": len(template),
                    "queries": len(blames),
                    "plans_differ": sum(1 for b in blames if b.plans_differ),
                    "median_p_error": (
                        statistics.median(p_errors) if p_errors else None
                    ),
                    "max_p_error": max(p_errors) if p_errors else None,
                    "runtime_gap_seconds": sum(gaps) if gaps else 0.0,
                    "worst_subplan": (
                        list(top_tables.most_common(1)[0][0]) if top_tables else None
                    ),
                }
            )
        rollup.sort(key=lambda e: (-(e["max_p_error"] or 0.0), e["template"]))
        return rollup


# -- (de)serialization --------------------------------------------------------


def _attribution_to_dict(attribution: NodeAttribution) -> dict:
    return {
        "tables": list(attribution.tables),
        "estimated_rows": attribution.estimated_rows,
        "true_rows": attribution.true_rows,
        "ratio": attribution.ratio,
        "direction": attribution.direction,
        "method": attribution.method,
        "in_estimate_plan": attribution.in_estimate_plan,
        "in_true_plan": attribution.in_true_plan,
        "actual_rows": attribution.actual_rows,
        "elapsed_seconds": attribution.elapsed_seconds,
    }


def _query_blame_to_dict(blame: QueryBlame) -> dict:
    return {
        "query": blame.query_name,
        "estimator": blame.estimator,
        "num_tables": blame.num_tables,
        "p_error": blame.p_error if math.isfinite(blame.p_error) else None,
        "plans_differ": blame.plans_differ,
        "est_join_order": _listify(blame.est_join_order),
        "true_join_order": _listify(blame.true_join_order),
        "est_methods": list(blame.est_methods),
        "true_methods": list(blame.true_methods),
        "execution_seconds": blame.execution_seconds,
        "true_execution_seconds": blame.true_execution_seconds,
        "runtime_gap_seconds": blame.runtime_gap_seconds,
        "aborted": blame.aborted,
        "attributions": [_attribution_to_dict(a) for a in blame.attributions],
    }


def report_to_dict(report: BlameReport) -> dict:
    return {
        "schema_version": BLAME_SCHEMA_VERSION,
        "estimator": report.estimator,
        "workload": report.workload,
        "queries": [_query_blame_to_dict(b) for b in report.queries],
        "rollup_by_subplan": report.rollup_by_subplan(),
        "rollup_by_template": report.rollup_by_template(),
    }


def write_blame_json(path: str | Path, report: BlameReport) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")
    return path


def load_blame_json(path: str | Path) -> dict:
    """Read a blame report, rejecting incompatible schema versions."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != BLAME_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: blame schema {version!r} is not supported "
            f"(expected {BLAME_SCHEMA_VERSION})"
        )
    return payload


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    return value


# -- text rendering -----------------------------------------------------------


def render_blame_report(report: BlameReport, top: int = 5) -> str:
    """Human-readable campaign attribution (the ``repro blame`` output)."""
    lines = [f"Blame report: {report.estimator} on {report.workload}"]
    finite = [b.p_error for b in report.queries if math.isfinite(b.p_error)]
    if finite:
        lines.append(
            f"  queries: {len(report.queries)}, median P-Error "
            f"{statistics.median(finite):.3f}, max {max(finite):.3f}"
        )
    differ = sum(1 for b in report.queries if b.plans_differ)
    lines.append(f"  plans changed by estimates: {differ}/{len(report.queries)}")

    lines.append("")
    lines.append(f"  Worst queries (by P-Error, top {top}):")
    for blame in report.worst_queries(top):
        offender = blame.top
        detail = ""
        if offender is not None:
            detail = (
                f"  <- {offender.label()} "
                f"({offender.direction}-estimated {offender.ratio:.1f}x: "
                f"est {offender.estimated_rows:.0f} vs true {offender.true_rows:.0f})"
            )
        gap = blame.runtime_gap_seconds
        gap_text = f", +{gap * 1000:.1f}ms vs true plan" if gap else ""
        lines.append(
            f"    {blame.query_name}: P-Error {blame.p_error:.3f}"
            f"{gap_text}{detail}"
        )

    subplans = report.rollup_by_subplan()
    if subplans:
        lines.append("")
        lines.append("  Repeat-offender sub-plans:")
        for entry in subplans[:top]:
            lines.append(
                f"    {' ⋈ '.join(entry['tables'])}: top offender in "
                f"{entry['times_top_offender']} queries, worst ratio "
                f"{entry['max_ratio']:.1f}x, mean 2^{entry['mean_log2_ratio']:.1f}"
            )

    templates = report.rollup_by_template()
    if templates:
        lines.append("")
        lines.append("  Join templates:")
        for entry in templates[:top]:
            median = entry["median_p_error"]
            median_text = f"{median:.3f}" if median is not None else "n/a"
            lines.append(
                f"    {' ⋈ '.join(entry['template'])}: {entry['queries']} queries, "
                f"median P-Error {median_text}, plans changed "
                f"{entry['plans_differ']}/{entry['queries']}"
            )
    return "\n".join(lines)
