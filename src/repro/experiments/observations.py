"""The paper's fourteen observations (O1-O14) as executable checks.

Each check reads the cached evaluation campaign, evaluates the
observation's claim on this reproduction's measurements, and returns
an :class:`ObservationResult` with the evidence — so the repository
can state precisely which of the paper's findings reproduce, rather
than leaving it to visual table inspection.

This module is the only place an observation's criterion is defined:
:data:`CHECKS` lists one check per observation, :func:`run` reports
them all, and ``benchmarks/bench_observations.py`` asserts them.

Run via ``python -m repro.experiments.runner --experiment observations``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.benchmark import abort_penalties
from repro.core.metrics import percentiles, rank_correlation
from repro.core.workload_split import split_query_names, split_times
from repro.experiments.context import ExperimentContext
from repro.experiments.table4 import BUCKETS, bucket_times

PGM_METHODS = ("BayesCard", "DeepDB", "FLAT")


@dataclass
class ObservationResult:
    """Outcome of checking one paper observation."""

    identifier: str
    claim: str
    holds: bool
    evidence: str

    def render(self) -> str:
        status = "REPRODUCED" if self.holds else "DEVIATES"
        return f"{self.identifier} [{status}] {self.claim}\n    {self.evidence}"


def _execution(records, name, penalties):
    return records[name].run.total_execution_seconds(penalties)


def _inference_per_subplan(record) -> float:
    runs = record.run.query_runs
    subplans = sum(len(r.q_errors) for r in runs)
    return sum(r.inference_seconds for r in runs) / max(subplans, 1)


def check_o1(context: ExperimentContext) -> ObservationResult:
    """Data-driven PGMs improve over PostgreSQL; most others do not."""
    records = context.evaluate_all(
        "stats-ceb", ("TrueCard", "PostgreSQL", "UniSample", "WJSample", *PGM_METHODS)
    )
    penalties = abort_penalties(records["TrueCard"].run)
    postgres = _execution(records, "PostgreSQL", penalties)
    pgm_ok = all(
        _execution(records, m, penalties) < postgres for m in PGM_METHODS
    )
    weak_bad = all(
        _execution(records, m, penalties) > postgres
        for m in ("UniSample", "WJSample")
    )
    evidence = ", ".join(
        f"{m}={_execution(records, m, penalties):.2f}s"
        for m in ("PostgreSQL", *PGM_METHODS, "UniSample", "WJSample")
    )
    return ObservationResult(
        "O1",
        "PGM data-driven methods beat PostgreSQL; histogram/sampling methods do not",
        pgm_ok and weak_bad,
        evidence,
    )


def check_o2(context: ExperimentContext) -> ObservationResult:
    """Method differences are drastic on STATS, negligible on JOB-LIGHT."""
    spreads = {}
    for workload in ("job-light", "stats-ceb"):
        records = context.evaluate_all(
            workload, ("TrueCard", "PostgreSQL", *PGM_METHODS, "NeuroCard")
        )
        penalties = abort_penalties(records["TrueCard"].run)
        times = [
            _execution(records, m, penalties)
            for m in ("PostgreSQL", *PGM_METHODS, "NeuroCard")
        ]
        spreads[workload] = max(times) / min(times)
    return ObservationResult(
        "O2",
        "execution-time spread across methods is larger on STATS-CEB than JOB-LIGHT",
        spreads["stats-ceb"] > spreads["job-light"],
        f"max/min execution spread: job-light {spreads['job-light']:.2f}x, "
        f"stats-ceb {spreads['stats-ceb']:.2f}x",
    )


def check_o3(context: ExperimentContext) -> ObservationResult:
    """One model on the full outer join (NeuroCard) scales poorly on STATS."""
    records = context.evaluate_all(
        "stats-ceb", ("TrueCard", "PostgreSQL", "NeuroCard", *PGM_METHODS)
    )
    penalties = abort_penalties(records["TrueCard"].run)
    neurocard = _execution(records, "NeuroCard", penalties)
    postgres = _execution(records, "PostgreSQL", penalties)
    divide_and_conquer = max(
        _execution(records, m, penalties) for m in PGM_METHODS
    )
    return ObservationResult(
        "O3",
        "NeuroCard (full-join model) loses its advantage on STATS while the "
        "divide-and-conquer models keep theirs",
        neurocard >= postgres and divide_and_conquer < postgres,
        f"NeuroCard {neurocard:.2f}s vs PostgreSQL {postgres:.2f}s vs "
        f"worst PGM {divide_and_conquer:.2f}s",
    )


def check_o4(context: ExperimentContext) -> ObservationResult:
    """The gap to TrueCard widens with the number of joined tables."""
    records = context.evaluate_all("stats-ceb", ("TrueCard", "PostgreSQL"))
    penalties = abort_penalties(records["TrueCard"].run)
    postgres = bucket_times(records["PostgreSQL"].run, penalties)
    truecard = bucket_times(records["TrueCard"].run, penalties)

    def improvement(bucket):
        return 1.0 - truecard[bucket] / postgres[bucket] if postgres[bucket] else 0.0

    small = improvement(BUCKETS[0])
    large = max(improvement(BUCKETS[-1]), improvement(BUCKETS[-2]))
    return ObservationResult(
        "O4",
        "TrueCard's advantage over PostgreSQL grows with the join count",
        large >= small,
        f"improvement at 2-3 tables {small:+.1%}, at 5+/6-8 tables {large:+.1%}",
    )


def check_o5(context: ExperimentContext) -> ObservationResult:
    """Large-cardinality queries dominate overall runtime."""
    records = context.evaluate_all("stats-ceb", ("TrueCard",))
    runs = sorted(
        records["TrueCard"].run.query_runs, key=lambda r: -r.execution_seconds
    )
    total = sum(r.execution_seconds for r in runs)
    top_decile = sum(r.execution_seconds for r in runs[: max(len(runs) // 10, 1)])
    share = top_decile / total if total else 0.0
    return ObservationResult(
        "O5",
        "the slowest 10% of queries take far more than their proportional "
        "share of execution time (large-cardinality queries dominate)",
        share > 0.3,
        f"top-10% queries account for {share:.0%} of TrueCard execution time",
    )


def check_o6(context: ExperimentContext) -> ObservationResult:
    """Operator choice can matter more than join order."""
    records = context.evaluate_all("stats-ceb", ("TrueCard", *PGM_METHODS))

    def completed(run):
        # A failed run has no plan and no time; an aborted one was cut at
        # the budget.  Neither measured a join order's execution.
        return not (run.failed or run.aborted)

    truecard = {
        r.query_name: r for r in records["TrueCard"].run.query_runs if completed(r)
    }
    # The paper's Q57 lesson, direction one: a *sub-optimal join order*
    # can run essentially as fast as the optimal plan (order matters
    # less than operators on such queries).
    witnesses = []
    for method in PGM_METHODS:
        for run in records[method].run.query_runs:
            reference = truecard.get(run.query_name)
            if reference is None or not completed(run):
                continue
            different_order = run.join_order != reference.join_order
            near_optimal = (
                run.execution_seconds <= reference.execution_seconds * 1.15
            )
            non_trivial = reference.execution_seconds > 0.05
            if different_order and near_optimal and non_trivial:
                witnesses.append((method, run.query_name))
    return ObservationResult(
        "O6",
        "a sub-optimal join order can execute within a few percent of the "
        "optimal plan (operator choice, not order, decides such queries)",
        bool(witnesses),
        f"witnesses (method, query): {witnesses[:3]}" if witnesses else "no witness found",
    )


def check_o7(context: ExperimentContext) -> ObservationResult:
    """Inference latency matters on TP, not on AP."""
    records = context.evaluate_all("stats-ceb", ("TrueCard", *PGM_METHODS))
    tp_names, _ = split_query_names(records["TrueCard"].run, quantile=0.75)
    holds = True
    shares = []
    for method in PGM_METHODS:
        aggregate = split_times(records[method].run, tp_names)
        holds &= aggregate.tp_planning_share >= aggregate.ap_planning_share
        shares.append(
            f"{method} TP {aggregate.tp_planning_share:.0%}/AP {aggregate.ap_planning_share:.0%}"
        )
    return ObservationResult(
        "O7",
        "planning-time share is larger on the OLTP half than the OLAP half",
        holds,
        "; ".join(shares),
    )


def check_o8(context: ExperimentContext) -> ObservationResult:
    """BayesCard is the friendliest data-driven model to deploy."""
    records = context.evaluate_all("stats-ceb", PGM_METHODS)
    bayescard = records["BayesCard"]
    others = ("DeepDB", "FLAT")
    trains_faster = all(
        bayescard.training_seconds < records[m].training_seconds for m in others
    )
    infers_faster = all(
        _inference_per_subplan(bayescard) < _inference_per_subplan(records[m])
        for m in others
    )
    return ObservationResult(
        "O8",
        "BayesCard trains much faster than the SPN/FSPN methods and infers "
        "fastest of the PGMs",
        trains_faster and infers_faster,
        ", ".join(
            f"{m} {records[m].training_seconds:.2f}s train, "
            f"{_inference_per_subplan(records[m]) * 1000:.3f}ms/sub-plan"
            for m in PGM_METHODS
        ),
    )


def check_o9(context: ExperimentContext) -> ObservationResult:
    """Query-driven methods cannot incrementally update."""
    from repro.estimators.queryd import LWNNEstimator, MSCNEstimator

    holds = not MSCNEstimator().supports_update and not LWNNEstimator().supports_update
    return ObservationResult(
        "O9",
        "query-driven methods have no incremental update path",
        holds,
        "MSCN.supports_update and LW-NN.supports_update are both False",
    )


def check_o10(context: ExperimentContext) -> ObservationResult:
    """Data-driven methods can keep up with data updates."""
    from repro.core.update_bench import run_update_experiment
    from repro.datasets.stats_db import StatsConfig, build_stats

    workload = context.workload("stats-ceb")
    results = {}
    for method in PGM_METHODS:
        # The update experiment mutates the database; build a fresh one.
        database = build_stats(StatsConfig().scaled(context.config.scale))
        results[method] = run_update_experiment(
            database, workload, context.make_estimator(method)
        )
    bayescard = results["BayesCard"]
    p90 = percentiles(bayescard.run_after_update.all_p_errors())[90]
    fast = bayescard.update_seconds < bayescard.training_seconds * 10
    # Usable: the updated model's plans abort on at most a quarter of
    # the workload.
    aborted = {m: r.run_after_update.aborted_count for m, r in results.items()}
    usable = all(
        aborted[m] <= len(r.run_after_update.query_runs) // 4
        for m, r in results.items()
    )
    return ObservationResult(
        "O10",
        "BayesCard absorbs a bulk insert quickly and stays accurate; every "
        "updated PGM stays usable",
        fast and p90 < 10.0 and usable,
        f"BayesCard update {bayescard.update_seconds:.2f}s; post-update P-Error "
        f"p90 {p90:.2f}; aborted after update of {len(workload)}: "
        + ", ".join(f"{m} {count}" for m, count in aborted.items()),
    )


def check_o11(context: ExperimentContext) -> ObservationResult:
    """Q-Error does not rank methods by execution time."""
    records = context.evaluate_all(
        "stats-ceb",
        ("TrueCard", "PostgreSQL", "WJSample", "PessEst", *PGM_METHODS),
    )
    penalties = abort_penalties(records["TrueCard"].run)
    # The paper's style of witness: a method with far worse Q-Errors
    # than another yet equal-or-better execution time.
    witnesses = []
    names = [n for n in records if n != "TrueCard"]
    for a in names:
        for b in names:
            if a == b:
                continue
            qa = percentiles(records[a].run.all_q_errors())[90]
            qb = percentiles(records[b].run.all_q_errors())[90]
            if qa > 10 * qb and _execution(records, a, penalties) <= 1.3 * _execution(
                records, b, penalties
            ):
                witnesses.append((a, b))
    return ObservationResult(
        "O11",
        "methods with 10x worse Q-Error can still execute about as fast",
        bool(witnesses),
        f"witness pairs (10x worse Q-Error, <=1.3x time): {witnesses[:3]}",
    )


def check_o12_o13(context: ExperimentContext) -> ObservationResult:
    """Q-Error is blind to magnitude and to the estimation side."""
    from repro.core.metrics import q_error

    magnitude_blind = q_error(1, 10) == q_error(1e11, 1e12)
    side_blind = q_error(1e9, 1e10) == q_error(1e11, 1e10)
    return ObservationResult(
        "O12/O13",
        "Q-Error cannot distinguish small from large mistakes nor under- from "
        "over-estimation",
        magnitude_blind and side_blind,
        "q_error(1,10)==q_error(1e11,1e12) and q_error(1e9,1e10)==q_error(1e11,1e10)",
    )


def check_o14(context: ExperimentContext) -> ObservationResult:
    """P-Error correlates with execution time better than Q-Error."""
    records = context.evaluate_all("stats-ceb")
    penalties = abort_penalties(records["TrueCard"].run)
    names = [n for n in records if n != "TrueCard"]
    times = [_execution(records, n, penalties) for n in names]
    q90 = [percentiles(records[n].run.all_q_errors())[90] for n in names]
    p90 = [percentiles(records[n].run.all_p_errors())[90] for n in names]
    q_corr = rank_correlation(q90, times)
    p_corr = rank_correlation(p90, times)
    return ObservationResult(
        "O14",
        "P-Error's correlation with execution time exceeds Q-Error's",
        bool(np.isfinite(p_corr)) and p_corr >= q_corr,
        f"rank correlation vs execution time: Q-Error {q_corr:+.3f}, P-Error {p_corr:+.3f}",
    )


#: One check per observation, in paper order.
CHECKS = (
    check_o1,
    check_o2,
    check_o3,
    check_o4,
    check_o5,
    check_o6,
    check_o7,
    check_o8,
    check_o9,
    check_o10,
    check_o11,
    check_o12_o13,
    check_o14,
)


def run(context: ExperimentContext) -> str:
    """Evaluate every observation and render the findings report."""
    results = [check(context) for check in CHECKS]
    reproduced = sum(result.holds for result in results)
    lines = [f"Observations report: {reproduced}/{len(results)} reproduced", ""]
    lines.extend(result.render() for result in results)
    return "\n".join(lines)


if __name__ == "__main__":
    print(run(ExperimentContext()))
