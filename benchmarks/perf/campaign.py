"""The two campaign workloads: plan-inject-execute over a labelled pool.

An op is one (estimator, query) pair run through
``EndToEndBenchmark.run``, the paper's Table 3 pipeline.  A repetition is
the whole panel over the whole pool, so every repetition does the same
work and repetitions can be compared.

The timed pass only observes the harness from outside: per-op latency is
the interval between successive query completions seen through the
``checkpoint=`` hook, so harness cost is part of it.  The traced pass
drives the same pipeline itself, layer by layer, under the benchmark's
span recorder; what the harness adds on top is the difference of the two.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import inputs
from spans import Round, SpanRecorder, self_times, write_jsonl

from repro.core.benchmark import EndToEndBenchmark, EstimatorRun
from repro.core.injection import sub_plan_queries
from repro.core.metrics import p_error
from repro.engine.executor import ExecutionAborted, Executor
from repro.engine.plans import JoinNode
from repro.workloads.generator import Workload

#: One estimator per family and cost profile.  LW-XGB, the query-driven
#: one, is measured by the serving workloads: its training labels and fit
#: would double this workload's set-up.
PANEL = ("PostgreSQL", "BayesCard", "DeepDB", "PessEst")
OPERATORS = ("seq_scan", "index_scan", "hash_join", "merge_join", "index_nl_join")
#: Benchmark span around a call into a layer -> the metric of its seconds.
LAYER_METRIC = {
    "injection.enumerate": "injection.enumerate_s",
    "executor.execute": "executor.exec_s",
    "metrics.p_error": "metrics.p_error_s",
}


@dataclass
class CampaignInputs:
    database: object
    workload: Workload
    estimators: dict

    def close(self) -> None:
        pass


@dataclass
class Repetition:
    wall: float
    latencies: list[float]
    runs: dict[str, EstimatorRun]


@dataclass
class TimedPass:
    """Whole repetitions of a workload (shared with the labelling workload)."""

    repetitions: list = field(default_factory=list)

    @property
    def rounds(self) -> list[Round]:
        return [Round(len(rep.latencies), rep.wall, rep.latencies) for rep in self.repetitions]


def repeat_for(seconds: float, repetition) -> TimedPass:
    """One discarded warm-up repetition, then whole ones until time is up."""
    repetition()
    result = TimedPass()
    deadline = time.perf_counter() + seconds
    while not result.repetitions or time.perf_counter() < deadline:
        result.repetitions.append(repetition())
    return result


class CompletionClock:
    """A ``checkpoint=`` stand-in that only notes when each query completes."""

    def __init__(self):
        self.times: list[float] = []

    def get(self, estimator_name: str, query_name: str):
        return None

    def append(self, estimator_name: str, run) -> None:
        self.times.append(time.perf_counter())


class Campaign:
    def __init__(self, database: str, pool: str):
        self.database_name = database
        self.pool = pool

    # -- set-up ------------------------------------------------------------

    def setup(self, seed: int, clock: inputs.SetupClock) -> CampaignInputs:
        database = inputs.build_database(self.database_name, clock)
        workload = inputs.label_pool(database, self.pool, seed, clock, asset="workloads.label_cold_s")
        panel = list(PANEL)
        random.Random(seed).shuffle(panel)
        estimators = {name: inputs.fit_estimator(name, database, clock) for name in panel}
        return CampaignInputs(database, workload, estimators)

    def setup_layers(self, built: CampaignInputs) -> dict[str, float]:
        return {
            f"estimators.model_bytes.{name}": float(estimator.model_size_bytes())
            for name, estimator in built.estimators.items()
        }

    # -- timed pass --------------------------------------------------------

    def _repetition(self, bench: EndToEndBenchmark, built: CampaignInputs) -> Repetition:
        latencies: list[float] = []
        runs = {}
        started = time.perf_counter()
        for name, estimator in built.estimators.items():
            clock = CompletionClock()
            previous = time.perf_counter()
            runs[name] = bench.run(estimator, checkpoint=clock)
            for completed in clock.times:
                latencies.append(completed - previous)
                previous = completed
        return Repetition(time.perf_counter() - started, latencies, runs)

    def timed(self, built: CampaignInputs, seconds: float) -> TimedPass:
        bench = EndToEndBenchmark(built.database, built.workload)
        return repeat_for(seconds, lambda: self._repetition(bench, built))

    # -- correctness -------------------------------------------------------

    def verify(self, built: CampaignInputs, timed: TimedPass):
        """(attempted, failed, problems) over every op of the timed pass."""
        problems = verify_labels(built.database, built.workload, self.pool)
        expected_ops = len(PANEL) * inputs.golden()["queries"][self.pool]
        problems.extend(
            f"repetition ran {len(rep.latencies)} ops, expected {expected_ops}"
            for rep in timed.repetitions
            if len(rep.latencies) != expected_ops
        )
        truth = {q.query.name: q.true_cardinality for q in built.workload.queries}
        attempted = 0
        reference: dict[tuple[str, str], tuple] = {}
        for rep in timed.repetitions:
            for name, run in rep.runs.items():
                for query_run in run.query_runs:
                    attempted += 1
                    key = (name, query_run.query_name)
                    signature = (
                        query_run.aborted,
                        query_run.join_order,
                        tuple(query_run.methods),
                    )
                    wrong = None
                    if query_run.failed:
                        wrong = f"failed: {query_run.error}"
                    elif (
                        not query_run.aborted
                        and query_run.result_cardinality != truth[query_run.query_name]
                    ):
                        wrong = (
                            f"returned {query_run.result_cardinality} rows, "
                            f"label says {truth[query_run.query_name]}"
                        )
                    elif reference.setdefault(key, signature) != signature:
                        wrong = "plan differs between repetitions"
                    if wrong:
                        problems.append(f"{name}/{query_run.query_name} {wrong}")
        return attempted, len(problems), problems

    # -- traced pass -------------------------------------------------------

    def _pipeline_repetition(
        self, built: CampaignInputs, bench: EndToEndBenchmark, executor: Executor,
        recorder: SpanRecorder, rep: int,
    ) -> float:
        """Drive the pipeline ourselves, one span per call into a layer."""
        planner = bench.planner
        started = time.perf_counter()
        for name, estimator in built.estimators.items():
            for labeled in built.workload.queries:
                query = labeled.query
                true_cards = {
                    subset: float(count)
                    for subset, count in labeled.sub_plan_true_cards.items()
                }
                with recorder.span(
                    "op", op=f"{rep}/{name}/{query.name}", rep=rep, estimator=name
                ):
                    with recorder.span("injection.enumerate"):
                        sub_queries = sub_plan_queries(query)
                    with recorder.span("estimators.infer", sub_plans=len(sub_queries)):
                        estimates = estimator.estimate_batch(list(sub_queries.values()))
                    cards = {
                        subset: max(1.0, float(estimate))
                        for subset, estimate in zip(sub_queries, estimates)
                    }
                    with recorder.span("planner.plan", sub_plans=len(cards)):
                        planned = planner.plan(query, cards)
                    with recorder.span("executor.execute") as span:
                        try:
                            result = executor.execute(
                                planned.plan, collect_stats=recorder.enabled
                            )
                        except ExecutionAborted:
                            result = None
                            if span is not None:
                                span["aborted"] = True
                    if span is not None and result is not None:
                        _operator_spans(recorder, span, planned.plan, result.node_stats)
                    with recorder.span("metrics.p_error"):
                        p_error(planner, query, cards, true_cards)
        return time.perf_counter() - started

    def layers(self, built: CampaignInputs, seconds: float, timed: TimedPass, trace_path):
        """Per-layer seconds per repetition, from the traced pass."""
        bench = EndToEndBenchmark(built.database, built.workload)
        executor = Executor(built.database, timeout_seconds=120.0)
        # Harness, bare and traced repetitions alternate, so all three see
        # the same box: their differences are a few per cent of a repetition.
        recorder, off = SpanRecorder(), SpanRecorder(enabled=False)
        harness_walls, bare_walls, walls = [], [], []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            harness_walls.append(self._repetition(bench, built).wall)
            bare_walls.append(self._pipeline_repetition(built, bench, executor, off, rep=-1))
            walls.append(
                self._pipeline_repetition(built, bench, executor, recorder, rep=len(walls))
            )
        write_jsonl(recorder.spans, trace_path)

        # Per-repetition totals of every layer, then the median repetition.
        own = self_times(recorder.spans)
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(walls))
        for span in recorder.spans:
            rep, estimator, _ = span["op"].split("/", 2)
            name, duration = span["name"], span["end"] - span["start"]
            if name == "estimators.infer":
                totals[f"estimators.infer_s.{estimator}"][int(rep)] += duration
                totals[f"sub_plans.{estimator}"][int(rep)] += span["sub_plans"]
            elif name == "planner.plan":
                totals["planner.plan_s"][int(rep)] += duration
                totals["sub_plans"][int(rep)] += span["sub_plans"]
            elif name in LAYER_METRIC:
                totals[LAYER_METRIC[name]][int(rep)] += duration
            elif name.startswith("operator."):
                operator = name.removeprefix("operator.")
                totals[f"executor.self_s.{operator}"][int(rep)] += own[span["id"]]
                totals[f"executor.rows.{operator}"][int(rep)] += span["rows_out"]
        median = {key: statistics.median(values) for key, values in totals.items()}

        metrics = {name: median[name] for name in LAYER_METRIC.values()}
        metrics["planner.plan_s"] = median["planner.plan_s"]
        metrics["planner.subplans_per_s"] = median["sub_plans"] / median["planner.plan_s"]
        for name in PANEL:
            spent = median[f"estimators.infer_s.{name}"]
            metrics[f"estimators.infer_s.{name}"] = spent
            metrics[f"estimators.subplans_per_s.{name}"] = median[f"sub_plans.{name}"] / spent
        for operator in OPERATORS:
            for key in (f"executor.self_s.{operator}", f"executor.rows.{operator}"):
                metrics[key] = median.get(key, 0.0)

        # What EndToEndBenchmark.run adds over the bare pipeline: Q-Errors,
        # retry wrappers, events, progress, telemetry hooks.
        harness_wall = statistics.median(harness_walls)
        bare_wall = statistics.median(bare_walls)
        metrics["harness.overhead_s"] = harness_wall - bare_wall
        metrics["harness.overhead_share"] = (harness_wall - bare_wall) / harness_wall
        for name in PANEL:
            metrics[f"campaign.paper_e2e_s.{name}"] = statistics.median(
                rep.runs[name].total_end_to_end_seconds() for rep in timed.repetitions
            )
            metrics[f"campaign.exec_s.{name}"] = statistics.median(
                rep.runs[name].total_execution_seconds() for rep in timed.repetitions
            )
        metrics["campaign.aborted"] = float(
            sum(run.aborted_count for run in timed.repetitions[0].runs.values())
        )
        metrics["trace.overhead_share"] = (statistics.median(walls) - bare_wall) / bare_wall
        return metrics, []


def _operator_spans(recorder: SpanRecorder, parent: dict, plan, node_stats) -> None:
    """Lay the program's per-node times out as spans under ``parent``.

    ``node_stats`` holds inclusive elapsed times without start times; the
    executor runs left input, right input, then the node's own work, so
    the intervals can be rebuilt from the plan's shape.
    """

    def place(node, start: float, parent_span: dict) -> float:
        stats = node_stats[node.tables]
        span = recorder.add(
            f"operator.{stats.method}",
            start,
            start + stats.elapsed_seconds,
            parent_span,
            rows_out=stats.rows_out,
        )
        if isinstance(node, JoinNode):
            cursor = place(node.left, start, span)
            place(node.right, cursor, span)
        return span["end"]

    place(plan, parent["start"], parent)


def verify_labels(database, workload: Workload, pool: str) -> list[str]:
    """Label checks shared by the campaign and labelling workloads.

    The digest of the labels must equal the committed one, so a count bug
    shared by set-up and run still shows, and the SQLite oracle re-counts
    the four queries with the fewest sub-plans.
    """
    from repro.check.runner import check_workload

    problems = []
    if inputs.label_digest(workload) != inputs.golden()["label_digest"][pool]:
        problems.append(f"label digest of {pool} differs from golden.json")
    smallest = sorted(
        workload.queries, key=lambda q: (len(q.sub_plan_true_cards), q.query.name)
    )[:4]
    report = check_workload(database, Workload(workload.name, database.name, smallest))
    problems.extend(
        f"oracle: {failure.case_name} {failure.discrepancy}" for failure in report.failures
    )
    return problems
