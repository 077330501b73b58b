"""Self-measurement of instrumentation overhead.

The observability layer promises to be zero-cost-when-disabled: with no
active tracer, :meth:`Executor.execute` takes the same uninstrumented
walk as before the layer existed, plus one dispatch branch.  This
module measures that promise so the ``BENCH_obs_overhead.json``
micro-benchmark (and its tier-1 test) can hold future PRs to it.

Three modes are timed with best-of-``repeats`` (min suppresses
scheduler noise the way the benchmark's own repetition loop does):

- ``bare``     — the raw plan walk, bypassing the ``execute()``
  dispatch entirely (the pre-observability baseline),
- ``disabled`` — ``execute()`` with tracing off (the default mode
  every tier-1 timing runs under),
- ``enabled``  — ``execute(collect_stats=True)`` under an active
  tracer, per-node spans and stats included.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.plans import JOIN_HASH, JoinNode, PlanNode, ScanNode
from repro.obs import events as obs_events
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace


def default_overhead_plan(database: Database) -> PlanNode:
    """A two-way hash join over the database's first join edge.

    Deterministic and filter-free, so repeated executions do identical
    work — exactly what an overhead comparison needs.
    """
    edge = database.join_graph.edges[0]
    left = ScanNode(tables=frozenset((edge.left,)), table=edge.left)
    right = ScanNode(tables=frozenset((edge.right,)), table=edge.right)
    return JoinNode(
        tables=frozenset((edge.left, edge.right)),
        left=left,
        right=right,
        edge=edge,
        method=JOIN_HASH,
    )


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def measure_overhead(
    database: Database,
    plan: PlanNode | None = None,
    repeats: int = 30,
    warmup: int = 3,
) -> dict:
    """Time bare / disabled / enabled executions of ``plan``.

    Returns a JSON-serializable report with best-of times and relative
    overheads (``overhead_disabled`` is disabled-vs-bare, the number
    the < 2% budget applies to).
    """
    if obs_trace.is_active():
        raise RuntimeError("measure_overhead must start with tracing disabled")
    executor = Executor(database)
    plan = plan if plan is not None else default_overhead_plan(database)

    for _ in range(warmup):
        executor.execute(plan)

    # ``bare`` deliberately reaches into the executor's uninstrumented
    # walk: it is the seed-equivalent code path with even the
    # execute() dispatch branch removed.
    bare = _best_of(lambda: executor._run(plan, frozenset(), {}, None, None), repeats)
    disabled = _best_of(lambda: executor.execute(plan), repeats)
    with obs_trace.use_tracer():
        enabled = _best_of(
            lambda: executor.execute(plan, collect_stats=True), repeats
        )

    return {
        "repeats": repeats,
        "plan_tables": sorted(plan.tables),
        "bare_seconds": bare,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_disabled": disabled / bare - 1.0,
        "overhead_enabled": enabled / bare - 1.0,
    }


def campaign_overhead_plan(database: Database) -> PlanNode:
    """A three-way chain hash join — campaign-query-representative.

    Campaign queries are multi-way joins, so the live-telemetry budget
    is judged against one rather than the minimal two-way join
    :func:`default_overhead_plan` uses for the disabled-mode check.
    """
    edges = database.join_graph.edges
    first = edges[0]
    chained = next(
        edge
        for edge in edges[1:]
        if {edge.left, edge.right} & {first.left, first.right}
    )
    left = ScanNode(tables=frozenset((first.left,)), table=first.left)
    right = ScanNode(tables=frozenset((first.right,)), table=first.right)
    join = JoinNode(
        tables=frozenset((first.left, first.right)),
        left=left,
        right=right,
        edge=first,
        method=JOIN_HASH,
    )
    third = (
        chained.left if chained.left not in join.tables else chained.right
    )
    return JoinNode(
        tables=join.tables | {third},
        left=join,
        right=ScanNode(tables=frozenset((third,)), table=third),
        edge=chained,
        method=JOIN_HASH,
    )


class _OverheadRun:
    """Minimal QueryRun stand-in for the progress tracker."""

    failed = False
    aborted = False


def measure_live_overhead(
    database: Database,
    plan: PlanNode | None = None,
    repeats: int = 30,
    warmup: int = 3,
    artifact_dir: str | None = None,
) -> dict:
    """Time per-query cycles with live telemetry on vs off.

    A "cycle" is what the benchmark driver pays per query with
    ``--events-out``/``--progress-out`` enabled: the plan execution plus
    the telemetry the driver adds around it (``query.start`` /
    ``query.completed`` events, a progress-tracker update, and the
    throttled Prometheus snapshot write).  ``overhead_live`` is the
    relative cost of that telemetry, the number the < 2% budget in
    ``BENCH_obs_live.json`` applies to.

    Baseline and live cycles are *interleaved* (one of each per
    repeat, best-of over both streams): allocator and page-cache drift
    across a run otherwise dwarfs the tens-of-microseconds telemetry
    delta being measured.  The executor's execute path never touches
    the event/progress globals, so baseline cycles are unaffected by
    the telemetry being active around them.

    Telemetry artifacts go to ``artifact_dir`` (a temporary directory
    by default) so the measurement includes real file writes.
    """
    import tempfile

    if obs_events.is_active() or obs_progress.is_active():
        raise RuntimeError(
            "measure_live_overhead must start with events and progress disabled"
        )
    executor = Executor(database)
    plan = plan if plan is not None else default_overhead_plan(database)

    for _ in range(warmup):
        executor.execute(plan)

    run = _OverheadRun()

    def cycle() -> None:
        obs_events.emit("query.start", query="overhead")
        result = executor.execute(plan)
        obs_progress.record_result(run, index=0)
        obs_events.emit(
            "query.completed",
            query="overhead",
            seconds=result.elapsed_seconds,
        )

    baseline = float("inf")
    live = float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(artifact_dir) if artifact_dir is not None else Path(tmp)
        base.mkdir(parents=True, exist_ok=True)
        obs_events.activate(base / "overhead.events.jsonl")
        obs_progress.activate(snapshot_path=base / "overhead.prom")
        obs_progress.begin_campaign(
            total=repeats, estimator="overhead", workload="overhead"
        )
        try:
            for _ in range(repeats):
                baseline = min(baseline, _best_of(lambda: executor.execute(plan), 1))
                live = min(live, _best_of(cycle, 1))
        finally:
            obs_progress.end_campaign()
            obs_progress.deactivate()
            obs_events.deactivate()

    return {
        "repeats": repeats,
        "plan_tables": sorted(plan.tables),
        "baseline_seconds": baseline,
        "live_seconds": live,
        "overhead_live": live / baseline - 1.0,
    }
