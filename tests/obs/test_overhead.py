"""Tier-1 guard: disabled-mode instrumentation overhead stays < 2%.

The measurement compares the executor's default ``execute()`` path
(tracing off) against the bare uninstrumented walk on the tiny test
database.  Timing noise is handled with best-of repeats plus a bounded
number of re-measurements before declaring a regression.
"""

from repro.obs.overhead import default_overhead_plan, measure_overhead


def test_disabled_mode_overhead_under_two_percent(tiny_db):
    last = None
    for attempt in range(3):
        report = measure_overhead(tiny_db, repeats=50)
        last = report
        if report["overhead_disabled"] < 0.02:
            break
    assert last["overhead_disabled"] < 0.02, last

    # Sanity on the report shape the micro-benchmark JSON relies on.
    for key in (
        "bare_seconds",
        "disabled_seconds",
        "enabled_seconds",
        "overhead_disabled",
        "overhead_enabled",
        "repeats",
    ):
        assert key in last


def test_live_telemetry_cost_is_bounded(tiny_db):
    """Per-query live-telemetry cost stays in the tens of microseconds.

    The tiny database's sub-millisecond queries make a *relative* bound
    meaningless (any fixed cost looks huge), so this tier-1 guard bounds
    the absolute per-cycle delta; the < 2% relative contract is asserted
    at realistic query scale by ``benchmarks/bench_obs_live.py`` and
    recorded in ``BENCH_obs_live.json``.
    """
    from repro.obs.overhead import measure_live_overhead

    last = None
    for attempt in range(3):
        report = measure_live_overhead(tiny_db, repeats=50)
        last = report
        if report["live_seconds"] - report["baseline_seconds"] < 500e-6:
            break
    assert last["live_seconds"] - last["baseline_seconds"] < 500e-6, last
    for key in ("baseline_seconds", "live_seconds", "overhead_live", "repeats"):
        assert key in last


def test_live_overhead_writes_real_artifacts(tiny_db, tmp_path):
    from repro.obs.events import load_events
    from repro.obs.overhead import measure_live_overhead

    measure_live_overhead(tiny_db, repeats=3, warmup=1, artifact_dir=tmp_path)
    events = load_events(tmp_path / "overhead.events.jsonl")
    assert [e["event"] for e in events[:2]] == ["query.start", "query.completed"]
    assert (tmp_path / "overhead.prom").exists()


def test_enabled_mode_actually_instruments(tiny_db):
    from repro.engine.executor import Executor
    from repro.obs import trace as obs_trace

    plan = default_overhead_plan(tiny_db)
    with obs_trace.use_tracer() as tracer:
        result = Executor(tiny_db).execute(plan)
    assert result.node_stats  # instrumented because a tracer was active
    assert {span.name for span in tracer.spans} == {"seq_scan", "hash_join"}
