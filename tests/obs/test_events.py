"""Structured event log: levels, context, durability, torn-tail reads."""

import json
import threading

import pytest

from repro.obs import events as obs_events
from repro.obs.events import (
    EventLog,
    load_events,
    use_event_log,
)


def test_emit_writes_one_json_line_per_event(tmp_path):
    path = tmp_path / "run.events.jsonl"
    with EventLog(path, clock=lambda: 123.0) as log:
        log.emit("campaign.begin", total=3)
        log.emit("query.completed", query="q1", failed=False)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {
        "ts": 123.0,
        "level": "info",
        "event": "campaign.begin",
        "total": 3,
    }


def test_level_threshold_drops_quieter_events(tmp_path):
    with EventLog(tmp_path / "e.jsonl", level="warning") as log:
        log.emit("noise", level="debug")
        log.emit("info", level="info")
        log.emit("problem", level="warning")
        log.emit("bad", level="error")
        assert log.count == 2
    events = load_events(tmp_path / "e.jsonl")
    assert [e["event"] for e in events] == ["problem", "bad"]


def test_unknown_levels_rejected(tmp_path):
    with pytest.raises(ValueError):
        EventLog(tmp_path / "e.jsonl", level="loud")
    with EventLog(tmp_path / "e.jsonl") as log:
        with pytest.raises(ValueError):
            log.emit("x", level="loud")


def test_bound_context_attached_to_every_event(tmp_path):
    path = tmp_path / "e.jsonl"
    with use_event_log(path):
        with obs_events.context(estimator="PostgreSQL", workload="stats-ceb"):
            obs_events.emit("query.start", query="q1")
            obs_events.emit("query.start", query="q2", workload="override")
        obs_events.emit("query.start", query="q3")
    events = load_events(path)
    assert events[0]["estimator"] == "PostgreSQL"
    assert events[0]["workload"] == "stats-ceb"
    assert events[1]["estimator"] == "PostgreSQL"
    assert events[1]["workload"] == "override"  # explicit fields win
    assert "estimator" not in events[2] and "workload" not in events[2]


def test_module_emit_is_noop_when_inactive(tmp_path):
    # Must not raise, must not create anything.
    obs_events.emit("query.start", query="q1")
    with obs_events.context(estimator="X"):
        obs_events.emit("inner")
    assert not list(tmp_path.iterdir())


def test_use_event_log_scopes_activation(tmp_path):
    path = tmp_path / "scoped.jsonl"
    with use_event_log(path) as log:
        obs_events.emit("inside")
        with use_event_log(None):
            obs_events.emit("switched-off")  # dropped
        obs_events.emit("restored")
    obs_events.emit("outside")  # dropped
    assert [e["event"] for e in load_events(path)] == ["inside", "restored"]
    assert log.count == 2
    log.emit("after-close")  # a log opened from a path is closed on exit
    assert log.count == 2


def test_use_event_log_leaves_a_passed_log_open(tmp_path):
    path = tmp_path / "shared.jsonl"
    with EventLog(path) as log:
        with use_event_log(log) as installed:
            assert installed is log
            obs_events.emit("scoped")
        log.emit("direct")
    assert [e["event"] for e in load_events(path)] == ["scoped", "direct"]


def test_threads_start_without_the_installing_threads_log(tmp_path):
    path = tmp_path / "main.jsonl"
    with use_event_log(path):
        thread = threading.Thread(target=obs_events.emit, args=("from-thread",))
        thread.start()
        thread.join()
        obs_events.emit("from-main")
    assert [e["event"] for e in load_events(path)] == ["from-main"]


def test_threads_sharing_a_log_keep_their_own_context_fields(tmp_path):
    """Nested ``context`` scopes on one shared log never leak fields
    across threads, and no line or count is lost, however the threads'
    scopes interleave (more threads than cores, short switch interval)."""
    import sys

    path = tmp_path / "shared.jsonl"
    names, rounds = "abcd", 100
    barrier = threading.Barrier(len(names))

    def worker(log, name):
        with use_event_log(log), obs_events.context(worker=name):
            barrier.wait(timeout=10.0)
            for index in range(rounds):
                with obs_events.context(query=f"{name}-{index}"):
                    obs_events.emit("query.start")
                obs_events.emit("between")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with EventLog(path) as log:
            threads = [
                threading.Thread(target=worker, args=(log, name)) for name in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    events = load_events(path)
    assert len(events) == log.count == 2 * rounds * len(names)
    for event in events:
        if event["event"] == "query.start":
            assert event["query"].startswith(event["worker"] + "-")
        else:
            assert "query" not in event


def test_context_manager_restores_previous_values(tmp_path):
    with use_event_log(tmp_path / "e.jsonl"):
        with obs_events.context(estimator="A"):
            with obs_events.context(estimator="B", query="q7"):
                obs_events.emit("nested")
            obs_events.emit("restored")
        obs_events.emit("clean")
    events = load_events(tmp_path / "e.jsonl")
    assert events[0]["estimator"] == "B" and events[0]["query"] == "q7"
    assert events[1]["estimator"] == "A" and "query" not in events[1]
    assert "estimator" not in events[2]


def test_load_events_tolerates_torn_tail_and_blank_lines(tmp_path):
    path = tmp_path / "torn.jsonl"
    with EventLog(path) as log:
        log.emit("one")
        log.emit("two")
    with path.open("a") as handle:
        handle.write("\n")
        handle.write('{"ts": 1.0, "level": "info", "event": "tor')  # killed writer
    events = load_events(path)
    assert [e["event"] for e in events] == ["one", "two"]


def test_load_events_missing_file_is_empty(tmp_path):
    assert load_events(tmp_path / "never-written.jsonl") == []


def test_load_events_min_level_filters_on_read(tmp_path):
    path = tmp_path / "e.jsonl"
    with EventLog(path, level="debug") as log:
        log.emit("fine", level="debug")
        log.emit("bad", level="error")
    assert len(load_events(path)) == 2
    assert [e["event"] for e in load_events(path, min_level="warning")] == ["bad"]


def test_load_events_under_live_concurrent_writer(tmp_path):
    """Reading while a writer appends (with torn flushes) never fails.

    A writer thread appends events one byte-chunk at a time — flushing
    mid-line, so the reader regularly observes a torn tail — while the
    reader polls ``load_events``.  The contract: every read returns
    only complete, well-formed events, in order, and the final read
    (after the writer joins) sees everything.
    """
    import threading

    path = tmp_path / "live.jsonl"
    total = 50
    written = threading.Event()

    def writer() -> None:
        with path.open("a", encoding="utf-8") as handle:
            for index in range(total):
                line = json.dumps(
                    {"ts": float(index), "level": "info", "event": f"e{index}"}
                ) + "\n"
                # Flush a deliberately torn prefix first so concurrent
                # reads see an incomplete tail, then complete the line.
                split = max(1, len(line) // 2)
                handle.write(line[:split])
                handle.flush()
                handle.write(line[split:])
                handle.flush()
        written.set()

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        while not written.is_set():
            events = load_events(path)
            # Complete events only, in write order, no torn parses.
            assert all(e["event"] == f"e{i}" for i, e in enumerate(events))
    finally:
        thread.join(timeout=10.0)
    final = load_events(path)
    assert [e["event"] for e in final] == [f"e{i}" for i in range(total)]
