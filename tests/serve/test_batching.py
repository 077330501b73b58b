"""Micro-batcher: coalescing, admission control, failure propagation."""

import sys
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.trace import Tracer, load_trace, span, use_tracer
from repro.obs.trace import active_tracer as current_tracer
from repro.serve.batching import AdmissionError, BatcherClosedError, MicroBatcher
from repro.serve.tracing import TraceLink, TraceSink


def _echo_batch(model, queries):
    """Deterministic stand-in for estimate_batch: value == query * 2."""
    return [query * 2.0 for query in queries], 1


def test_single_submit_round_trips():
    batcher = MicroBatcher(_echo_batch, window_seconds=0.0).start()
    try:
        values, version = batcher.submit("default", [1.0, 2.0])
        assert values == [2.0, 4.0]
        assert version == 1
    finally:
        assert batcher.close() is True


def test_concurrent_submits_coalesce_into_fewer_batches():
    batch_sizes = []
    release = threading.Event()

    def slow_batch(model, queries):
        # First batch blocks until every client has had time to queue;
        # the stragglers must then ride ONE coalesced call.
        batch_sizes.append(len(queries))
        if len(batch_sizes) == 1:
            release.wait(timeout=5.0)
        return [float(query) for query in queries], 1

    batcher = MicroBatcher(slow_batch, window_seconds=0.05).start()
    results = {}

    def client(index):
        results[index] = batcher.submit("default", [index])

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    threads[0].start()
    time.sleep(0.15)  # let client 0 claim the in-flight batch
    for thread in threads[1:]:
        thread.start()
    time.sleep(0.15)  # let clients 1..7 enqueue behind it
    release.set()
    for thread in threads:
        thread.join(timeout=5.0)
    batcher.close()

    assert len(results) == 8
    for index, (values, _) in results.items():
        assert values == [float(index)]
    # 8 requests served by at most 3 estimator calls, with at least one
    # genuinely coalesced multi-request batch.
    assert len(batch_sizes) <= 3
    assert max(batch_sizes) >= 2
    assert sum(batch_sizes) == 8


def test_window_respects_max_batch():
    seen = []

    def record(model, queries):
        seen.append(len(queries))
        return [0.0] * len(queries), 1

    batcher = MicroBatcher(record, window_seconds=0.2, max_batch=3)
    # Enqueue before starting the collector so the batch split is
    # deterministic: 5 single-query jobs -> a 3-batch then a 2-batch.
    jobs = []

    def client():
        jobs.append(batcher.submit("default", [1.0]))

    threads = [threading.Thread(target=client) for _ in range(5)]
    for thread in threads:
        thread.start()
    time.sleep(0.1)
    batcher.start()
    for thread in threads:
        thread.join(timeout=5.0)
    batcher.close()
    assert sorted(seen) == [2, 3]


def test_queue_overflow_raises_admission_error():
    release = threading.Event()
    entered = threading.Event()

    def stuck_batch(model, queries):
        entered.set()
        release.wait(timeout=5.0)
        return [0.0] * len(queries), 1

    batcher = MicroBatcher(stuck_batch, max_queue=2, window_seconds=0.0).start()

    def wait_for_depth(depth):
        deadline = time.monotonic() + 5.0
        while batcher.depth != depth and time.monotonic() < deadline:
            time.sleep(0.005)
        assert batcher.depth == depth

    try:
        # One job occupies the collector; two more fill the queue.
        threads = [threading.Thread(target=lambda: batcher.submit("default", [1.0]))]
        threads[0].start()
        assert entered.wait(timeout=5.0)  # collector holds job 1 in flight
        for _ in range(2):
            thread = threading.Thread(
                target=lambda: batcher.submit("default", [1.0])
            )
            thread.start()
            threads.append(thread)
        wait_for_depth(2)
        with pytest.raises(AdmissionError, match="queue full"):
            batcher.submit("default", [9.0])
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
    finally:
        release.set()
        batcher.close()


def test_estimator_failure_propagates_to_every_job_in_group():
    def failing_batch(model, queries):
        raise RuntimeError("model exploded")

    batcher = MicroBatcher(failing_batch, window_seconds=0.0).start()
    try:
        with pytest.raises(RuntimeError, match="model exploded"):
            batcher.submit("default", [1.0])
    finally:
        batcher.close()


def test_jobs_grouped_per_model():
    calls = []

    def record(model, queries):
        calls.append((model, len(queries)))
        return [0.0] * len(queries), 1

    batcher = MicroBatcher(record, window_seconds=0.2)
    threads = [
        threading.Thread(target=lambda m=model: batcher.submit(m, [1.0]))
        for model in ("a", "a", "b")
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.1)
    batcher.start()
    for thread in threads:
        thread.join(timeout=5.0)
    batcher.close()
    assert sorted(calls) == [("a", 2), ("b", 1)]


def test_close_is_idempotent_and_fails_pending_jobs():
    batcher = MicroBatcher(_echo_batch, window_seconds=0.0)
    # Never started: close is trivially clean, twice.
    assert batcher.close() is True
    assert batcher.close() is True

    batcher = MicroBatcher(_echo_batch, window_seconds=0.0).start()
    assert batcher.close() is True
    assert batcher.close() is True
    with pytest.raises(BatcherClosedError):
        batcher.submit("default", [1.0])


# -- demand-driven dispatch ---------------------------------------------------


def _wait_for_depth(batcher, depth):
    deadline = time.monotonic() + 5.0
    while batcher.depth != depth and time.monotonic() < deadline:
        time.sleep(0.002)
    assert batcher.depth == depth


def _run_clients(batcher, rounds_per_client):
    """Closed-loop clients side by side; the duration of each one's submits."""
    barrier = threading.Barrier(len(rounds_per_client))
    results = [[] for _ in rounds_per_client]

    def client(index, rounds):
        barrier.wait(timeout=5.0)
        for _ in range(rounds):
            started = time.perf_counter()
            batcher.submit("default", [1.0], timeout_seconds=5.0)
            results[index].append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=client, args=(index, rounds))
        for index, rounds in enumerate(rounds_per_client)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads)
    return results


def _sleepy_batch(sizes):
    """A 2 ms model: the next request arrives while this one executes."""

    def run(model, queries):
        sizes.append(len(queries))
        time.sleep(0.002)
        return [0.0] * len(queries), 1

    return run


def test_lone_submit_runs_on_the_calling_thread_without_waiting():
    ran_on = []

    def record(model, queries):
        ran_on.append(threading.get_ident())
        return [0.0] * len(queries), 1

    batcher = MicroBatcher(record, window_seconds=0.2).start()
    try:
        for _ in range(3):
            started = time.perf_counter()
            batcher.submit("default", [1.0])
            assert time.perf_counter() - started < 0.010
        assert ran_on == [threading.get_ident()] * 3
    finally:
        batcher.close()


def test_two_closed_loop_clients_pair_up_and_leave_when_both_are_in():
    sizes = []
    batcher = MicroBatcher(_sleepy_batch(sizes), window_seconds=0.2).start()
    try:
        durations = _run_clients(batcher, [200, 200])
    finally:
        batcher.close()
    rounds = durations[0] + durations[1]
    # The wait ends when both are in, not at the 200 ms cap.
    assert sum(rounds) / len(rounds) < 0.020
    settled = sizes[10:]
    assert sum(size == 2 for size in settled) >= 0.8 * len(settled)
    assert sum(sizes) == 400


def test_a_departed_client_costs_exactly_one_capped_round():
    window = 0.1
    batcher = MicroBatcher(_sleepy_batch([]), window_seconds=window).start()
    try:
        stays, _ = _run_clients(batcher, [60, 30])
    finally:
        batcher.close()
    # The round after the partner left waits out the cap; that wait brings
    # the expectation back to one and every later round is inline again.
    assert sum(duration >= 0.9 * window for duration in stays) == 1
    assert all(duration < window / 2 for duration in stays[-10:])


def test_window_caps_the_wait_for_an_expectation_never_met():
    window = 0.1
    batcher = MicroBatcher(_sleepy_batch([]), window_seconds=window).start()
    try:
        # Three clients raise the expectation to three, then one leaves.
        durations = _run_clients(batcher, [40, 40, 20])
    finally:
        batcher.close()
    assert max(max(client) for client in durations) <= window + 0.050


def test_promotion_before_execution_is_seen_inline_and_queued():
    active = {"version": 1}
    entered, release = threading.Event(), threading.Event()

    def versioned(model, queries):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=5.0)
        return [0.0] * len(queries), active["version"]

    batcher = MicroBatcher(versioned, window_seconds=0.0).start()
    results = {}
    try:
        first = threading.Thread(
            target=lambda: results.update(first=batcher.submit("default", [1.0]))
        )
        first.start()
        assert entered.wait(timeout=5.0)
        queued = threading.Thread(
            target=lambda: results.update(queued=batcher.submit("default", [2.0]))
        )
        queued.start()
        _wait_for_depth(batcher, 1)
        active["version"] = 2  # promoted while one job executes, one waits
        release.set()
        first.join(timeout=5.0)
        queued.join(timeout=5.0)
        assert results["queued"][1] == 2
        active["version"] = 3
        assert batcher.submit("default", [3.0])[1] == 3  # inline
    finally:
        release.set()
        batcher.close()


def test_inline_request_keeps_the_linked_span_chain(tmp_path):
    sink = TraceSink(tmp_path / "traces.jsonl")

    def traced_batch(model, queries):
        with span("inference"):
            return [0.0] * len(queries), 7

    batcher = MicroBatcher(traced_batch, window_seconds=0.2, trace_sink=sink)
    batcher.start()
    request = Tracer(trace_id="request-1")
    try:
        with use_tracer(request), request.span("queue_wait") as wait:
            link = TraceLink(request.trace_id, wait.span_id)
            batcher.submit("default", [1.0], link=link)
            # The batch tracer was this thread's only while the batch ran.
            assert current_tracer() is request
    finally:
        batcher.close()
        sink.close()
    spans = {record["name"]: record for record in load_trace(sink.path)}
    batch = spans["batch"]
    assert batch["trace_id"] != request.trace_id
    assert batch["attributes"]["links"] == [wait.span_id]
    assert (link.batch_span_id, link.version) == (batch["span_id"], 7)
    for child in ("batch_assembly", "inference"):
        assert spans[child]["parent_id"] == batch["span_id"]


def test_batch_counters_once_per_executed_group_on_both_paths():
    registry = obs_metrics.registry()
    registry.reset()
    batcher = MicroBatcher(_echo_batch, window_seconds=0.2)
    # Queued path: three jobs of two models wait for start() -> two groups.
    threads = [
        threading.Thread(target=lambda m=model: batcher.submit(m, [1.0, 2.0]))
        for model in ("a", "a", "b")
    ]
    for thread in threads:
        thread.start()
    _wait_for_depth(batcher, 3)
    batcher.start()
    for thread in threads:
        thread.join(timeout=5.0)
    assert registry.counter("serve.batches").value == 2
    assert sorted(registry.histogram("serve.batch_size").samples) == [2.0, 4.0]
    batcher.submit("a", [1.0])  # inline path: one more group of one query
    batcher.close()
    assert registry.counter("serve.batches").value == 3
    assert sorted(registry.histogram("serve.batch_size").samples) == [1.0, 2.0, 4.0]


# -- shutdown and timeouts ----------------------------------------------------


def test_submits_racing_close_end_served_or_refused_within_a_second():
    batcher = MicroBatcher(_echo_batch, window_seconds=0.001).start()
    outcomes = []
    go = threading.Event()

    def client(index):
        go.wait(timeout=5.0)
        started = time.perf_counter()
        try:
            values, _ = batcher.submit("default", [float(index)])
            outcome = values == [index * 2.0]
        except BatcherClosedError:
            outcome = True
        outcomes.append((outcome, time.perf_counter() - started))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(200)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        go.set()
        time.sleep(0.002)
        assert batcher.close() is True
        for thread in threads:
            thread.join(timeout=5.0)
    finally:
        sys.setswitchinterval(previous)
    assert len(outcomes) == 200
    assert all(outcome for outcome, _ in outcomes)
    assert max(elapsed for _, elapsed in outcomes) < 1.0
    assert batcher.depth == 0


def test_timed_out_follower_strands_nobody_and_is_not_handed_the_round():
    entered, release = threading.Event(), threading.Event()

    def stuck_once(model, queries):
        if not entered.is_set():
            entered.set()
            release.wait(timeout=5.0)
        return [float(query) for query in queries], 1

    batcher = MicroBatcher(stuck_once, window_seconds=0.0).start()
    results = {}
    try:
        stuck = threading.Thread(target=lambda: batcher.submit("default", [1.0]))
        stuck.start()
        assert entered.wait(timeout=5.0)
        behind = threading.Thread(
            target=lambda: results.update(behind=batcher.submit("default", [3.0]))
        )

        def impatient():
            with pytest.raises(TimeoutError):
                batcher.submit("default", [2.0], timeout_seconds=0.05)
            results["impatient"] = "timed out"

        leaver = threading.Thread(target=impatient)
        leaver.start()
        _wait_for_depth(batcher, 1)
        behind.start()
        leaver.join(timeout=5.0)
        assert results["impatient"] == "timed out"
        assert batcher.depth == 1  # the leaver left the queue, its successor stays
        release.set()
        for thread in (stuck, behind):
            thread.join(timeout=5.0)
        assert results["behind"] == ([3.0], 1)
        started = time.perf_counter()
        assert batcher.submit("default", [4.0]) == ([4.0], 1)
        assert time.perf_counter() - started < 0.5
    finally:
        release.set()
        batcher.close()
