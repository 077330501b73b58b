"""Multi-process workload evaluation with worker-crash recovery.

Fans the per-query work of one :class:`EndToEndBenchmark
<repro.core.benchmark.EndToEndBenchmark>` run across fork-based worker
processes.  Forking gives every worker copy-on-write access to the
parent's numpy column arrays — no serialization of the database, the
estimator or the workload ever happens; only the small, picklable
``QueryRun`` results and per-worker metrics dumps travel back to the
parent.

Guarantees:

- **Deterministic ordering** — results are returned in workload order
  regardless of which worker finished first.
- **Metrics fidelity** — each task resets the worker's process-local
  metrics registry, runs its query, and ships a lossless
  :meth:`MetricsRegistry.dump`; the parent merges every dump *as it
  arrives*, so counters (aborts, cache hits, planner effort) aggregate
  exactly as in a serial run — and survive an interrupted run.
- **Timing fidelity** — workers execute the same untimed-cache policy
  as the serial path; per-query ``inference/planning/execution``
  timings are measured inside the worker exactly as serially.  Note
  that with more workers than cores the *per-query* wall times can
  stretch under CPU contention; wall-clock of the whole run is what
  parallelism buys.
- **Crash recovery** — a worker takes one query index from the task
  queue and claims it over its own result pipe (synchronously, so the
  claim cannot be lost) before running it.  A worker death
  (``os._exit``, segfault, OOM kill) surfaces as EOF on its pipe
  *after* its buffered messages are drained; only the claimed query is
  requeued, against the ``MAX_CRASH_RETRIES`` budget (past it, the
  query is recorded as a *failed* ``QueryRun`` rather than hanging or
  losing the run).  Every crash increments ``benchmark.worker_crashes``.
- **Interrupt salvage** — if the parent is interrupted
  (KeyboardInterrupt or any other error), metrics of completed queries
  are already merged and checkpointed runs already flushed; the
  exception is re-raised with a ``salvaged_runs`` attribute carrying
  the completed ``QueryRun``s and a clear note printed to stderr.

Telemetry sinks are process-local: a worker leaves every sink it
inherited from the forking thread in one place (no tracer, no event
log, a private progress tracker with no snapshot file), so the parent
stays the only writer of each file and emits completion events and
progress from the streamed worker messages instead.  Parallel runs
therefore produce no per-query trace spans (the parent's top-level
spans still record the run).

On platforms without the ``fork`` start method the caller falls back
to the serial loop.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from multiprocessing import connection as mp_connection

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import progress as obs_progress
from repro.obs import trace as obs_trace

#: Parent-side state inherited by forked workers.  Set immediately
#: before the workers are spawned, restored under try/finally even
#: when spawning itself fails; never pickled.
_FORK_STATE = None

#: How long the dispatcher waits for worker messages before checking
#: the campaign deadline.
_POLL_SECONDS = 0.05

#: Grace period for workers to drain their sentinel and exit.
_JOIN_SECONDS = 5.0

#: How many times a query lost to a worker crash is requeued before it
#: is recorded as failed.
MAX_CRASH_RETRIES = 1


def fork_available() -> bool:
    """Whether fork-based pools (and thus parallel runs) are usable."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers() -> int:
    """A sensible worker count: the CPUs this process may schedule on.

    Uses ``os.sched_getaffinity`` (not ``cpu_count``) so cgroup/taskset
    limited CI containers get the cores they can actually use;
    :func:`run_parallel` caps the count at the number of queries.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def _worker_loop(task_queue, result_pipe) -> None:
    """Worker main: take a query index, claim it, run it, ship the result.

    The ``("start", index)`` claim is sent synchronously over the pipe
    before the query runs, so the parent knows which query to requeue
    if this process dies mid-run; it doubles as the worker's heartbeat
    for the live progress view.  An exception escaping ``_run_query``
    (which already isolates ordinary per-query failures) is shipped as
    an ``("error", ...)`` message so one broken task cannot take the
    whole run down.
    """
    obs_metrics.reset()
    benchmark, estimator, queries = _FORK_STATE
    with (
        obs_trace.use_tracer(None),
        obs_events.use_event_log(None),
        obs_progress.use_progress(None),
    ):
        while True:
            index = task_queue.get()
            if index is None:  # sentinel: run is over
                break
            result_pipe.send(("start", index))
            obs_metrics.reset()
            try:
                run = benchmark._run_query(estimator, queries[index])
            except BaseException as exc:  # noqa: BLE001 — must reach the parent
                result_pipe.send(("error", index, f"{type(exc).__name__}: {exc}"))
            else:
                result_pipe.send(("done", index, run, obs_metrics.registry().dump()))
    result_pipe.close()


def run_parallel(
    benchmark,
    estimator,
    queries,
    workers: int,
    *,
    on_complete=None,
    campaign_deadline=None,
):
    """Evaluate ``queries`` with ``estimator`` across ``workers`` processes.

    Each worker takes one query index at a time from a shared queue.
    Returns the list of ``QueryRun`` results in workload order; every
    worker's metrics are merged into the parent registry as results
    arrive.  The caller is responsible for estimator preparation (fit /
    preload) *before* this call so the forked children inherit the
    ready state.

    ``on_complete(position, run)`` fires in completion order for every
    query that genuinely finished (including terminal failures) — the
    benchmark's checkpoint hook.  Queries still unfinished when
    ``campaign_deadline`` expires are filled with failed ``QueryRun``s
    (not passed to ``on_complete``) so the result set stays complete
    without recording them as done.  If the call is interrupted, the
    exception carries the completed runs as ``salvaged_runs``.
    """
    from repro.core.benchmark import CAMPAIGN_DEADLINE_ERROR, failed_query_run

    global _FORK_STATE
    if not fork_available():
        raise RuntimeError("parallel benchmark runs require the 'fork' start method")
    queries = list(queries)
    workers = max(1, min(workers, len(queries)))
    context = multiprocessing.get_context("fork")
    registry = obs_metrics.registry()

    outcomes: dict[int, object] = {}
    claimed: dict[object, int] = {}  # reader pipe -> in-flight query index
    crash_counts: dict[int, int] = {}
    processes: dict[object, object] = {}  # reader pipe -> Process

    def finish(index: int, run) -> None:
        outcomes[index] = run
        if on_complete is not None:
            on_complete(index, run)

    _FORK_STATE = (benchmark, estimator, queries)
    task_queue = context.Queue()
    try:
        for index in range(len(queries)):
            task_queue.put(index)

        def spawn_worker() -> None:
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(
                target=_worker_loop, args=(task_queue, writer), daemon=True
            )
            process.start()
            writer.close()  # parent keeps only the reading end
            processes[reader] = process

        def reap_worker(reader) -> None:
            """Handle EOF on a worker pipe: crash recovery or cleanup.

            EOF arrives only after the pipe's buffered messages were
            drained, so a claim without a matching result means the
            worker really died mid-query.  That one query is requeued
            against its crash budget; nothing else was taken from the
            queue.  A replacement worker is spawned while work remains.
            """
            process = processes.pop(reader)
            process.join()
            reader.close()
            index = claimed.pop(reader, None)
            if index is not None and index not in outcomes:
                registry.counter("benchmark.worker_crashes").inc()
                crash_counts[index] = crash_counts.get(index, 0) + 1
                requeued = crash_counts[index] <= MAX_CRASH_RETRIES
                obs_events.emit(
                    "worker.crashed",
                    level="warning",
                    worker=process.pid,
                    exit_code=process.exitcode,
                    query=queries[index].query.name,
                    requeued=requeued,
                )
                if requeued:
                    task_queue.put(index)
                else:
                    finish(
                        index,
                        failed_query_run(
                            queries[index],
                            f"worker crashed {crash_counts[index]} times "
                            f"(exit code {process.exitcode})",
                        ),
                    )
                    registry.counter("benchmark.failed_queries").inc()
            if len(outcomes) < len(queries):
                spawn_worker()

        for _ in range(workers):
            spawn_worker()

        while len(outcomes) < len(queries):
            if campaign_deadline is not None and campaign_deadline.expired:
                break
            ready = mp_connection.wait(list(processes), timeout=_POLL_SECONDS)
            for reader in ready:
                try:
                    message = reader.recv()
                except EOFError:
                    reap_worker(reader)
                    continue
                kind = message[0]
                worker_pid = processes[reader].pid
                obs_progress.heartbeat(worker_pid)
                if kind == "start":
                    index = message[1]
                    claimed[reader] = index
                    obs_progress.record_claim(index, worker=worker_pid)
                    obs_events.emit(
                        "query.claimed",
                        level="debug",
                        query=queries[index].query.name,
                        worker=worker_pid,
                    )
                elif kind == "done":
                    _, index, run, dump = message
                    claimed.pop(reader, None)
                    if index not in outcomes:  # requeue may rarely duplicate
                        registry.merge(dump)
                        finish(index, run)
                elif kind == "error":
                    _, index, error = message
                    claimed.pop(reader, None)
                    if index not in outcomes:
                        finish(index, failed_query_run(queries[index], error))
                        registry.counter("benchmark.failed_queries").inc()

        # Campaign deadline: fill what never finished, without
        # recording it as completed (a resume may still run it).
        for index in range(len(queries)):
            if index not in outcomes:
                outcomes[index] = failed_query_run(
                    queries[index], CAMPAIGN_DEADLINE_ERROR
                )
                registry.counter("benchmark.failed_queries").inc()
    except BaseException as exc:
        # Salvage: metrics of completed queries are already merged and
        # on_complete (checkpointing) already fired per result — make
        # the partial results reachable and the interruption loud.
        completed = [outcomes[index] for index in sorted(outcomes)]
        exc.salvaged_runs = completed
        print(
            f"[parallel run interrupted: {len(completed)}/{len(queries)} queries "
            "completed; their metrics are merged and checkpointed results are "
            "on disk]",
            file=sys.stderr,
        )
        raise
    finally:
        _FORK_STATE = None
        _shutdown(processes, task_queue)
    return [outcomes[index] for index in range(len(queries))]


def _shutdown(processes, task_queue) -> None:
    """Stop workers without hanging the parent.

    Live workers get one sentinel each and a grace period; stragglers
    (e.g. still executing a requeued task) are terminated.  The task
    queue's feeder thread is cancelled so unread items never block
    parent exit.
    """
    try:
        for _ in processes:
            task_queue.put(None)
    except (OSError, ValueError):
        pass  # queue already unusable; terminate below
    for process in processes.values():
        process.join(timeout=_JOIN_SECONDS)
    for process in processes.values():
        if process.is_alive():
            process.terminate()
            process.join(timeout=_JOIN_SECONDS)
    for reader in processes:
        reader.close()
    task_queue.close()
    task_queue.cancel_join_thread()
