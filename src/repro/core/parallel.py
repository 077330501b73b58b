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
- **Chunked dispatch** — workers claim queries in chunks of K per
  queue round-trip (K sized from the workload and worker count, or
  explicitly via ``chunk_size``) instead of one at a time, so queue
  synchronisation overhead is amortised across K queries.  Results
  still stream back per query over the worker's pipe, and ordering,
  metrics and crash semantics are unchanged from per-query dispatch.
- **Crash recovery** — each worker reports results over its own pipe,
  announces its claimed chunk, and claims each query (synchronously,
  so the claim cannot be lost) before running it.  A worker death
  (``os._exit``, segfault, OOM kill) surfaces as EOF on its pipe
  *after* its buffered messages are drained; the whole in-flight chunk
  is requeued — the query that was mid-run counts against its
  ``max_crash_retries`` budget (past it, the query is recorded as a
  *failed* ``QueryRun`` rather than hanging or losing the run), while
  the chunk's not-yet-started queries are requeued without blame.
  Every crash increments ``benchmark.worker_crashes``.
- **Interrupt salvage** — if the parent is interrupted
  (KeyboardInterrupt or any other error), metrics of completed queries
  are already merged and checkpointed runs already flushed; the
  exception is re-raised with a ``salvaged_runs`` attribute carrying
  the completed ``QueryRun``s and a clear note printed to stderr.

Tracing is process-local, so workers deactivate any tracer inherited
from the parent; parallel runs therefore produce no per-query trace
spans (the parent's top-level spans still record the run).

On platforms without the ``fork`` start method the caller falls back
to the serial loop.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

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

#: Tables at least this big have their column arrays moved into POSIX
#: shared memory before the pool forks (see :class:`SharedColumns`).
#: Small tables stay on the heap: a segment per tiny column would cost
#: more in mappings than copy-on-write could ever lose.
SHARE_COLUMNS_MIN_BYTES = 8 << 20


class SharedColumns:
    """Back the largest tables' column arrays with shared memory.

    Fork gives workers copy-on-write access to the parent's numpy
    arrays, but CoW is per-page and fragile: parent-side refcount
    updates and allocator churn on pages holding (or neighbouring) the
    big column buffers fault private copies into every worker.
    Re-pointing those buffers into ``multiprocessing.shared_memory``
    segments *before* the fork pins a single copy in a dedicated
    mapping every worker reads directly — an N-worker STATS-scale pool
    keeps one copy of the big columns instead of up to N+1.

    Only tables of at least ``min_table_bytes`` are moved; object-dtype
    and zero-length arrays stay put.  Sharing is value-preserving and
    invisible to readers, and the shared arrays are marked read-only so
    a buggy in-place write fails loudly instead of silently leaking
    into sibling workers.  :meth:`restore` re-points the columns at the
    original heap arrays and unlinks every segment (idempotent; the
    children forked meanwhile keep their mappings until they exit).
    """

    def __init__(self, database, min_table_bytes: int = SHARE_COLUMNS_MIN_BYTES):
        self._database = database
        self._min_table_bytes = min_table_bytes
        self._segments: list[shared_memory.SharedMemory] = []
        self._originals: list[tuple[object, str, np.ndarray]] = []
        self.shared_bytes = 0
        self.shared_tables: tuple[str, ...] = ()

    def share(self) -> None:
        """Move qualifying column arrays into shared memory (once)."""
        if self._database is None or self._originals:
            return
        shared_tables: list[str] = []
        for name, table in self._database.tables.items():
            if table.nbytes() < self._min_table_bytes:
                continue
            moved = 0
            for column in table.columns.values():
                for attr in ("values", "null_mask"):
                    moved += self._share_array(column, attr)
            if moved:
                shared_tables.append(name)
                self.shared_bytes += moved
        self.shared_tables = tuple(shared_tables)

    def _share_array(self, column, attr: str) -> int:
        array = getattr(column, attr)
        if array.nbytes == 0 or array.dtype.hasobject or not array.flags.c_contiguous:
            return 0
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        shared = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        shared[...] = array
        shared.flags.writeable = False
        self._segments.append(segment)
        self._originals.append((column, attr, array))
        setattr(column, attr, shared)
        return array.nbytes

    def restore(self) -> None:
        """Re-point columns at their heap arrays; unlink every segment."""
        for column, attr, array in self._originals:
            setattr(column, attr, array)
        self._originals.clear()
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:
                pass  # a stale reader still holds a view; unlink regardless
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedColumns":
        self.share()
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False


def fork_available() -> bool:
    """Whether fork-based pools (and thus parallel runs) are usable."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_workers(pending: int | None = None) -> int:
    """A sensible worker count: the CPUs this process may schedule on.

    Uses ``os.sched_getaffinity`` (not ``cpu_count``) so cgroup/taskset
    limited CI containers get the cores they can actually use, and caps
    at ``pending`` (the number of queries waiting) when given — a
    96-core box running a 4-query campaign needs 4 workers, not 96.
    """
    try:
        workers = max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        workers = max(1, os.cpu_count() or 1)
    if pending is not None:
        workers = max(1, min(workers, pending))
    return workers


def dispatch_chunks(
    num_tasks: int, workers: int, chunk_size: int | None = None
) -> list[list[int]]:
    """Contiguous task-index chunks for the dispatch queue.

    ``chunk_size=None`` picks K so each worker makes ~4 queue
    round-trips over the run — large enough to amortise queue
    synchronisation, small enough that a straggler chunk cannot idle
    the rest of the pool.  Ordering is deterministic: chunks cover
    ``0..num_tasks-1`` in order (results are keyed by index, so
    workload order is preserved regardless of completion order).
    """
    if num_tasks <= 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, num_tasks // (max(1, workers) * 4))
    chunk_size = max(1, chunk_size)
    return [
        list(range(start, min(start + chunk_size, num_tasks)))
        for start in range(0, num_tasks, chunk_size)
    ]


def _worker_init() -> None:
    # Start from a clean metrics slate.  The event log and the progress
    # tracker are parent-side: drop the inherited log *without closing
    # it* (the fd belongs to the parent) so the parent stays the file's
    # only writer and emits completion events from the streamed worker
    # messages instead.
    obs_events.deactivate(close=False)
    obs_progress.deactivate()
    obs_metrics.reset()


def _worker_loop(task_queue, result_pipe) -> None:
    """Worker main: claim a chunk of indices, run them, ship results.

    One queue round-trip claims a whole chunk; the ``("chunk", indices,
    pid)`` announcement followed by a per-query ``("start", index,
    pid)`` claim is sent synchronously over the pipe before each query
    runs — together they let the parent requeue the right queries when
    this process dies mid-chunk, and the start claim doubles as the
    worker's heartbeat for the live progress view.  An exception
    escaping ``_run_query`` (which already isolates ordinary per-query
    failures) is shipped as an ``("error", ...)`` message so one broken
    task cannot take the whole run down.
    """
    _worker_init()
    benchmark, estimator, queries = _FORK_STATE
    pid = os.getpid()
    # Tracing is process-local: spans recorded in a forked worker would
    # be lost (and cost time), so the tracer inherited from the forking
    # thread is switched off.
    with obs_trace.use_tracer(None):
        while True:
            chunk = task_queue.get()
            if chunk is None:  # sentinel: run is over
                break
            result_pipe.send(("chunk", list(chunk), pid))
            for index in chunk:
                result_pipe.send(("start", index, pid))
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
    max_crash_retries: int = 1,
    chunk_size: int | None = None,
):
    """Evaluate ``queries`` with ``estimator`` across ``workers`` processes.

    Queries are dispatched in chunks of ``chunk_size`` (auto-sized by
    :func:`dispatch_chunks` when ``None``) so per-task queue overhead
    is paid once per chunk, not once per query.  Returns the list of
    ``QueryRun`` results in workload order; every worker's metrics are
    merged into the parent registry as results arrive.  The caller is
    responsible for estimator preparation (fit / preload) *before*
    this call so the forked children inherit the ready state.

    ``on_complete(position, run)`` fires in completion order for every
    query that genuinely finished (including terminal failures) — the
    benchmark's checkpoint hook.  Queries still unfinished when
    ``campaign_deadline`` expires are filled with failed ``QueryRun``s
    (not passed to ``on_complete``) so the result set stays complete
    without recording them as done.
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
    chunks_in_flight: dict[object, set[int]] = {}  # reader pipe -> claimed chunk
    crash_counts: dict[int, int] = {}
    processes: dict[object, object] = {}  # reader pipe -> Process

    def finish(index: int, run) -> None:
        outcomes[index] = run
        if on_complete is not None:
            on_complete(index, run)

    _FORK_STATE = (benchmark, estimator, queries)
    task_queue = context.Queue()
    shared_columns = SharedColumns(
        getattr(benchmark, "database", None), SHARE_COLUMNS_MIN_BYTES
    )
    try:
        # Pin the largest tables' columns in shared memory before any
        # fork so every worker maps one copy instead of CoW-duplicating.
        shared_columns.share()
        if shared_columns.shared_bytes:
            registry.counter("parallel.shared_column_bytes").inc(
                shared_columns.shared_bytes
            )
            obs_events.emit(
                "parallel.columns_shared",
                level="debug",
                bytes=shared_columns.shared_bytes,
                tables=list(shared_columns.shared_tables),
            )
        for chunk in dispatch_chunks(len(queries), workers, chunk_size):
            task_queue.put(chunk)

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
            worker really died mid-query.  The whole in-flight chunk is
            requeued: the query that was mid-run counts against its
            crash budget; the chunk's not-yet-started queries carry no
            blame and are simply redispatched.
            """
            process = processes.pop(reader)
            process.join()
            reader.close()
            index = claimed.pop(reader, None)
            chunk = chunks_in_flight.pop(reader, set())
            crashed_mid_query = index is not None and index not in outcomes
            if crashed_mid_query:
                registry.counter("benchmark.worker_crashes").inc()
                crash_counts[index] = crash_counts.get(index, 0) + 1
                requeued = crash_counts[index] <= max_crash_retries
                obs_events.emit(
                    "worker.crashed",
                    level="warning",
                    worker=process.pid,
                    exit_code=process.exitcode,
                    query=queries[index].query.name,
                    requeued=requeued,
                )
                if requeued:
                    task_queue.put([index])
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
            unstarted = sorted(
                i for i in chunk if i != index and i not in outcomes
            )
            if unstarted:
                task_queue.put(unstarted)
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
                if kind == "chunk":
                    chunks_in_flight[reader] = set(message[1])
                elif kind == "start":
                    index = message[1]
                    claimed[reader] = index
                    obs_progress.record_claim(index, worker=worker_pid)
                    obs_events.emit(
                        "query.claimed",
                        level="debug",
                        query=queries[index].query.name,
                        worker=message[2] if len(message) > 2 else worker_pid,
                    )
                elif kind == "done":
                    _, index, run, dump = message
                    claimed.pop(reader, None)
                    chunks_in_flight.get(reader, set()).discard(index)
                    if index not in outcomes:  # requeue may rarely duplicate
                        registry.merge(dump)
                        finish(index, run)
                elif kind == "error":
                    _, index, error = message
                    claimed.pop(reader, None)
                    chunks_in_flight.get(reader, set()).discard(index)
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
        shared_columns.restore()
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
