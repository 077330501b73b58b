"""Where serving traces and access records go.

Request tracing itself is :mod:`repro.obs.trace`: every HTTP request
gets its own :class:`~repro.obs.trace.Tracer` whose trace id *is* the
request id (minted or adopted from ``X-Request-ID``), installed with
:func:`~repro.obs.trace.use_tracer` in the request's own context, so
what the request runs — parse, ``queue_wait``, ``/subplans`` inference
— records into it and into no other request's trace.  A round's
``batch`` span lists the ``queue_wait`` span of every member in its
``links``, and each ``queue_wait`` names its batch back
(:mod:`repro.serve.service`), so one batch is navigable from each of
the requests it priced — and vice versa.

Durability follows the event-log rules: spans are appended to one
JSONL file (:class:`TraceSink`, one whole-trace write + flush per
request, thread-safe), so a killed server leaves every finished
request's trace readable; :func:`repro.obs.trace.load_trace` skips a
torn tail.  The :class:`AccessLog` is the same shape for request
outcomes: one flushed JSON line per served request.

Export is **asynchronous**: serialization and the write+flush
syscalls run on a per-file daemon writer thread, so the request
critical path only pays a queue put (the same batching-exporter shape
OpenTelemetry uses).  ``flush()`` blocks until everything enqueued so
far is on disk — tests and scrapers that read the files of a *live*
server call it first; ``close()`` drains before closing, so shutdown
loses nothing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

from repro.obs.jsonl import open_append
from repro.obs.trace import Span


class _JsonlWriter:
    """Polling daemon-thread JSONL appender behind TraceSink and AccessLog.

    ``submit`` appends a list of dicts to a deque and returns — about a
    microsecond on the request critical path.  The writer thread wakes
    on a short poll tick (not per submit: a condition-variable wakeup
    per request costs two orders of magnitude more in GIL/scheduler
    ping-pong than the append) and drains everything pending into
    contiguous writes plus one flush, so concurrent producers never
    interleave half-traces and a kill leaves at most one torn line.
    """

    #: Export lag ceiling; readers of a live file see records at most
    #: one tick late (or immediately after ``flush()``).
    poll_seconds = 0.02

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = open_append(self.path)
        self._pending: deque = deque()
        self._io_lock = threading.Lock()
        self._stop = threading.Event()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name=f"jsonl-writer:{self.path.name}", daemon=True
        )
        self._thread.start()

    def submit(self, records: list[dict]) -> bool:
        if self._closed:
            return False
        self._pending.append(records)
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            self._drain()
        self._drain()

    def _drain(self) -> None:
        with self._io_lock:
            wrote = False
            while True:
                try:
                    records = self._pending.popleft()
                except IndexError:
                    break
                try:
                    self._handle.write(
                        "".join(
                            json.dumps(record, default=str) + "\n"
                            for record in records
                        )
                    )
                    wrote = True
                except Exception:
                    pass  # a poison record must not kill the writer
            if wrote:
                self._handle.flush()

    def flush(self, timeout: float = 10.0) -> None:
        """Block until everything submitted before the call is on disk."""
        deadline = time.monotonic() + timeout
        while self._pending and time.monotonic() < deadline:
            if self._closed or not self._thread.is_alive():
                break
            time.sleep(0.002)
        self._drain()  # belt and braces: also covers a closed writer

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._drain()  # submits that raced the close flag
        with self._io_lock:
            self._handle.close()


class TraceSink:
    """Thread-safe append-only JSONL span writer for one serving process.

    One ``write_spans`` call enqueues a whole trace (or batch-group)
    for the writer thread, which appends it as one buffered write plus
    one flush.  ``spans_written`` counts accepted spans at enqueue
    time; call :meth:`flush` before reading the file of a live server.
    """

    def __init__(self, path: str | Path):
        self._writer = _JsonlWriter(path)
        self._lock = threading.Lock()
        self._spans_written = 0

    @property
    def path(self) -> Path:
        return self._writer.path

    @property
    def spans_written(self) -> int:
        return self._spans_written

    def write_spans(self, spans: list[Span] | list[dict]) -> None:
        if not spans:
            return
        records = [
            span if isinstance(span, dict) else span.to_dict() for span in spans
        ]
        if self._writer.submit(records):
            with self._lock:
                self._spans_written += len(records)

    def flush(self) -> None:
        self._writer.flush()

    def close(self) -> None:
        self._writer.close()


class AccessLog:
    """Append-only JSONL access log: one flushed line per request.

    Timestamps are taken on the recording thread; serialization and
    disk I/O ride the writer thread.  ``count`` is the number of
    accepted records at enqueue time; call :meth:`flush` before
    reading the file of a live server.
    """

    def __init__(self, path: str | Path, clock=time.time):
        self._writer = _JsonlWriter(path)
        self._lock = threading.Lock()
        self._clock = clock
        self._count = 0

    @property
    def path(self) -> Path:
        return self._writer.path

    @property
    def count(self) -> int:
        return self._count

    def record(
        self,
        *,
        request_id: str,
        route: str,
        method: str,
        status: int,
        latency_seconds: float,
        **fields,
    ) -> None:
        record = {
            "ts": self._clock(),
            "request_id": request_id,
            "route": route,
            "method": method,
            "status": int(status),
            "latency_ms": round(latency_seconds * 1000.0, 4),
        }
        record.update(fields)
        if self._writer.submit([record]):
            with self._lock:
                self._count += 1

    def flush(self) -> None:
        self._writer.flush()

    def close(self) -> None:
        self._writer.close()
