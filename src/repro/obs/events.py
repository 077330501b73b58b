"""Structured, run-scoped event log (JSONL).

Where :mod:`repro.obs.trace` answers *"where did the time go inside
one query"*, the event log answers *"what happened to the campaign"*:
one append-only JSONL file per run, one JSON object per line, each
carrying a wall-clock timestamp, a severity level, an event name and
whatever context was bound when it was emitted (campaign, estimator,
query — attached automatically via :func:`context`).

Design rules, mirroring the tracer:

- **Scoped like the tracer.**  The installed log and the fields bound
  by :func:`context` live in one :class:`~contextvars.ContextVar`,
  set by :func:`use_event_log` for a ``with`` block.  A thread started
  inside the block begins with no log, so a serving process installs
  its log in each request's own context, and two threads sharing
  one log never see each other's fields.
- **No-op when disabled.**  :func:`emit` is a single context-variable
  read until a log is installed, so instrumented call sites (benchmark
  driver, fallback path, executor abort path) stay free on untelemetered
  runs.
- **Durable per line.**  Every event is written and flushed as one
  ``\\n``-terminated line, so a campaign killed at any instant leaves a
  readable log; :func:`load_events` skips a torn final line the same
  way checkpoint resume does.
- **Process-local.**  Forked benchmark workers leave the inherited log
  with ``use_event_log(None)`` (see :mod:`repro.core.parallel`); the
  parent emits completion events from the streamed worker messages
  instead, keeping one writer per file.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path

from repro.obs.jsonl import open_append, read_jsonl

#: Severity ranks; events below the log's threshold are dropped.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class EventLog:
    """Append-only JSONL event sink; thread-safe, one flushed line per event."""

    def __init__(
        self,
        path: str | Path,
        level: str = "info",
        clock=time.time,
    ):
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r} (choose from {sorted(LEVELS)})")
        self.path = Path(path)
        self.level = level
        self._threshold = LEVELS[level]
        self._clock = clock
        self._lock = threading.Lock()
        self._count = 0
        self._handle = open_append(self.path)

    @property
    def count(self) -> int:
        """Events written by this log instance."""
        return self._count

    def emit(self, event: str, level: str = "info", **fields) -> None:
        """Write one event line (dropped when below the log's level)."""
        rank = LEVELS.get(level)
        if rank is None:
            raise ValueError(f"unknown level {level!r}")
        if rank < self._threshold:
            return
        record = {"ts": self._clock(), "level": level, "event": event}
        if fields:
            record.update(fields)
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line)
            self._handle.flush()
            self._count += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- the current log ----------------------------------------------------------

#: ``(log, bound context fields)`` installed in this context, or None.
_ACTIVE: ContextVar[tuple[EventLog, dict] | None] = ContextVar(
    "repro_event_log", default=None
)


@contextmanager
def use_event_log(log: EventLog | str | Path | None, level: str = "info"):
    """Install ``log`` for the enclosed block; the previous one returns after.

    A path opens a new :class:`EventLog` at ``level``, closed when the
    block ends; a log passed in stays open (its owner closes it);
    ``None`` turns event logging off for the block.  Like
    :func:`repro.obs.trace.use_tracer`, the log is scoped to the
    calling thread, and the block starts with no bound fields.
    """
    owned = log is not None and not isinstance(log, EventLog)
    if owned:
        log = EventLog(log, level=level)
    token = _ACTIVE.set(None if log is None else (log, {}))
    try:
        yield log
    finally:
        _ACTIVE.reset(token)
        if owned:
            log.close()


def emit(event: str, level: str = "info", **fields) -> None:
    """Emit on the installed log; no-op when event logging is off."""
    active = _ACTIVE.get()
    if active is not None:
        log, bound = active
        log.emit(event, level=level, **(bound | fields))


@contextmanager
def context(**fields):
    """Bind context fields to every event emitted in the enclosed block.

    A no-op when logging is off.  Nested scopes (campaign > query)
    compose: inner values shadow outer ones until the inner block ends.
    """
    active = _ACTIVE.get()
    if active is None:
        yield
        return
    log, bound = active
    token = _ACTIVE.set((log, bound | fields))
    try:
        yield
    finally:
        _ACTIVE.reset(token)


# -- event files --------------------------------------------------------------


def load_events(path: str | Path, min_level: str = "debug") -> list[dict]:
    """Read a JSONL event file back into dicts, tolerating torn tails.

    A truncated final line (the signature of a killed writer) is
    skipped, as are blank lines; everything before it is intact because
    events are flushed whole.  ``min_level`` filters on read.
    """
    threshold = LEVELS[min_level]
    return [
        record
        for record in read_jsonl(path)
        if LEVELS.get(record.get("level", "info"), 20) >= threshold
    ]
