"""Structured, run-scoped event log (JSONL).

Where :mod:`repro.obs.trace` answers *"where did the time go inside
one query"*, the event log answers *"what happened to the campaign"*:
one append-only JSONL file per run, one JSON object per line, each
carrying a wall-clock timestamp, a severity level, an event name and
whatever context was bound when it was emitted (campaign, estimator,
query — attached automatically via :func:`context`).

Design rules, mirroring the tracer:

- **No-op when disabled.**  :func:`emit` is a single global read until
  an :class:`EventLog` is activated, so instrumented call sites
  (benchmark driver, retry path, executor abort path) stay free on
  untelemetered runs.
- **Durable per line.**  Every event is written and flushed as one
  ``\\n``-terminated line, so a campaign killed at any instant leaves a
  readable log; :func:`load_events` skips a torn final line the same
  way checkpoint resume does.
- **Process-local.**  Forked benchmark workers deactivate the
  inherited log (see :mod:`repro.core.parallel`); the parent emits
  completion events from the streamed worker messages instead, keeping
  one writer per file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.jsonl import open_append, read_jsonl

#: Severity ranks; events below the log's threshold are dropped.
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class EventLog:
    """Append-only JSONL event sink with bound context fields."""

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
        self._context: dict = {}
        self._count = 0
        self._handle = open_append(self.path)

    @property
    def count(self) -> int:
        """Events written by this log instance."""
        return self._count

    def bind(self, **fields) -> None:
        """Attach context fields to every subsequent event."""
        self._context.update(fields)

    def unbind(self, *names: str) -> None:
        for name in names:
            self._context.pop(name, None)

    def emit(self, event: str, level: str = "info", **fields) -> None:
        """Write one event line (dropped when below the log's level)."""
        rank = LEVELS.get(level)
        if rank is None:
            raise ValueError(f"unknown level {level!r}")
        if rank < self._threshold or self._handle is None:
            return
        record = {"ts": self._clock(), "level": level, "event": event}
        if self._context:
            record.update(self._context)
        if fields:
            record.update(fields)
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()
        self._count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- module-level sink --------------------------------------------------------

_ACTIVE: EventLog | None = None


def active_log() -> EventLog | None:
    """The installed event log, or ``None`` when logging is off."""
    return _ACTIVE


def is_active() -> bool:
    return _ACTIVE is not None


def activate(log: EventLog | str | Path, level: str = "info") -> EventLog:
    """Install ``log`` (or open one at the given path) process-wide."""
    global _ACTIVE
    if not isinstance(log, EventLog):
        log = EventLog(log, level=level)
    _ACTIVE = log
    return log


def deactivate(close: bool = True) -> None:
    """Uninstall the active log (closing it unless ``close=False``).

    ``close=False`` exists for forked workers: they must drop the
    inherited log without closing the parent's file descriptor.
    """
    global _ACTIVE
    if _ACTIVE is not None and close:
        _ACTIVE.close()
    _ACTIVE = None


@contextmanager
def use_event_log(path: str | Path, level: str = "info"):
    """Scoped activation: ``with use_event_log(p) as log: ...``."""
    log = activate(path, level=level)
    try:
        yield log
    finally:
        deactivate()


def emit(event: str, level: str = "info", **fields) -> None:
    """Emit on the active log; no-op when event logging is off."""
    log = _ACTIVE
    if log is not None:
        log.emit(event, level=level, **fields)


@contextmanager
def context(**fields):
    """Bind context fields on the active log for the enclosed block.

    A no-op when logging is off.  Previous values of the same keys are
    restored on exit, so nested scopes (campaign > query) compose.
    """
    log = _ACTIVE
    if log is None:
        yield
        return
    previous = {name: log._context.get(name, _MISSING) for name in fields}
    log.bind(**fields)
    try:
        yield
    finally:
        # The active log may have changed (e.g. a nested use_event_log
        # scope ended); restore on the one we bound to.
        for name, value in previous.items():
            if value is _MISSING:
                log.unbind(name)
            else:
                log.bind(**{name: value})


_MISSING = object()


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
