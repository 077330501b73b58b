"""Hierarchical tracing with a JSONL exporter.

A :class:`Tracer` records a tree of *spans* — named, timed sections of
work carrying attributes and parent links — so one benchmark query can
be decomposed exactly the way the paper decomposes end-to-end time:

.. code-block:: text

    query
    ├── inference          (estimator sub-plan estimates)
    ├── planning           (DP join-order search)
    └── execution
        ├── hash_join
        │   ├── seq_scan
        │   └── seq_scan
        └── ...

Instrumented code never talks to a tracer directly; it calls the
module-level :func:`span` context manager, which is a shared no-op
unless a tracer has been installed with :func:`use_tracer`.  The
current tracer lives in a :class:`~contextvars.ContextVar`, so it is
scoped per thread: a campaign installs one for its whole run, and a
serving process installs one per request in that request's own
context while other requests trace into their own.  The disabled path
is a single context-variable read plus a constant context-manager
enter/exit, so leaving instrumentation in hot call sites is safe.

Traces serialize one span per line as JSON (:meth:`Tracer.export_jsonl`)
and can be reloaded and pretty-printed with :func:`load_trace` /
:func:`render_trace` (the ``repro trace`` CLI verb).
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.jsonl import read_jsonl


@dataclass
class Span:
    """One timed section of work inside a trace."""

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    started_unix: float
    attributes: dict = field(default_factory=dict)
    duration_seconds: float = 0.0
    status: str = "ok"

    def set(self, **attributes) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "started_unix": self.started_unix,
            "duration_seconds": self.duration_seconds,
            "status": self.status,
            "attributes": self.attributes,
        }


class _NullSpan:
    """Shared do-nothing span: the disabled-mode recorder."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a tree of finished spans for one trace."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, /, **attributes):
        self._next_id += 1
        span = Span(
            name=name,
            span_id=f"{self.trace_id}.{self._next_id}",
            trace_id=self.trace_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            started_unix=time.time(),
            attributes=dict(attributes),
        )
        self._stack.append(span)
        started = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.status = f"error:{type(exc).__name__}"
            raise
        finally:
            span.duration_seconds = time.perf_counter() - started
            self._stack.pop()
            self.spans.append(span)

    def record(self, name: str, duration_seconds: float = 0.0, /, **attributes) -> Span:
        """Append an already-measured span under the current parent.

        For work that finished before a tracer could wrap it (e.g. the
        time a round's batch waited to be assembled, which elapses
        before the batch tracer exists): the span is backdated so its
        start lines up with when the measured work began.
        """
        self._next_id += 1
        span = Span(
            name=name,
            span_id=f"{self.trace_id}.{self._next_id}",
            trace_id=self.trace_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            started_unix=time.time() - duration_seconds,
            attributes=dict(attributes),
            duration_seconds=duration_seconds,
        )
        self.spans.append(span)
        return span

    def to_dicts(self) -> list[dict]:
        """Finished spans in start order (parents precede children)."""
        return [span.to_dict() for span in sorted(self.spans, key=_span_sort_key)]

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the trace as one JSON object per line."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for item in self.to_dicts():
                handle.write(json.dumps(item) + "\n")
        return path


def _span_sort_key(span: Span) -> tuple:
    return (span.started_unix, int(span.span_id.rsplit(".", 1)[-1]))


# -- the current tracer -------------------------------------------------------

_CURRENT: ContextVar[Tracer | None] = ContextVar("repro_tracer", default=None)
_FRESH = object()


def active_tracer() -> Tracer | None:
    """The tracer installed in this context, or ``None`` when disabled."""
    return _CURRENT.get()


def is_active() -> bool:
    return _CURRENT.get() is not None


@contextmanager
def use_tracer(tracer: Tracer | None = _FRESH):
    """Install ``tracer`` for the enclosed block; the previous one returns after.

    ``with use_tracer() as t: ... t.export_jsonl(p)`` records onto a
    fresh :class:`Tracer`; ``use_tracer(None)`` turns tracing off for
    the block.  The tracer is scoped to the calling thread: a thread
    started inside the block begins with no tracer.
    """
    installed = Tracer() if tracer is _FRESH else tracer
    token = _CURRENT.set(installed)
    try:
        yield installed
    finally:
        _CURRENT.reset(token)


def span(name: str, /, **attributes):
    """Record a span on the current tracer; no-op when tracing is off.

    The returned object is a context manager whose ``as`` target
    supports ``.set(**attrs)`` either way, so call sites need no
    enabled/disabled branches of their own.
    """
    tracer = _CURRENT.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attributes)


# -- trace files --------------------------------------------------------------


def load_trace(path: str | Path) -> list[dict]:
    """Read a JSONL trace file back into span dicts.

    Tolerates a torn final line — the signature of a killed writer on
    an append-only trace file (the serving path's exporter) — the same
    way :func:`repro.obs.events.load_events` does.  Unlike it, a
    missing file raises ``FileNotFoundError``: the caller named a trace.
    """
    return read_jsonl(path, missing_ok=False)


def render_trace(spans: list[dict]) -> str:
    """Pretty-print a trace as an indented tree with timings."""
    by_parent: dict[str | None, list[dict]] = {}
    known = {span["span_id"] for span in spans}
    for span_ in spans:
        parent = span_["parent_id"]
        if parent not in known:
            parent = None  # orphaned span: promote to a root
        by_parent.setdefault(parent, []).append(span_)

    lines: list[str] = []

    def emit(span_: dict, indent: int) -> None:
        pad = "  " * indent
        duration = span_["duration_seconds"] * 1000.0
        attrs = ""
        if span_["attributes"]:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(span_["attributes"].items())
            )
            attrs = f"  [{rendered}]"
        status = "" if span_["status"] == "ok" else f"  !{span_['status']}"
        lines.append(f"{pad}{span_['name']}  {duration:.3f} ms{attrs}{status}")
        for child in by_parent.get(span_["span_id"], []):
            emit(child, indent + 1)

    for root in by_parent.get(None, []):
        emit(root, 0)
    return "\n".join(lines)
