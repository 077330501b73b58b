"""Shared routed HTTP machinery for the live endpoints.

:class:`RoutedHTTPServer` serves both live HTTP surfaces (the campaign's
:class:`repro.obs.progress.MetricsServer` and :mod:`repro.serve`) from
**one thread**: a :mod:`selectors` loop that parses HTTP/1.1 itself
(keep-alive, ``Content-Length`` bodies, one request in flight per
connection) and routes on ``(method, path component)``.  The requests
parsed in one wake-up (and one more poll that does not wait) are a
**round**: what their generator routes yield goes, in one list, to the
server's ``batch`` callable, then each route resumes.  Each route runs
in a :class:`contextvars.Context` of its own, so a tracer it installs
stays its own across the ``yield``.  Slow routes run on one worker
thread (:meth:`RoutedHTTPServer.add_worker_route`).
Untrusted input is bounded before any body is read: 431 above
:data:`MAX_HEAD_BYTES` of head, 400 for a ``Content-Length`` that is not
a non-negative integer (or any malformed request), 413 above
:data:`MAX_BODY_BYTES`, and a connection buffers one largest request at
most.  A client that aborts, or sends junk, costs its connection only.
"""

from __future__ import annotations

import contextvars
import json
import queue
import re
import selectors
import socket
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from http import HTTPStatus
from types import GeneratorType
from urllib.parse import urlsplit

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

REQUEST_ID_HEADER = "X-Request-ID"

#: A request line plus headers longer than this is answered 431.
MAX_HEAD_BYTES = 16 * 1024

#: A declared body longer than this is answered 413 before it is read.
#: The largest body the repo sends is one STATS-CEB query (at most
#: ~0.75 KB as ``{"sql": ...}``); 1 MiB still admits an
#: ``/estimate_batch`` of 1 024 of the longest such queries, one
#: ``estimate_batch`` call's worth.
MAX_BODY_BYTES = 1024 * 1024

#: A connection's input is read up to this, then not until a request is
#: taken out: a full inbox holds a whole request (or an over-long head).
_INBOX_LIMIT = MAX_HEAD_BYTES + MAX_BODY_BYTES

#: Characters allowed in a client-supplied request id (anything else is
#: stripped before the id is echoed into headers, logs and traces).
_REQUEST_ID_SAFE = re.compile(r"[^A-Za-z0-9._\-]")


def sanitize_request_id(supplied: str | None) -> str:
    """A client-supplied ``X-Request-ID`` value, made safe to echo.

    Strips anything outside ``[A-Za-z0-9._-]`` and caps the length; an
    empty or all-junk value mints a fresh id instead, so every response
    carries a usable correlation id either way.
    """
    cleaned = _REQUEST_ID_SAFE.sub("", supplied or "")[:64]
    return cleaned or uuid.uuid4().hex[:16]


class ServerStartError(RuntimeError):
    """The server socket could not be bound (address in use, bad host)."""


class HTTPError(Exception):
    """A route failure with an explicit HTTP status.

    Routes raise this (or a :class:`ServerStartError`-style subclass
    mapped by the app layer) to produce a structured JSON error body
    instead of a 500.
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def parse_address(addr: str, flag: str = "--metrics-addr") -> tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` -> ``(host, port)``; ValueError on junk."""
    host, _, port_text = addr.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"{flag} expects HOST:PORT or :PORT, got {addr!r}"
        ) from None
    return host, port


@dataclass
class Request:
    """One parsed HTTP request as seen by a route callable."""

    method: str
    path: str
    body: bytes = b""
    #: Adopted from the client's ``X-Request-ID`` header (sanitized) or
    #: minted by the server; echoed on every response, success or error.
    request_id: str = ""

    def json(self) -> dict:
        """The request body as a JSON object; HTTP 400 on anything else."""
        if not self.body:
            raise HTTPError(400, "request body must be a JSON object")
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as error:
            raise HTTPError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return payload


@dataclass
class Response:
    """What a route returns; ``body`` may be bytes, text or a JSON dict."""

    status: int = 200
    body: bytes | str | dict = b""
    content_type: str = "application/json"

    def encoded(self) -> bytes:
        if isinstance(self.body, bytes):
            return self.body
        if isinstance(self.body, str):
            return self.body.encode()
        return (json.dumps(self.body, sort_keys=True) + "\n").encode()


def json_response(payload: dict, status: int = 200) -> Response:
    return Response(status=status, body=payload)


def text_response(text: str, content_type: str = "text/plain") -> Response:
    return Response(body=text, content_type=content_type)


def _normalize(path: str) -> str:
    return path.rstrip("/") or "/"


def _failure(error: Exception, request_id: str) -> Response:
    """The JSON error response for ``error``; a route bug is a 500."""
    if isinstance(error, HTTPError):
        return json_response({"error": str(error), "request_id": request_id}, error.status)
    message = f"{type(error).__name__}: {error}"
    return json_response({"error": message, "request_id": request_id}, 500)


def run_route(route, request: Request):
    """Any route as a generator: a plain route's response is its return value."""
    outcome = route(request)
    if isinstance(outcome, GeneratorType):
        outcome = yield from outcome
    return outcome


_PHRASES = {status.value: status.phrase for status in HTTPStatus}


@dataclass(eq=False, slots=True)
class _Connection:
    """One client socket, its unparsed input and its unsent output."""

    sock: socket.socket
    inbox: bytearray = field(default_factory=bytearray)
    outbox: bytes | memoryview = b""
    events: int = 0  # what the selector watches; 0 = not registered
    close_after: bool = False


class _Call:
    """One request being answered: its route runs as a generator in ``context``."""

    __slots__ = ("conn", "request", "keep_alive", "context", "gen", "item", "response")

    def __init__(self, conn, request: Request, keep_alive: bool = False, route=None):
        self.conn = conn
        self.request = request
        self.keep_alive = keep_alive
        self.context = contextvars.Context()
        self.gen = run_route(route, request) if route is not None else None
        self.item = None
        self.response: Response | None = None

    def advance(self, error: Exception | None = None) -> bool:
        """Run the route to its next ``yield`` (True) or to its answer (False)."""
        try:
            step = self.gen.send if error is None else self.gen.throw
            self.item = self.context.run(step, error)
            return True
        except StopIteration as stop:
            self.response = stop.value
        except Exception as failure:
            self.response = _failure(failure, self.request.request_id)
        return False


class RoutedHTTPServer:
    """A bind/start-split, single-threaded HTTP server over a route table.

    The constructor *binds* (raising :class:`ServerStartError` on an
    address conflict, before any thread starts); :meth:`start` begins
    the loop and the worker on daemon threads; :meth:`close` is
    idempotent and returns whether they joined.  ``batch(items)``
    receives what a round's generator routes yielded.
    """

    def __init__(
        self,
        addr: str,
        flag: str = "--metrics-addr",
        thread_name: str = "repro-httpd",
        batch=None,
    ):
        host, port = parse_address(addr, flag=flag)
        self.routes: dict[tuple[str, str], object] = {}
        self._worker_routes: set[tuple[str, str]] = set()
        self._batch = batch
        self._thread_name = thread_name
        self._threads: list[threading.Thread] = []
        self._closed = False
        try:
            # The backlog takes a burst of 64+ clients connecting at once.
            self._listener = socket.create_server((host, port), backlog=128)
        except OSError as error:
            raise ServerStartError(
                f"cannot bind {flag}={addr!r}: {error.strerror or error}"
            ) from error
        self._wake_in, self._wake_out = socket.socketpair()
        for sock in (self._listener, self._wake_in, self._wake_out):
            sock.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_in, selectors.EVENT_READ, self)
        self._connections: set[_Connection] = set()
        # Idle connections whose input may hold a complete request.
        self._ready: dict[_Connection, None] = {}
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()  # for the worker
        self._replies: deque[_Call] = deque()  # from the worker

    def add_route(self, method: str, path: str, fn) -> None:
        """Serve ``fn(request) -> Response`` (or a generator) on the loop."""
        self.routes[(method.upper(), _normalize(path))] = fn

    def add_worker_route(self, method: str, path: str, fn) -> None:
        """Like :meth:`add_route`, but ``fn`` runs on the one worker thread."""
        self.add_route(method, path, fn)
        self._worker_routes.add((method.upper(), _normalize(path)))

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — callers may bind port 0."""
        return self._listener.getsockname()[:2]

    def start(self) -> "RoutedHTTPServer":
        if self._closed:
            raise RuntimeError("server already closed")
        if not self._threads:
            self._threads = [
                threading.Thread(target=self._serve, name=self._thread_name, daemon=True),
                threading.Thread(
                    target=self._work, name=f"{self._thread_name}-worker", daemon=True
                ),
            ]
            for thread in self._threads:
                thread.start()
        return self

    def close(self, timeout: float = 5.0) -> bool:
        """Stop serving; safe to call twice.  True iff no serving thread
        remains alive (a never-started server closes trivially)."""
        if not self._closed:
            self._closed = True
            if self._threads:
                self._wake()
                self._jobs.put(None)
            else:
                self._release()
        for thread in self._threads:
            thread.join(timeout=timeout)
        return not any(thread.is_alive() for thread in self._threads)

    # -- the loop ----------------------------------------------------------

    def _serve(self) -> None:
        try:
            while not self._closed:
                # (A round's own poll may have consumed a worker's wake-up.)
                self._poll(0 if self._ready or self._replies else None)
                while self._replies:
                    self._respond(self._replies.popleft())
                if self._ready:
                    self._round()
        finally:
            self._release()

    def _poll(self, timeout: float | None) -> None:
        for key, mask in self._selector.select(timeout):
            if key.data is None:
                self._accept()
            elif key.data is self:
                self._wake_in.recv(4096)  # a worker reply, or close()
            elif mask & selectors.EVENT_WRITE:
                self._flush(key.data)
            else:
                self._receive(key.data)

    def _round(self) -> None:
        """Answer one request per ready connection together; what arrived
        while they were parsed joins them (one more poll, which never waits)."""
        calls = self._parse_ready(())
        if calls:
            self._poll(0)
            calls += self._parse_ready({call.conn for call in calls})
        self._answer(calls)
        for call in calls:
            self._respond(call)

    def _parse_ready(self, busy) -> list[_Call]:
        """One call per ready connection, skipping ``busy`` ones (their
        request is still being answered)."""
        calls = []
        ready, self._ready = self._ready, {}
        for conn in ready:
            if conn in busy:
                continue  # read on once its reply is out
            try:
                parsed = self._parse(conn)
            except Exception as error:  # this connection's request only
                if not isinstance(error, HTTPError):
                    error = HTTPError(400, f"malformed request: {error}")
                refused = _Call(conn, Request("", "", request_id=sanitize_request_id(None)))
                refused.response = _failure(error, refused.request.request_id)
                self._respond(refused)
                continue
            if parsed is None:
                continue  # incomplete: wait for more input
            request, keep_alive = parsed
            key = (request.method, request.path)
            call = _Call(conn, request, keep_alive, self.routes.get(key, self._no_route))
            if key in self._worker_routes:
                self._watch(conn, 0)  # nothing more is read until it answers
                self._jobs.put(call)
            else:
                calls.append(call)
        return calls

    def _answer(self, calls: list[_Call]) -> None:
        """Run the calls' routes; what they yield goes to one batch call per pass."""
        waiting = [call for call in calls if call.advance()]
        while waiting:
            try:
                self._batch([call.item for call in waiting])
            except Exception as error:  # handed to every yielding route
                waiting = [call for call in waiting if call.advance(error)]
            else:
                waiting = [call for call in waiting if call.advance()]

    def _no_route(self, request: Request) -> Response:
        known = sorted({m for m, p in self.routes if p == request.path})
        if known:
            raise HTTPError(405, f"{request.path} only supports {', '.join(known)}")
        raise HTTPError(404, f"no route {request.path}")

    def _work(self) -> None:
        """The worker thread: answer its calls, hand the replies to the loop."""
        while (call := self._jobs.get()) is not None:
            self._answer([call])
            self._replies.append(call)
            self._wake()

    def _wake(self) -> None:
        try:
            self._wake_out.send(b"\0")
        except OSError:
            pass  # a wake-up is pending anyway, or the loop is gone

    # -- sockets -----------------------------------------------------------

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # nothing left to accept (or a transient error)
                return
            sock.setblocking(False)
            # A response goes out in one send; should it take two, Nagle
            # would hold the second back for the client's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock)
            self._connections.add(conn)
            self._watch(conn, selectors.EVENT_READ)

    def _watch(self, conn: _Connection, events: int) -> None:
        if conn.events == events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _receive(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(min(65536, _INBOX_LIMIT - len(conn.inbox)))
        except BlockingIOError:
            return
        except OSError:  # the client aborted: nothing to answer
            data = b""
        if not data:
            self._drop(conn)
            return
        conn.inbox += data
        self._ready[conn] = None
        if len(conn.inbox) >= _INBOX_LIMIT:
            self._watch(conn, 0)  # read on once its reply is out

    def _respond(self, call: _Call) -> None:
        conn, response, keep_alive = call.conn, call.response, call.keep_alive
        body = response.encoded()
        head = (
            f"HTTP/1.1 {response.status} {_PHRASES.get(response.status, '')}\r\n"
            f"Content-Type: {response.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{REQUEST_ID_HEADER}: {call.request.request_id}\r\n"
            + ("\r\n" if keep_alive else "Connection: close\r\n\r\n")
        )
        conn.outbox = head.encode("latin-1") + body
        conn.close_after = not keep_alive
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbox)
        except BlockingIOError:
            sent = 0
        except OSError:  # the client aborted mid-response
            self._drop(conn)
            return
        if sent < len(conn.outbox):
            conn.outbox = memoryview(conn.outbox)[sent:]
            self._watch(conn, selectors.EVENT_WRITE)
        elif conn.close_after:
            self._drop(conn)
        else:
            full = len(conn.inbox) >= _INBOX_LIMIT  # a round's poll filled it
            self._watch(conn, 0 if full else selectors.EVENT_READ)
            if conn.inbox:  # a pipelined request: next round, without waiting
                self._ready[conn] = None

    def _drop(self, conn: _Connection) -> None:
        self._watch(conn, 0)
        self._connections.discard(conn)
        self._ready.pop(conn, None)
        conn.sock.close()

    def _release(self) -> None:
        for conn in list(self._connections):
            self._drop(conn)
        self._selector.close()
        for sock in (self._listener, self._wake_in, self._wake_out):
            sock.close()

    # -- parsing -----------------------------------------------------------

    def _parse(self, conn: _Connection) -> tuple[Request, bool] | None:
        """The connection's next complete request and whether to keep the
        connection open after it; ``None`` until all of it has arrived.
        Raises :class:`HTTPError` for a request that must not be read on."""
        inbox = conn.inbox
        end = inbox.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)
        if end < 0:
            if len(inbox) >= MAX_HEAD_BYTES:
                raise HTTPError(431, f"request head exceeds {MAX_HEAD_BYTES} bytes")
            return None
        request_line, *header_lines = inbox[:end].decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
            raise HTTPError(400, f"malformed request line {request_line[:80]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}  # by lower-cased name
        for line in header_lines:
            name, colon, value = line.partition(":")
            name, value = name.strip().lower(), value.strip()
            if not colon or not name:
                raise HTTPError(400, f"malformed header line {line[:80]!r}")
            if headers.setdefault(name, value) != value and name == "content-length":
                raise HTTPError(400, "conflicting Content-Length headers")
        if "transfer-encoding" in headers:
            raise HTTPError(501, "Transfer-Encoding is not supported; send Content-Length")
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise HTTPError(400, f"invalid Content-Length {declared[:40]!r}")
        if int(declared) > MAX_BODY_BYTES:
            raise HTTPError(413, f"body of {declared} bytes exceeds {MAX_BODY_BYTES}")
        total = end + 4 + int(declared)
        if len(inbox) < total:
            return None
        body = bytes(inbox[end + 4 : total])
        del inbox[:total]
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close" if version == "HTTP/1.1" else connection == "keep-alive"
        )
        request_id = sanitize_request_id(headers.get(REQUEST_ID_HEADER.lower()))
        path = _normalize(urlsplit(target).path)  # may raise ValueError: a 400
        return Request(method, path, body, request_id), keep_alive
