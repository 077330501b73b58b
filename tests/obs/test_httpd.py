"""The single-threaded HTTP loop: parsing, bounds, keep-alive, rounds, worker."""

import contextlib
import contextvars
import http.client
import json
import socket
import struct
import threading
import time

import pytest

from repro.obs.httpd import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HTTPError,
    RoutedHTTPServer,
    ServerStartError,
    json_response,
    text_response,
)


@contextlib.contextmanager
def _serving(routes=(), worker_routes=(), batch=None):
    server = RoutedHTTPServer("127.0.0.1:0", batch=batch)
    for method, path, fn in routes:
        server.add_route(method, path, fn)
    for method, path, fn in worker_routes:
        server.add_worker_route(method, path, fn)
    server.start()
    try:
        yield server
    finally:
        assert server.close() is True


def _echo(request):
    return json_response({"path": request.path, "body": request.body.decode()})


ECHO = [("GET", "/echo", _echo), ("POST", "/echo", _echo)]


def _exchange(address, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection; everything read until the server closes."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(raw)
        chunks = []
        while data := sock.recv(65536):
            chunks.append(data)
    return b"".join(chunks)


def _status_and_headers(reply: bytes) -> tuple[int, dict[str, str]]:
    head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in head[1:])
    return int(head[0].split()[1]), headers


def _get(connection, path, headers=None):
    connection.request("GET", path, headers=headers or {})
    response = connection.getresponse()
    return response.status, response.read(), response


class TestUntrustedRequests:
    """Each is answered (and the connection closed) before any body is read."""

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", " "])
    def test_non_integer_or_negative_content_length_is_400(self, declared):
        with _serving(ECHO) as server:
            reply = _exchange(
                server.address,
                f"POST /echo HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n".encode(),
            )
        status, headers = _status_and_headers(reply)
        assert status == 400
        assert headers["Connection"] == "close"
        assert headers["X-Request-ID"]
        assert "Content-Length" in json.loads(reply.split(b"\r\n\r\n", 1)[1])["error"]

    def test_content_length_above_the_cap_is_413_without_reading(self):
        with _serving(ECHO) as server:
            started = time.perf_counter()
            reply = _exchange(
                server.address,
                b"POST /echo HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
            )
            assert time.perf_counter() - started < 2.0
            # The server lives on: the next request is served.
            reply_after = _exchange(server.address, b"GET /echo HTTP/1.0\r\n\r\n")
            assert _status_and_headers(reply_after)[0] == 200
        assert _status_and_headers(reply)[0] == 413

    def test_a_body_at_the_cap_is_read(self):
        body = b"x" * MAX_BODY_BYTES
        with _serving(ECHO) as server:
            reply = _exchange(
                server.address,
                b"POST /echo HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body,
            )
        assert _status_and_headers(reply)[0] == 200
        assert len(json.loads(reply.split(b"\r\n\r\n", 1)[1])["body"]) == MAX_BODY_BYTES

    def test_head_above_the_cap_is_431(self):
        padding = "a" * MAX_HEAD_BYTES
        with _serving(ECHO) as server:
            reply = _exchange(
                server.address, f"GET /echo HTTP/1.1\r\nX-Pad: {padding}\r\n\r\n".encode()
            )
        assert _status_and_headers(reply)[0] == 431

    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /echo HTTP/2.0\r\n\r\n",
            b"GET /echo HTTP/1.1\r\nno colon here\r\n\r\n",
            b"POST /echo HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
        ],
    )
    def test_malformed_requests_are_400(self, raw):
        with _serving(ECHO) as server:
            assert _status_and_headers(_exchange(server.address, raw))[0] == 400

    @pytest.mark.parametrize("target", [b"//[", b"http://[x"])
    def test_an_unparseable_target_costs_its_connection_not_the_server(self, target):
        with _serving(ECHO) as server:
            reply = _exchange(server.address, b"GET %s HTTP/1.1\r\n\r\n" % target)
            assert _status_and_headers(reply)[0] == 400
            reply_after = _exchange(server.address, b"GET /echo HTTP/1.0\r\n\r\n")
            assert _status_and_headers(reply_after)[0] == 200

    def test_pipelined_input_is_buffered_up_to_one_largest_request(self):
        peak = [0]

        class Watched(RoutedHTTPServer):
            def _receive(self, conn):
                super()._receive(conn)
                peak[0] = max(peak[0], len(conn.inbox))

        server = Watched("127.0.0.1:0")
        for method, path, fn in ECHO:
            server.add_route(method, path, fn)
        server.start()
        body = b"q" * 1024
        request = b"POST /echo HTTP/1.1\r\nContent-Length: 1024\r\n\r\n" + body
        count = 4096  # 4.2 MiB pipelined, four times the cap
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sender = threading.Thread(target=sock.sendall, args=(request * count,))
                sender.start()
                reader = sock.makefile("rb")
                statuses = []
                for _ in range(count):
                    statuses.append(int(reader.readline().split()[1]))
                    length = 0
                    while (line := reader.readline()) != b"\r\n":
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    reader.read(length)
                sender.join(timeout=10.0)
                reader.close()
        finally:
            assert server.close() is True
        assert statuses == [200] * count
        assert 0 < peak[0] <= MAX_HEAD_BYTES + MAX_BODY_BYTES

    def test_chunked_bodies_are_refused(self):
        with _serving(ECHO) as server:
            reply = _exchange(
                server.address,
                b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            )
        assert _status_and_headers(reply)[0] == 501


class TestConnections:
    def test_keep_alive_serves_many_requests_on_one_connection(self):
        with _serving(ECHO) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=5.0)
            for index in range(5):
                connection.request("POST", "/echo", body=f"n{index}")
                response = connection.getresponse()
                assert json.loads(response.read())["body"] == f"n{index}"
                assert response.getheader("Connection") is None
            connection.close()

    def test_connection_close_and_http_1_0_close_after_the_reply(self):
        with _serving(ECHO) as server:
            for raw in (
                b"GET /echo HTTP/1.1\r\nConnection: close\r\n\r\n",
                b"GET /echo HTTP/1.0\r\n\r\n",
            ):
                status, headers = _status_and_headers(_exchange(server.address, raw))
                assert (status, headers["Connection"]) == (200, "close")

    def test_pipelined_requests_are_answered_in_order(self):
        raw = b"".join(
            b"POST /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\np%d" % index for index in range(3)
        ) + b"GET /echo HTTP/1.1\r\nConnection: close\r\n\r\n"
        with _serving(ECHO) as server:
            reply = _exchange(server.address, raw)
        bodies = [
            json.loads(part.split(b"\r\n\r\n", 1)[1])["body"]
            for part in reply.split(b"HTTP/1.1 ")[1:]
        ]
        assert bodies == ["p0", "p1", "p2", ""]

    def test_a_response_larger_than_the_socket_buffer_arrives_whole(self):
        big = "y" * (8 * 1024 * 1024)
        with _serving([("GET", "/big", lambda request: text_response(big))]) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=10.0)
            connection.request("GET", "/big")
            response = connection.getresponse()
            time.sleep(0.2)  # the loop meets a full send buffer meanwhile
            assert response.read().decode() == big
            assert _get(connection, "/big")[0] == 200  # and the connection lives on
            connection.close()

    def test_routes_match_the_path_component_and_map_404_405(self):
        with _serving(ECHO) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=5.0)
            status, body, _ = _get(connection, "/echo/?probe=1")
            assert (status, json.loads(body)["path"]) == (200, "/echo")
            assert _get(connection, "/missing")[0] == 404
            connection.request("PUT", "/echo")
            response = connection.getresponse()
            assert response.status == 405
            assert "GET, POST" in json.loads(response.read())["error"]
            connection.close()

    def test_request_id_is_adopted_sanitised_or_minted_on_every_reply(self):
        def failing(request):
            raise HTTPError(418, "teapot")

        with _serving([("GET", "/fail", failing)]) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=5.0)
            status, body, response = _get(connection, "/fail", {"X-Request-ID": "a b!c"})
            assert (status, response.getheader("X-Request-ID")) == (418, "abc")
            assert json.loads(body)["request_id"] == "abc"
            status, _, response = _get(connection, "/missing")
            assert status == 404 and len(response.getheader("X-Request-ID")) == 16
            connection.close()

    def test_client_aborts_cost_the_connection_and_no_traceback(self, capfd):
        big = "z" * (8 * 1024 * 1024)
        with _serving([("GET", "/big", lambda request: text_response(big)), *ECHO]) as server:
            for raw in (b"GET /big HTTP/1.1\r\n\r\n", b"POST /echo HTTP/1.1\r\nContent-Le"):
                sock = socket.create_connection(server.address, timeout=5.0)
                sock.sendall(raw)
                # Reset, not FIN: the server's next send or recv fails.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.close()
            time.sleep(0.2)
            reply = _exchange(server.address, b"GET /echo HTTP/1.0\r\n\r\n")
            assert _status_and_headers(reply)[0] == 200
        assert capfd.readouterr().err == ""


class TestLifecycle:
    def test_bind_conflict_raises_before_any_thread(self):
        with _serving() as holder:
            host, port = holder.address
            before = threading.active_count()
            with pytest.raises(ServerStartError, match="--metrics-addr"):
                RoutedHTTPServer(f"{host}:{port}")
            assert threading.active_count() == before

    def test_close_is_idempotent_and_reports_the_join(self):
        unstarted = RoutedHTTPServer("127.0.0.1:0")
        assert unstarted.close() is True
        assert unstarted.close() is True
        with pytest.raises(RuntimeError, match="closed"):
            unstarted.start()
        server = RoutedHTTPServer("127.0.0.1:0")
        server.add_worker_route("POST", "/slow", _echo)
        server.start()
        assert server.close() is True
        assert server.close() is True
        assert not any(thread.is_alive() for thread in server._threads)


class TestRounds:
    def test_generator_routes_of_one_round_share_one_batch_call(self):
        armed, entered, release = threading.Event(), threading.Event(), threading.Event()
        batches = []

        def batch(items):
            batches.append(list(items))
            if armed.is_set() and not entered.is_set():
                entered.set()
                release.wait(timeout=5.0)
            for item in items:
                item["value"] = item["n"] * 2

        def double(request):
            item = {"n": int(request.body)}
            yield item
            return json_response({"value": item["value"]})

        with _serving([("POST", "/double", double)], batch=batch) as server:
            connections = [
                http.client.HTTPConnection(*server.address, timeout=5.0) for _ in range(4)
            ]
            for connection in connections:  # accepted before the round below
                connection.request("POST", "/double", body="0")
                connection.getresponse().read()
            batches.clear()
            armed.set()
            connections[0].request("POST", "/double", body="1")
            assert entered.wait(timeout=5.0)  # the loop is inside the first batch
            for n, connection in enumerate(connections[1:], start=2):
                connection.request("POST", "/double", body=str(n))
            time.sleep(0.2)
            release.set()
            values = [
                json.loads(connection.getresponse().read())["value"]
                for connection in connections
            ]
            for connection in connections:
                connection.close()
        assert values == [2, 4, 6, 8]
        assert [sorted(item["n"] for item in items) for items in batches] == [[1], [2, 3, 4]]

    def test_each_route_keeps_its_own_context_across_the_yield(self):
        seen = contextvars.ContextVar("seen", default=None)
        release = threading.Event()

        def remember(request):
            seen.set(request.body.decode())
            yield None
            return json_response({"seen": seen.get()})

        def batch(items):
            release.wait(timeout=5.0)

        with _serving([("POST", "/remember", remember)], batch=batch) as server:
            connections = [
                http.client.HTTPConnection(*server.address, timeout=5.0) for _ in range(3)
            ]
            for index, connection in enumerate(connections):
                connection.request("POST", "/remember", body=f"r{index}")
                time.sleep(0.05)
            release.set()
            answers = [
                json.loads(connection.getresponse().read())["seen"]
                for connection in connections
            ]
            for connection in connections:
                connection.close()
        assert answers == ["r0", "r1", "r2"]

    def test_a_failing_batch_is_raised_into_every_waiting_route(self):
        def batch(items):
            raise RuntimeError("batch exploded")

        def waits(request):
            yield None
            return json_response({})

        def recovers(request):
            try:
                yield None
            except RuntimeError as error:
                return json_response({"recovered": str(error)})

        routes = [("GET", "/waits", waits), ("GET", "/recovers", recovers)]
        with _serving(routes, batch=batch) as server:
            connection = http.client.HTTPConnection(*server.address, timeout=5.0)
            status, body, _ = _get(connection, "/waits")
            assert status == 500 and "batch exploded" in json.loads(body)["error"]
            status, body, _ = _get(connection, "/recovers")
            assert (status, json.loads(body)) == (200, {"recovered": "batch exploded"})
            connection.close()


class TestWorker:
    def test_a_worker_route_leaves_the_loop_serving(self):
        entered, release = threading.Event(), threading.Event()
        ran_on = []

        def slow(request):
            ran_on.append(threading.current_thread().name)
            entered.set()
            release.wait(timeout=5.0)
            return json_response({"slow": True})

        with _serving(ECHO, worker_routes=[("POST", "/slow", slow)]) as server:
            slow_connection = http.client.HTTPConnection(*server.address, timeout=5.0)
            slow_connection.request("POST", "/slow", body="{}")
            assert entered.wait(timeout=5.0)
            fast = http.client.HTTPConnection(*server.address, timeout=5.0)
            for _ in range(3):
                assert _get(fast, "/echo")[0] == 200
            release.set()
            response = slow_connection.getresponse()
            assert (response.status, json.loads(response.read())) == (200, {"slow": True})
            # The connection is read again after the worker's reply.
            assert _get(slow_connection, "/echo")[0] == 200
            fast.close()
            slow_connection.close()
        assert ran_on == ["repro-httpd-worker"]

    def test_a_reply_whose_wake_up_a_round_consumed_is_still_sent(self):
        # The worker answers while the loop parses a round: the round's
        # own poll reads the wake-up, and the loop must not then block.
        armed, in_round = threading.Event(), threading.Event()

        class Racing(RoutedHTTPServer):
            def _parse_ready(self, busy):
                calls = super()._parse_ready(busy)
                if calls and armed.is_set() and not busy:
                    armed.clear()
                    in_round.set()  # lets the worker answer now
                    for _ in range(5000):
                        if self._replies:
                            break
                        time.sleep(0.001)
                    time.sleep(0.05)  # the wake-up byte is in flight
                return calls

        def slow(request):
            in_round.wait(timeout=5.0)
            return json_response({"slow": True})

        server = Racing("127.0.0.1:0")
        server.add_route("GET", "/echo", _echo)
        server.add_worker_route("POST", "/slow", slow)
        server.start()
        try:
            slow_connection = http.client.HTTPConnection(*server.address, timeout=3.0)
            slow_connection.request("POST", "/slow", body="{}")
            time.sleep(0.1)  # the worker holds it
            armed.set()
            fast = http.client.HTTPConnection(*server.address, timeout=3.0)
            fast.request("GET", "/echo")
            assert fast.getresponse().status == 200
            response = slow_connection.getresponse()
            assert (response.status, json.loads(response.read())) == (200, {"slow": True})
            fast.close()
            slow_connection.close()
        finally:
            assert server.close() is True
