"""The two serving workloads: a live estimation service under closed loops.

An op is one HTTP request against ``EstimationService`` + ``build_server``
at the CLI defaults (micro-batching on, 1 ms window), serving LW-XGB.
Clients are threads of this one process, each with one keep-alive
connection, each sending its next request only after the previous reply:
a campaign, and an optimizer waiting on its estimate, both block on the
answer.  Client counts are fixed at or below the box's two CPUs.

The clients are the benchmark's own rather than
``repro.serve.loadgen.run_load``: that one discards response bodies and
runs a fixed request count, while the benchmark has to check every answer
and stop at a deadline.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import statistics
import threading
import time
import urllib.request
from dataclasses import dataclass, field

import inputs
from spans import Round, SpanRecorder, merge, write_jsonl

from repro.core.injection import sub_plan_queries
from repro.engine.sql import parse_query
from repro.obs import metrics as obs_metrics
from repro.serve.app import build_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService, ServeObservability
from repro.serve.tracing import TraceSink

ESTIMATOR = "LW-XGB"
POOL = "stats-ceb"
HEADERS = {"Content-Type": "application/json"}
#: Length of the slices (rounds) the timed region is cut into, ~400 ops each.
SLICE_SECONDS = 0.5
#: Passes of the in-process sweep in the traced pass.
INPROC_PASSES = 3
PROGRAM_SPANS = ("parse", "queue_wait", "batch_assembly", "inference")


@dataclass
class Sample:
    started: float
    ended: float
    status: int
    payload: int
    body: bytes


@dataclass
class ServingInputs:
    database: object
    estimator: object
    sqls: list[str]
    #: Offline answers per payload: the clamped ``estimate_batch`` value
    #: for /estimate, the (tables -> clamped estimate) map for /subplans.
    reference: list
    service: EstimationService
    server: object
    order: list[int]

    def close(self) -> None:
        self.server.close()
        self.service.close()


@dataclass
class TimedPass:
    samples: list[Sample] = field(default_factory=list)
    started: float = 0.0
    seconds: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [sample.ended - sample.started for sample in self.samples]

    @property
    def rounds(self) -> list[Round]:
        """One round per slice: the completions after the slice's first, over
        the time from that first completion to the slice's last."""
        slices: dict[int, list[Sample]] = {}
        for sample in self.samples:
            index = int((sample.ended - self.started) / SLICE_SECONDS)
            if index < int(self.seconds / SLICE_SECONDS):
                slices.setdefault(index, []).append(sample)
        return [
            Round(
                len(members) - 1,
                max(s.ended for s in members) - min(s.ended for s in members),
                [s.ended - s.started for s in members],
            )
            for members in slices.values()
            if len(members) > 1
        ] or [Round(len(self.samples), self.seconds, self.latencies)]


class _Client(threading.Thread):
    def __init__(self, address, path, bodies, order, offset, barrier, recorder):
        super().__init__(name=f"perf-client-{offset}", daemon=True)
        self.address, self.path, self.bodies = address, path, bodies
        self.order, self.offset, self.barrier = order, offset, barrier
        self.recorder = recorder
        self.deadline = 0.0
        self.samples: list[Sample] = []

    def run(self) -> None:
        connection = http.client.HTTPConnection(*self.address, timeout=30.0)
        try:
            self.barrier.wait(timeout=30.0)
            position = self.offset
            while time.perf_counter() < self.deadline:
                payload = self.order[position % len(self.order)]
                position += 1
                with self.recorder.span("serve.http", op=f"{self.name}/{position}"):
                    started = time.perf_counter()
                    try:
                        connection.request(
                            "POST", self.path, body=self.bodies[payload], headers=HEADERS
                        )
                        response = connection.getresponse()
                        body = response.read()
                        status = response.status
                    except (OSError, http.client.HTTPException):
                        status, body = -1, b""
                        connection.close()
                        connection = http.client.HTTPConnection(*self.address, timeout=30.0)
                    ended = time.perf_counter()
                self.samples.append(Sample(started, ended, status, payload, body))
        finally:
            connection.close()


class Serving:
    def __init__(self, path: str, clients: int):
        self.path = path
        self.clients = clients

    # -- set-up ------------------------------------------------------------

    def _reference(self, estimator, query):
        if self.path == "/estimate":
            return max(1.0, float(estimator.estimate_batch([query])[0]))
        sub_queries = sub_plan_queries(query)
        estimates = estimator.estimate_batch(list(sub_queries.values()))
        return {
            tuple(sorted(subset)): max(1.0, float(estimate))
            for subset, estimate in zip(sub_queries, estimates)
        }

    def _start(self, database, estimator, clock, obs=None):
        with clock.asset("serve.start_s"):
            registry = ModelRegistry()
            registry.promote(estimator, source=f"trained:{ESTIMATOR}")
            service = EstimationService(database, registry=registry, obs=obs).start()
            server = build_server(service, "127.0.0.1:0")
            server.start()
        return service, server

    def setup(self, seed: int, clock: inputs.SetupClock) -> ServingInputs:
        database = inputs.build_database("stats", clock)
        examples = inputs.training_examples(database, seed, clock)
        estimator = inputs.fit_estimator(ESTIMATOR, database, clock, examples)
        service, server = self._start(database, estimator, clock)
        sqls = [sql for _, sql in inputs.load_pool(POOL)]
        queries = [parse_query(sql, join_graph=database.join_graph) for sql in sqls]
        reference = [self._reference(estimator, query) for query in queries]
        order = list(range(len(sqls)))
        random.Random(seed).shuffle(order)
        return ServingInputs(database, estimator, sqls, reference, service, server, order)

    def setup_layers(self, built: ServingInputs) -> dict[str, float]:
        return {
            f"estimators.model_bytes.{ESTIMATOR}": float(built.estimator.model_size_bytes())
        }

    # -- load --------------------------------------------------------------

    def _load(self, built: ServingInputs, address, seconds: float, traced: bool):
        bodies = [json.dumps({"sql": sql}).encode() for sql in built.sqls]
        barrier = threading.Barrier(self.clients + 1)
        clients = [
            _Client(
                address, self.path, bodies, built.order,
                offset=index * 7,  # decorrelate what each client sends
                barrier=barrier,
                recorder=SpanRecorder(enabled=traced, prefix=f"c{index}-"),
            )
            for index in range(self.clients)
        ]
        # Warm-up, discarded: every payload once fills the parse cache.
        connection = http.client.HTTPConnection(*address, timeout=30.0)
        try:
            for payload in built.order:
                connection.request("POST", self.path, body=bodies[payload], headers=HEADERS)
                connection.getresponse().read()
        finally:
            connection.close()

        for client in clients:
            client.start()
        # Clients read their deadline only after the barrier releases them.
        started = time.perf_counter()
        for client in clients:
            client.deadline = started + seconds
        barrier.wait(timeout=30.0)
        for client in clients:
            client.join()
        samples = [sample for client in clients for sample in client.samples]
        return TimedPass(samples, started, seconds), [c.recorder for c in clients]

    def timed(self, built: ServingInputs, seconds: float) -> TimedPass:
        return self._load(built, built.server.address, seconds, traced=False)[0]

    # -- correctness -------------------------------------------------------

    def verify(self, built: ServingInputs, timed: TimedPass):
        problems = check_responses(self.path, timed.samples, built.reference)
        return len(timed.samples), len(problems), problems

    # -- traced pass -------------------------------------------------------

    def layers(self, built: ServingInputs, seconds: float, timed: TimedPass, trace_path):
        obs_metrics.reset()
        sink_path = trace_path.with_name(trace_path.stem + "-program.jsonl")
        sink_path.unlink(missing_ok=True)
        obs = ServeObservability(trace_sink=TraceSink(sink_path))
        service, server = self._start(
            built.database, built.estimator, inputs.SetupClock(), obs=obs
        )
        try:
            traced, recorders = self._load(built, server.address, seconds, traced=True)
            host, port = server.address
            with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as reply:
                scraped = _parse_prometheus(reply.read().decode())
            obs.trace_sink.flush()
            program = [json.loads(line) for line in sink_path.read_text().splitlines()]
            main = SpanRecorder(prefix="m")
            self._inprocess_sweep(built, service, main)
        finally:
            server.close()
            service.close()
        write_jsonl(merge(recorders + [main]), trace_path)

        def p50_ms(values) -> float:
            values = list(values)
            return statistics.median(values) * 1000.0 if values else 0.0

        def own(name: str) -> float:
            return p50_ms(s["end"] - s["start"] for s in main.spans if s["name"] == name)

        http_p50 = p50_ms(traced.latencies)
        inproc, parse, model = own("serve.inproc"), own("serve.parse"), own("serve.model")
        batches = scraped.get("repro_serve_batches", 0.0)
        metrics = {
            "serve.inproc_p50_ms": inproc,
            "serve.transport_p50_ms": http_p50 - inproc,
            "serve.parse_p50_ms": parse,
            "serve.model_p50_ms": model,
            "serve.batch_wait_p50_ms": inproc - parse - model
            if self.path == "/estimate"
            else 0.0,
            "serve.batches": batches,
            "serve.mean_batch_size": scraped.get("repro_serve_batch_size_sum", 0.0) / batches
            if batches
            else 0.0,
            "injection.enumerate_s": sum(
                s["end"] - s["start"] for s in main.spans if s["name"] == "injection.enumerate"
            )
            / INPROC_PASSES,
            "trace.overhead_share": http_p50 / p50_ms(timed.latencies) - 1.0,
        }
        for name in PROGRAM_SPANS:
            metrics[f"serve.span.{name}_p50_ms"] = p50_ms(
                span["duration_seconds"] for span in program if span["name"] == name
            )
        problems = check_responses(self.path, traced.samples, built.reference)
        metrics["serve.non200"] = float(sum(p.startswith("non-200") for p in problems))
        metrics["serve.fallback_responses"] = float(
            sum(p.startswith("fallback") for p in problems)
        )
        return metrics, problems

    def _inprocess_sweep(self, built: ServingInputs, service, recorder: SpanRecorder) -> None:
        """The same requests without HTTP, and their parts on their own."""
        for sweep in range(INPROC_PASSES):
            for payload in built.order:
                sql = built.sqls[payload]
                with recorder.span("op", op=f"inproc/{sweep}/{payload}"):
                    with recorder.span("serve.inproc"):
                        if self.path == "/estimate":
                            service.estimate_many([sql])
                        else:
                            service.sub_plans(sql)
                    with recorder.span("serve.parse"):
                        query = service.parse(sql)
                    if self.path == "/estimate":
                        batch = [query]
                    else:
                        with recorder.span("injection.enumerate"):
                            batch = list(sub_plan_queries(query).values())
                    with recorder.span("serve.model"):
                        built.estimator.estimate_batch(batch)


def _close(expected: float, actual) -> bool:
    return isinstance(actual, (int, float)) and math.isclose(
        expected, actual, rel_tol=1e-9, abs_tol=1e-9
    )


def check_responses(path: str, samples: list[Sample], reference: list) -> list[str]:
    """Every response is a 200, not degraded, and equal to the offline answer.

    Each problem starts with its kind: ``non-200``, ``fallback`` or ``wrong``.
    """
    problems = []
    for sample in samples:
        expected = reference[sample.payload]
        if sample.status != 200:
            problems.append(f"non-200: payload {sample.payload} got HTTP {sample.status}")
            continue
        reply = json.loads(sample.body)
        if path == "/estimate":
            degraded = reply.get("fallback")
            right = _close(expected, reply.get("estimate"))
        else:
            degraded = reply["fallback_estimates"] or reply["failed_sub_plans"]
            answered = {
                tuple(entry["tables"]): entry["estimate"] for entry in reply["sub_plans"]
            }
            right = answered.keys() == expected.keys() and all(
                _close(expected[key], answered[key]) for key in expected
            )
        if degraded:
            problems.append(f"fallback: payload {sample.payload} was answered degraded")
        elif not right:
            problems.append(f"wrong: payload {sample.payload} differs from the offline estimate")
    return problems


def _parse_prometheus(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values
