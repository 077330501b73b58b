"""Oracle comparison and metamorphic invariants over one fuzz case.

Each checker takes a :class:`~repro.check.fuzz.CheckCase` and returns a
list of :class:`Discrepancy` records (empty = the case passes).  The
checks are:

``oracle``
    Triple agreement on every enumerated sub-plan of every query:
    SQLite reference count == :class:`TrueCardinalityService` count ==
    the row count produced by actually executing the planner's chosen
    plan.  For a query joining two or more tables, also, from every
    root, :class:`~repro.engine.jointree.JoinTree`'s full outer join
    size == SQLite's count of the ``LEFT JOIN`` chain from that root.
``cache``
    Result reuse must be invisible: a cold service (no selection cache)
    and a warm one (every count and selection vector cached) must both
    report the sub-plan map of
    :func:`~repro.check.oracle.planned_sub_plan_cards`, which plans and
    executes every connected subset on its own.
``plans``
    Plan-choice independence: every physical plan the planner *could*
    have picked (all join orders × all legal join methods × both scan
    methods) must produce, at *every* node, the true count of the
    sub-plan that node covers — an inner count is the join kernel's sum,
    not the length of a column, so each is checked against the labels.
``planner-vectorised``
    Reference-vs-production DP scoring: under fuzzed cardinality maps —
    the true counts plus adversarial variants (all-equal values that
    force cost ties, zeros, sub-row fractions, seeded perturbations) —
    the scalar :class:`~repro.check.reference_planner.ReferencePlanner`
    and the production :class:`~repro.engine.planner.Planner` must
    produce identical ``(estimated_cost, plan)``, exact float equality
    included, proving the codified ``(cost, method_rank, left_mask)``
    tie-break order is applied identically by both.
``parallel``
    A fork-based multi-worker benchmark run must report the same
    result cardinalities as a serial run of the same workload.
``resume``
    A campaign checkpointed halfway and resumed must splice into the
    same results as an uninterrupted run.
``batch``
    The batch contract at ``==``: for every estimator in the fast sweep
    set, ``estimate_batch`` over a query's whole sub-plan space must
    equal each sub-plan priced alone, and must not change when the
    batch is placed behind another query's sub-plans
    (``estimate_batch(a + b)[len(a):] == estimate_batch(b)``) — what the
    batched inference hot path
    (:func:`repro.core.injection.price_sub_plans`) and the serving
    micro-batcher rely on.

``serve``
    Served answers are the offline answers: an
    :class:`~repro.serve.service.EstimationService` under a seeded
    schedule of concurrent ``/estimate``, ``/estimate_batch`` and
    ``/subplans`` requests with one promotion fired mid-schedule, sent
    once as in-process calls and once over HTTP through
    :func:`~repro.serve.app.build_server`, must answer every request
    exactly once, never from the fallback, and with exactly
    ``max(1, estimate_batch([query])[0])`` of the estimator whose version
    the response names, although a round may price a query beside other
    clients' queries.  Every request is traced, and its trace must be its
    own: every span carries the request's trace id and hangs off its one
    ``request`` root, and an estimate's one ``queue_wait`` span names a
    ``batch`` span in the trace sink that links it back and served the
    version the answer names.  Injected faults are not covered yet.

``parallel`` and ``resume`` run the full benchmark harness per case,
so the runner only samples them on a fraction of cases.
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.check.fuzz import CheckCase
from repro.check.oracle import SQLiteOracle, planned_sub_plan_cards
from repro.check.reference_planner import ReferencePlanner
from repro.core.benchmark import EndToEndBenchmark
from repro.core.injection import sub_plan_queries
from repro.core.parallel import fork_available
from repro.core.truecards import TrueCardinalityService
from repro.engine.executor import Executor
from repro.engine.jointree import JoinTree
from repro.engine.planner import Planner
from repro.engine.plans import (
    JOIN_HASH,
    JOIN_INDEX_NL,
    JOIN_MERGE,
    SCAN_INDEX,
    SCAN_SEQ,
    JoinNode,
    PlanNode,
    ScanNode,
)
from repro.engine.query import LabeledQuery, Query
from repro.engine.sql import query_to_sql
from repro.engine.subsets import space_of
from repro.estimators.datad.bayescard import BayesCardEstimator
from repro.estimators.multihist import MultiHistEstimator
from repro.estimators.pessest import PessimisticEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.truecard import TrueCardEstimator
from repro.obs.trace import Tracer, load_trace, use_tracer
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.serve.app import build_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import EstimationService, ServeObservability
from repro.serve.tracing import TraceSink
from repro.workloads.generator import Workload

#: Caps for exhaustive plan enumeration: ways kept per subset mask and
#: executed plans per query.  Fuzz queries join <= 4 tables, so these
#: caps are rarely binding; they bound worst-case runtime, and the
#: runner logs nothing because the *chosen* plan is always included.
MAX_PLANS_PER_MASK = 8
MAX_PLANS_PER_QUERY = 48

#: The ``serve`` schedule: concurrent clients and requests per client,
#: sent in process and again over HTTP.  Over HTTP the four clients'
#: requests overlap and share rounds at this length; each case's HTTP
#: pass costs ~20 ms of the check's time budget.
SERVE_CLIENTS = 4
SERVE_REQUESTS_PER_CLIENT = 12


@dataclass(frozen=True)
class Discrepancy:
    """One detected disagreement, attributable to a query and invariant."""

    invariant: str
    query: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.query}: {self.detail}"


def _true_counts(case: CheckCase) -> dict[str, dict[frozenset[str], int]]:
    service = TrueCardinalityService(case.database)
    return {q.name: service.sub_plan_cards(q) for q in case.queries}


# -- oracle -------------------------------------------------------------------


def check_oracle(case: CheckCase) -> list[Discrepancy]:
    """SQLite vs TrueCardinalityService vs executed plan, per sub-plan."""
    discrepancies: list[Discrepancy] = []
    service = TrueCardinalityService(case.database)
    planner = Planner(case.database)
    executor = Executor(case.database)
    with SQLiteOracle(case.database) as oracle:
        for query in case.queries:
            engine = service.sub_plan_cards(query)
            reference = oracle.sub_plan_counts(query)
            if set(engine) != set(reference):
                discrepancies.append(
                    Discrepancy(
                        "oracle",
                        query.name,
                        "sub-plan spaces differ: engine enumerated "
                        f"{sorted(map(sorted, engine))} vs oracle "
                        f"{sorted(map(sorted, reference))}",
                    )
                )
                continue
            for subset in sorted(engine, key=sorted):
                if engine[subset] != reference[subset]:
                    discrepancies.append(
                        Discrepancy(
                            "oracle",
                            query.name,
                            f"sub-plan {sorted(subset)}: engine counted "
                            f"{engine[subset]}, SQLite counted "
                            f"{reference[subset]}",
                        )
                    )
            # Executing the plan the planner actually picks under true
            # cardinalities must reproduce the full-query count too.
            cards = {s: float(c) for s, c in engine.items()}
            plan = planner.plan(query, cards).plan
            executed = executor.count(plan)
            if executed != reference[query.tables]:
                discrepancies.append(
                    Discrepancy(
                        "oracle",
                        query.name,
                        f"executed plan returned {executed}, SQLite "
                        f"counted {reference[query.tables]}",
                    )
                )
            # The join tree's unfiltered full outer join, from every root.
            edges = list(query.join_edges)
            for root in sorted(query.tables) if edges else ():
                total = JoinTree(case.database, edges, root).total
                outer = oracle.outer_join_count(edges, root)
                if total != outer:
                    discrepancies.append(
                        Discrepancy(
                            "oracle",
                            query.name,
                            f"join tree from {root}: full outer join of "
                            f"{total:.0f} rows, SQLite counted {outer}",
                        )
                    )
    return discrepancies


# -- batch --------------------------------------------------------------------


def check_batch(case: CheckCase) -> list[Discrepancy]:
    """``estimate_batch`` must equal its sub-plans priced alone and
    priced behind another query's sub-plans.

    Fits the estimator families whose batch path is reachable from a
    fuzz database without training queries — vectorised (PostgreSQL),
    memoised (MultiHist) and per-query evaluation (PessEst, and
    BayesCard for the fan-out PGMs, so fuzzed FK-FK edges, NULL keys and
    int64-limit key domains reach the shared ``_visit``) — and compares
    the three results with ``==`` over every query's full sub-plan
    space.  The batch a query is placed behind is the previous query's.
    The query-driven families and the SPNs are covered by the
    tests/estimators sweep, which has trained models to hand; fuzz
    cases are too small to train on.
    """
    discrepancies: list[Discrepancy] = []
    estimators = [
        PostgresEstimator().fit(case.database),
        MultiHistEstimator().fit(case.database),
        PessimisticEstimator().fit(case.database),
        BayesCardEstimator().fit(case.database),
    ]
    spaces = [sub_plan_queries(query) for query in case.queries]
    for index, (query, sub) in enumerate(zip(case.queries, spaces)):
        queries = list(sub.values())
        lead = list(spaces[index - 1].values())
        for estimator in estimators:
            batched = estimator.estimate_batch(queries)
            others = {
                "alone": [estimator.estimate(q) for q in queries],
                f"behind {len(lead)} sub-plans": estimator.estimate_batch(
                    lead + queries
                )[len(lead) :],
            }
            for way, values in others.items():
                if len(batched) != len(queries) or len(values) != len(queries):
                    discrepancies.append(
                        Discrepancy(
                            "batch",
                            query.name,
                            f"{estimator.name} returned {len(batched)} batched "
                            f"and {len(values)} {way} estimates for "
                            f"{len(queries)} sub-plans",
                        )
                    )
                    continue
                for subset, want, got in zip(sub, batched, values):
                    if got != want:
                        discrepancies.append(
                            Discrepancy(
                                "batch",
                                query.name,
                                f"{estimator.name} sub-plan {sorted(subset)}: "
                                f"batch estimated {float(want)!r}, {way} "
                                f"{float(got)!r}",
                            )
                        )
    return discrepancies


# -- cache --------------------------------------------------------------------


def check_cache(case: CheckCase) -> list[Discrepancy]:
    """A cold and a warm labelling service must count every sub-plan as
    the one-plan-per-subset reference does."""
    discrepancies: list[Discrepancy] = []
    warm = TrueCardinalityService(case.database)
    for query in case.queries:
        warm.sub_plan_cards(query)
    for query in case.queries:
        reference = planned_sub_plan_cards(case.database, query)
        services = {
            "cold": TrueCardinalityService(case.database, use_exec_cache=False),
            "warm": warm,
        }
        for name, service in services.items():
            counted = service.sub_plan_cards(query)
            for subset in sorted(reference, key=sorted):
                if counted.get(subset) != reference[subset]:
                    discrepancies.append(
                        Discrepancy(
                            "cache",
                            query.name,
                            f"sub-plan {sorted(subset)}: {name} service "
                            f"counted {counted.get(subset)}, the planned "
                            f"reference counted {reference[subset]}",
                        )
                    )
    return discrepancies


# -- plan-choice independence -------------------------------------------------


def _enumerate_plans(query: Query, database) -> list[PlanNode]:
    """Up to MAX_PLANS_PER_QUERY distinct physical plans for ``query``.

    Mirrors the planner's legality rules: scans may be sequential or
    (when a primary-key predicate exists) index scans; joins may be
    hash or merge, plus index-NL when the inner side is a base-table
    scan; the join edge is oriented so its ``left`` table lives in the
    left sub-plan.
    """
    space = space_of(query)
    memo: dict[int, list[PlanNode]] = {}

    def scans(table: str) -> list[PlanNode]:
        predicates = query.predicates_on(table)
        nodes: list[PlanNode] = [
            ScanNode(
                tables=frozenset((table,)),
                table=table,
                predicates=predicates,
                method=SCAN_SEQ,
            )
        ]
        primary_key = database.tables[table].schema.primary_key
        if primary_key is not None and any(
            p.column == primary_key for p in predicates
        ):
            nodes.append(
                ScanNode(
                    tables=frozenset((table,)),
                    table=table,
                    predicates=predicates,
                    method=SCAN_INDEX,
                    index_column=primary_key,
                )
            )
        return nodes

    def plans_for(mask: int) -> list[PlanNode]:
        if mask in memo:
            return memo[mask]
        subset = space.tables_of(mask)
        if len(subset) == 1:
            memo[mask] = scans(next(iter(subset)))
            return memo[mask]
        nodes: list[PlanNode] = []
        for left_mask, right_mask, edge in space.splits[mask]:
            for left_plan in plans_for(left_mask):
                for right_plan in plans_for(right_mask):
                    oriented = (
                        edge
                        if edge.left in left_plan.tables
                        else edge.reversed()
                    )
                    methods = [JOIN_HASH, JOIN_MERGE]
                    if isinstance(right_plan, ScanNode):
                        methods.append(JOIN_INDEX_NL)
                    for method in methods:
                        nodes.append(
                            JoinNode(
                                tables=subset,
                                left=left_plan,
                                right=right_plan,
                                edge=oriented,
                                method=method,
                            )
                        )
                        if len(nodes) >= MAX_PLANS_PER_MASK:
                            memo[mask] = nodes
                            return nodes
        memo[mask] = nodes
        return nodes

    return plans_for(space.full_mask)[:MAX_PLANS_PER_QUERY]


def check_plans(case: CheckCase) -> list[Discrepancy]:
    """Every node of every legal physical plan must count its sub-plan."""
    discrepancies: list[Discrepancy] = []
    executor = Executor(case.database)
    reference = _true_counts(case)
    for query in case.queries:
        expected = reference[query.name]
        for plan in _enumerate_plans(query, case.database):
            node_rows = executor.execute(plan).node_rows
            wrong = {
                tuple(sorted(node.tables)): (got, expected[node.tables])
                for node in plan.walk()
                if (got := node_rows.get(node.tables)) != expected[node.tables]
            }
            if wrong:
                discrepancies.append(
                    Discrepancy(
                        "plans",
                        query.name,
                        f"nodes with (got, expected) rows {wrong}:\n"
                        + plan.describe(),
                    )
                )
    return discrepancies


# -- planner-vectorised -------------------------------------------------------


def _card_map_variants(
    true_cards: dict[frozenset[str], float],
    rng: np.random.Generator,
) -> dict[str, dict[frozenset[str], float]]:
    """Adversarial cardinality maps for the scalar-vs-vectorised diff.

    Beyond the true counts, each variant targets a tie-breaking or
    clamping edge: constant maps make *every* candidate cost tie (the
    total order alone decides), zeros exercise the ``max(0, ·)`` clamps
    and zero-page index paths, sub-row fractions hit the learned-
    estimator regime of cards below one row, and the perturbed map
    draws from a small tie-prone pool so some — but not all — costs
    collide.
    """
    subsets = sorted(true_cards, key=sorted)
    pool = np.array([0.0, 0.5, 1.0, 2.0, 1000.0])
    return {
        "true": true_cards,
        "ties": {s: 1.0 for s in subsets},
        "zeros": {s: 0.0 for s in subsets},
        "sub-row": {s: 0.25 for s in subsets},
        "perturbed": {s: float(rng.choice(pool)) for s in subsets},
    }


def check_planner_vectorised(case: CheckCase) -> list[Discrepancy]:
    """The scalar reference DP and the planner must agree bit for bit."""
    discrepancies: list[Discrepancy] = []
    scalar = ReferencePlanner(case.database)
    vector = Planner(case.database)
    service = TrueCardinalityService(case.database)
    rng = np.random.default_rng(np.random.SeedSequence([case.seed, case.index]))
    for query in case.queries:
        true_cards = {
            subset: float(count)
            for subset, count in service.sub_plan_cards(query).items()
        }
        for label, cards in _card_map_variants(true_cards, rng).items():
            expected = scalar.plan(query, cards)
            got = vector.plan(query, cards)
            if float(expected.estimated_cost) != float(got.estimated_cost):
                discrepancies.append(
                    Discrepancy(
                        "planner-vectorised",
                        query.name,
                        f"cards[{label}]: scalar cost "
                        f"{expected.estimated_cost!r} != vectorised "
                        f"{got.estimated_cost!r}",
                    )
                )
            elif expected.plan != got.plan:
                discrepancies.append(
                    Discrepancy(
                        "planner-vectorised",
                        query.name,
                        f"cards[{label}]: same cost "
                        f"{expected.estimated_cost!r} but different plans:\n"
                        f"scalar:\n{expected.plan.describe()}\n"
                        f"vectorised:\n{got.plan.describe()}",
                    )
                )
    return discrepancies


# -- parallel -----------------------------------------------------------------


def _labeled_workload(case: CheckCase) -> Workload:
    reference = _true_counts(case)
    return Workload(
        name=case.name,
        database_name=case.database.name,
        queries=[
            LabeledQuery(
                query=query,
                true_cardinality=reference[query.name][query.tables],
                sub_plan_true_cards=reference[query.name],
            )
            for query in case.queries
        ],
    )


def _run_signature(run) -> list[tuple[str, int | None, bool, bool]]:
    return [
        (qr.query_name, qr.result_cardinality, qr.aborted, qr.failed)
        for qr in run.query_runs
    ]


def check_parallel(case: CheckCase) -> list[Discrepancy]:
    """Serial and 2-worker benchmark runs must report identical results.

    Structurally skipped (not silently — the runner records the reason)
    when forking is unavailable or the case has fewer than two queries,
    since the benchmark falls back to the serial loop in both
    situations and the invariant would compare a run against itself.
    """
    if not fork_available() or len(case.queries) < 2:
        return []
    workload = _labeled_workload(case)
    serial = EndToEndBenchmark(case.database, workload).run(TrueCardEstimator())
    parallel = EndToEndBenchmark(case.database, workload, workers=2).run(
        TrueCardEstimator()
    )
    if _run_signature(serial) != _run_signature(parallel):
        return [
            Discrepancy(
                "parallel",
                case.name,
                f"serial results {_run_signature(serial)} != "
                f"2-worker results {_run_signature(parallel)}",
            )
        ]
    return []


def parallel_applicable(case: CheckCase) -> bool:
    """Whether :func:`check_parallel` can actually exercise forking."""
    return fork_available() and len(case.queries) >= 2


# -- resume -------------------------------------------------------------------


def check_resume(case: CheckCase) -> list[Discrepancy]:
    """Checkpoint-resume must splice into the same results as a fresh run."""
    workload = _labeled_workload(case)

    def bench() -> EndToEndBenchmark:
        return EndToEndBenchmark(case.database, workload)

    fresh = bench().run(TrueCardEstimator())
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        path = Path(tmp) / "campaign.jsonl"
        half = max(1, len(workload.queries) // 2)
        first = CampaignCheckpoint(path)
        bench().run(TrueCardEstimator(), queries=workload.queries[:half],
                    checkpoint=first)
        first.close()
        resumed_checkpoint = CampaignCheckpoint.resume(path)
        resumed = bench().run(TrueCardEstimator(), checkpoint=resumed_checkpoint)
        resumed_checkpoint.close()
    if _run_signature(fresh) != _run_signature(resumed):
        return [
            Discrepancy(
                "resume",
                case.name,
                f"fresh results {_run_signature(fresh)} != resumed "
                f"results {_run_signature(resumed)}",
            )
        ]
    return []


# -- serve --------------------------------------------------------------------


def _serve_schedule(case: CheckCase) -> list[list[tuple[str, list[int]]]]:
    """Per client, ``(endpoint, query indices)`` requests in issue order."""
    rng = np.random.default_rng(np.random.SeedSequence([case.seed, case.index, 2]))
    schedule = []
    for _ in range(SERVE_CLIENTS):
        requests = []
        for _ in range(SERVE_REQUESTS_PER_CLIENT):
            kind = ("estimate", "estimate_batch", "sub_plans")[rng.integers(3)]
            count = int(rng.integers(2, 5)) if kind == "estimate_batch" else 1
            picks = rng.integers(len(case.queries), size=count)
            requests.append((kind, [int(pick) for pick in picks]))
        schedule.append(requests)
    return schedule


def _serve_mismatch(served: list, wanted: list, degraded, version: int) -> str:
    """Why labelled ``served`` estimates are not the ``wanted`` ones, or ''."""
    if degraded:
        return "answered from the fallback"
    if served == wanted:
        return ""
    return f"served {served} as version {version}, offline {wanted}"


def _serve_trace_problem(
    spans: list[dict], trace_id: str, kind: str, answer: dict, batches: dict[str, dict]
) -> str:
    """Why the trace of one served call is not that call's own, or ''."""
    foreign = sum(span["trace_id"] != trace_id for span in spans)
    if foreign:
        return f"{foreign} of {len(spans)} spans of trace {trace_id} carry another trace id"
    children: dict[str | None, list] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)
    roots = children.get(None, [])
    if [root["name"] for root in roots] != ["request"]:
        return f"trace {trace_id} has roots {[root['name'] for root in roots]}, not one request"
    reached, frontier = 0, list(roots)
    while frontier:
        reached += 1
        frontier.extend(children.get(frontier.pop()["span_id"], []))
    if reached != len(spans):
        return f"{len(spans) - reached} spans of trace {trace_id} are not under its root"
    waits = [span for span in spans if span["name"] == "queue_wait"]
    parses = sum(span["name"] == "parse" for span in spans)
    if (len(waits), parses) != (0 if kind == "sub_plans" else 1, 1):
        return f"trace {trace_id} has {parses} parse and {len(waits)} queue_wait spans"
    for wait in waits:
        batch = batches.get(wait["attributes"].get("batch_span_id"))
        if batch is None:
            return f"queue_wait of trace {trace_id} names no batch span in the sink"
        if wait["span_id"] not in batch["attributes"]["links"]:
            return f"batch {batch['span_id']} does not link queue_wait of trace {trace_id}"
        if batch["attributes"].get("version") != answer["version"]:
            return (
                f"batch {batch['span_id']} served version "
                f"{batch['attributes'].get('version')}, the answer names {answer['version']}"
            )
    return ""


def _serve_answers(schedule, call, promote) -> list[list]:
    """Per client thread, ``call(client, kind, picks, trace_id)`` (or what it
    raised) of each request in order, ``trace_id`` being ``{client}-{step}``;
    client 0 calls ``promote()`` halfway."""
    answers: list[list] = [[] for _ in schedule]
    barrier = threading.Barrier(len(schedule))

    def client(index: int) -> None:
        barrier.wait(timeout=60.0)
        for step, (kind, picks) in enumerate(schedule[index]):
            if index == 0 and step == SERVE_REQUESTS_PER_CLIENT // 2:
                promote()
            try:
                answers[index].append(call(index, kind, picks, f"{index}-{step}"))
            except Exception as error:  # noqa: BLE001 — reported by the caller
                answers[index].append(error)

    threads = [
        threading.Thread(target=client, args=(index,), name=f"check-serve-{index}")
        for index in range(len(schedule))
    ]
    # A request takes about one default switch interval, so without a
    # short one the clients rarely interleave inside a request and a
    # tracer that leaked between them would go unseen.
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous_interval)
    return answers


def _serve_in_process(service, schedule, sqls) -> list[list]:
    """The answers of ``service``'s own methods, each call under a tracer
    of its own whose spans go to the service's trace sink."""

    def call(index: int, kind: str, picks: list[int], trace_id: str) -> dict:
        tracer = Tracer(trace_id=trace_id)
        try:
            with use_tracer(tracer), tracer.span("request"):
                if kind == "sub_plans":
                    return service.sub_plans(sqls[picks[0]])
                return service.estimate_many([sqls[pick] for pick in picks])
        finally:
            service.obs.trace_sink.write_spans(tracer.spans)

    return _serve_answers(schedule, call, lambda: service.promote(estimator_name="MultiHist"))


def _serve_over_http(service, schedule, sqls) -> list[list]:
    """The answers of ``service`` behind :func:`build_server`, over one
    keep-alive connection per client, each request sent with its trace id
    as ``X-Request-ID``."""
    server = build_server(service, "127.0.0.1:0").start()
    connections = [http.client.HTTPConnection(*server.address, timeout=60.0) for _ in schedule]

    def post(index: int, path: str, payload: dict, request_id: str) -> dict:
        connections[index].request(
            "POST", path, body=json.dumps(payload), headers={"X-Request-ID": request_id}
        )
        response = connections[index].getresponse()
        body = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {body.get('error')}")
        return body

    def call(index: int, kind: str, picks: list[int], trace_id: str) -> dict:
        if kind == "estimate_batch":
            return post(index, "/estimate_batch", {"sql": [sqls[p] for p in picks]}, trace_id)
        path = "/subplans" if kind == "sub_plans" else "/estimate"
        return post(index, path, {"sql": sqls[picks[0]]}, trace_id)

    try:
        return _serve_answers(
            schedule, call, lambda: post(0, "/admin/promote", {"estimator": "MultiHist"}, "p")
        )
    finally:
        for connection in connections:
            connection.close()
        server.close()


def check_serve(case: CheckCase) -> list[Discrepancy]:
    """Served estimates equal the offline ones of the version they name.

    The schedule runs against a fresh service twice, as in-process calls
    and over HTTP (:func:`repro.serve.app.build_server`, promoting with a
    ``POST /admin/promote``).  PostgreSQL serves as version 1 until
    client 0 promotes MultiHist halfway, so answers of both versions
    interleave and a job queued before the promotion may be priced after
    it.  Traces and batch spans go to a sink in a temporary directory.
    """
    if not case.queries:
        return []
    estimators = {
        1: PostgresEstimator().fit(case.database),
        2: MultiHistEstimator().fit(case.database),
    }
    sqls = [query_to_sql(query) for query in case.queries]
    schedule = _serve_schedule(case)
    discrepancies: list[Discrepancy] = []
    memo: dict[tuple, float] = {}

    def offline(version: int, query: Query) -> float:
        key = (version, query.key())
        if key not in memo:
            estimate = estimators[version].estimate_batch([query])[0]
            memo[key] = max(1.0, float(estimate))
        return memo[key]

    for transport, serve in (("in-process", _serve_in_process), ("http", _serve_over_http)):
        registry = ModelRegistry()
        registry.promote(estimators[1], source="check:PostgreSQL")
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            sink = TraceSink(Path(tmp) / "traces.jsonl")
            service = EstimationService(
                case.database,
                registry=registry,
                trainer=lambda name: estimators[2],
                obs=ServeObservability(trace_sink=sink),
            ).start()
            try:
                answers = serve(service, schedule, sqls)
            finally:
                service.close()  # drains the sink
            records = load_trace(sink.path)
        traces: dict[str, list[dict]] = {}
        for record in records:
            traces.setdefault(record["trace_id"], []).append(record)
        batches = {record["span_id"]: record for record in records if record["name"] == "batch"}
        for index, requests in enumerate(schedule):
            if len(answers[index]) != len(requests):
                discrepancies.append(
                    Discrepancy(
                        "serve",
                        case.name,
                        f"{transport} client {index} sent {len(requests)} requests "
                        f"and got {len(answers[index])} answers",
                    )
                )
            for step, ((kind, picks), answer) in enumerate(zip(requests, answers[index])):
                queries = [case.queries[pick] for pick in picks]
                if isinstance(answer, Exception):
                    detail = f"raised {type(answer).__name__}: {answer}"
                elif (version := answer["version"]) not in estimators:
                    detail = f"names unknown version {version}"
                elif kind == "sub_plans":
                    served = sorted(
                        (entry["tables"], entry["estimate"])
                        for entry in answer["sub_plans"]
                    )
                    wanted = sorted(
                        (sorted(subset), offline(version, sub_query))
                        for subset, sub_query in sub_plan_queries(queries[0]).items()
                    )
                    degraded = answer["failed_sub_plans"] or answer["fallback_estimates"]
                    detail = _serve_mismatch(served, wanted, degraded, version)
                else:
                    served = list(enumerate(answer["estimates"]))
                    wanted = [
                        (position, offline(version, query))
                        for position, query in enumerate(queries)
                    ]
                    detail = _serve_mismatch(served, wanted, answer["fallback"], version)
                trace_id = f"{index}-{step}"
                detail = detail or _serve_trace_problem(
                    traces.get(trace_id, []), trace_id, kind, answer, batches
                )
                if detail:
                    discrepancies.append(
                        Discrepancy(
                            "serve",
                            ", ".join(query.name for query in queries),
                            f"{transport} client {index} request {step} ({kind}): {detail}",
                        )
                    )
    return discrepancies


#: The metamorphic invariants by name, in the order the runner applies
#: them.  The SQLite oracle comparison is controlled separately
#: (``--no-oracle``).
CHECKERS = {
    "batch": check_batch,
    "cache": check_cache,
    "plans": check_plans,
    "planner-vectorised": check_planner_vectorised,
    "parallel": check_parallel,
    "resume": check_resume,
    "serve": check_serve,
}
ALL_INVARIANTS = tuple(CHECKERS)


def run_invariants(
    case: CheckCase, invariants: tuple[str, ...] = ALL_INVARIANTS
) -> list[Discrepancy]:
    """Run the selected metamorphic invariants over one case."""
    discrepancies: list[Discrepancy] = []
    for name in invariants:
        discrepancies.extend(CHECKERS[name](case))
    return discrepancies
