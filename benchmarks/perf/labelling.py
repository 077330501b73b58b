"""The labelling workload: exact sub-plan counts of every pool query.

An op is one ``TrueCardinalityService.sub_plan_cards(query)`` call, the
executor in count-only mode with the exec cache **on** (timed campaign
runs have it off).  Every repetition starts from a fresh service, so the
caches fill within a repetition exactly as they do when a workload is
labelled for the first time.  Which query pays for a shared scan or hash
build depends on the order, so every repetition draws a new order from the
seed: one order would put a 9 % seed-to-seed spread on the median op.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import inputs
from campaign import TimedPass, repeat_for, verify_labels
from spans import SpanRecorder, write_jsonl

from repro.obs import metrics as obs_metrics
from repro.workloads.generator import Workload

POOL = "stats-ceb"
#: The no-cache reference pass counts every fifth query: with the caches
#: off the whole pool costs more than the timed region.
NOCACHE_STRIDE = 5


@dataclass
class LabellingInputs:
    database: object
    workload: Workload
    order: random.Random

    def close(self) -> None:
        pass


@dataclass
class Repetition:
    wall: float
    latencies: list[float]
    cards: dict[str, dict]


class Labelling:
    def setup(self, seed: int, clock: inputs.SetupClock) -> LabellingInputs:
        database = inputs.build_database("stats", clock)
        workload = inputs.label_pool(database, POOL, seed, clock, asset="workloads.label_cold_s")
        return LabellingInputs(database, workload, random.Random(seed))

    def setup_layers(self, built: LabellingInputs) -> dict[str, float]:
        return {}

    def _repetition(self, built: LabellingInputs, recorder: SpanRecorder, rep: int) -> Repetition:
        service = inputs.labelling_service(built.database)
        queries = list(built.workload.queries)
        built.order.shuffle(queries)
        latencies, cards = [], {}
        started = time.perf_counter()
        for labeled in queries:
            query = labeled.query
            with recorder.span("op", op=f"{rep}/{query.name}", rep=rep):
                op_started = time.perf_counter()
                with recorder.span("truecards.sub_plan_cards"):
                    cards[query.name] = service.sub_plan_cards(query)
                latencies.append(time.perf_counter() - op_started)
        return Repetition(time.perf_counter() - started, latencies, cards)

    def timed(self, built: LabellingInputs, seconds: float) -> TimedPass:
        off = SpanRecorder(enabled=False)
        return repeat_for(seconds, lambda: self._repetition(built, off, rep=-1))

    def verify(self, built: LabellingInputs, timed: TimedPass):
        problems = verify_labels(built.database, built.workload, POOL)
        if len(built.workload.queries) != inputs.golden()["queries"][POOL]:
            problems.append(f"{len(built.workload.queries)} queries labelled, not the whole pool")
        attempted = 0
        for rep in timed.repetitions:
            problems.extend(check_cards(built.workload, rep.cards))
            attempted += len(rep.cards)
        return attempted, len(problems), problems

    def layers(self, built: LabellingInputs, seconds: float, timed: TimedPass, trace_path):
        obs_metrics.reset()
        # Untraced and traced repetitions alternate, so both see the same box.
        recorder, off = SpanRecorder(), SpanRecorder(enabled=False)
        reps: list[Repetition] = []
        untraced_walls = []
        deadline = time.perf_counter() + seconds
        while not reps or time.perf_counter() < deadline:
            untraced_walls.append(self._repetition(built, off, rep=-1).wall)
            reps.append(self._repetition(built, recorder, len(reps)))
        counters = obs_metrics.snapshot()["counters"]
        write_jsonl(recorder.spans, trace_path)

        subset = built.workload.queries[::NOCACHE_STRIDE]
        service = inputs.labelling_service(built.database, use_exec_cache=False)
        started = time.perf_counter()
        for labeled in subset:
            service.sub_plan_cards(labeled.query)
        nocache = time.perf_counter() - started

        count_s = statistics.median(sum(rep.latencies) for rep in reps)
        counted = sum(len(cards) for cards in reps[0].cards.values())
        metrics = {
            "truecards.count_s": count_s,
            "truecards.subplans_counted": float(counted),
            "truecards.subplans_per_s": counted / count_s,
            "truecards.nocache_s": nocache,
            "trace.overhead_share": statistics.median(rep.wall for rep in reps)
            / statistics.median(untraced_walls)
            - 1.0,
        }
        for cache in ("selection", "join_build", "truecards"):
            hits = counters.get(f"cache.{cache}.hits", 0.0)
            lookups = hits + counters.get(f"cache.{cache}.misses", 0.0)
            metrics[f"cache.{cache}.hit_ratio"] = hits / lookups if lookups else 0.0
        problems = [p for rep in reps for p in check_cards(built.workload, rep.cards)]
        return metrics, problems


def check_cards(workload: Workload, cards: dict[str, dict]) -> list[str]:
    """Every counted sub-plan map must equal the stored labels."""
    return [
        f"{labeled.query.name}: counted sub-plan cardinalities differ from the labels"
        for labeled in workload.queries
        if cards.get(labeled.query.name) != labeled.sub_plan_true_cards
    ]
