"""The benchmark's inputs, built cold and timed asset by asset.

The data are the repo's quick-mode datasets at their default generator
seeds and the SQL comes from the committed pools in ``queries.json``: like
the paper's STATS-CEB and JOB-LIGHT, the query set *is* the benchmark.
``--seed`` draws what can vary without changing how much work a run does:
the order in which queries and requests are issued, and which training
queries LW-XGB is fitted on (hence the model and every served estimate).
``make_queries.py`` records what happened when the seed drew the data or
the queries as well.  ``golden.json`` pins the digest of the labels.

Nothing here reads or writes the repo's ``.cache/``: labels are computed
by calling the labelling layer directly, never through the workload cache.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core.truecards import TrueCardinalityService
from repro.engine.database import Database
from repro.engine.sql import parse_query
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.workloads.generator import Workload, label_query
from repro.workloads.training import flatten_to_examples

HERE = Path(__file__).parent
QUICK = ExperimentConfig.quick()
#: Row budget of the labelling service, as in ``build_stats_ceb``.
LABEL_ROW_BUDGET = 16_000_000
#: Training queries drawn (by ``--seed``) from the 40 in the pool.
TRAINING_SAMPLE = 32


class SetupClock:
    """Seconds spent building each asset during one set-up.

    Assets are named after the per-layer metric that reports them.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}

    @contextmanager
    def asset(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def load_pool(name: str) -> list[tuple[str, str]]:
    pools = json.loads((HERE / "queries.json").read_text())
    return [(query_name, sql) for query_name, sql in pools[name]]


def build_database(name: str, clock: SetupClock) -> Database:
    """Quick-mode STATS or IMDB-light, built the way ``ExperimentContext`` does."""
    with clock.asset("datasets.build_s"):
        return ExperimentContext(QUICK).database(name)


def labelling_service(database: Database, use_exec_cache: bool = True):
    """A fresh labelling service, configured as the workload builders' one."""
    return TrueCardinalityService(
        database, max_intermediate_rows=LABEL_ROW_BUDGET, use_exec_cache=use_exec_cache
    )


def label_pool(
    database: Database, pool: str, seed: int, clock: SetupClock, asset: str,
    sample: int | None = None,
) -> Workload:
    """Parse the pool's queries and label them on ``database``.

    The issue order is a seeded shuffle (cut to ``sample`` queries when
    given); labels come from a fresh labelling service with the exec cache
    on, as the workload builders use it.
    """
    entries = load_pool(pool)
    random.Random(seed).shuffle(entries)
    entries = entries[:sample]
    with clock.asset(asset):
        service = labelling_service(database)
        queries = []
        for name, sql in entries:
            query = parse_query(sql, join_graph=database.join_graph, name=name)
            labeled = label_query(service, query, min_cardinality=0)
            if labeled is None:
                raise RuntimeError(f"{name} exceeds the labelling budget")
            queries.append(labeled)
    return Workload(name=pool, database_name=database.name, queries=queries)


def fit_estimator(name: str, database: Database, clock: SetupClock, examples=None):
    """One fitted estimator in its quick-mode configuration."""
    estimator = ExperimentContext(QUICK).make_estimator(name)
    with clock.asset(f"estimators.fit_s.{name}"):
        estimator.fit(database)
        if examples is not None:
            estimator.fit_queries(examples)
    return estimator


def training_examples(database: Database, seed: int, clock: SetupClock) -> list:
    """Labelled (sub-plan query, cardinality) pairs of a seeded training sample."""
    workload = label_pool(
        database, "training-stats", seed, clock,
        asset="workloads.train_label_cold_s", sample=TRAINING_SAMPLE,
    )
    return flatten_to_examples(workload)


def label_digest(workload: Workload) -> str:
    """sha256 of the canonical (query name -> sorted sub-plan counts) map."""
    canonical = {
        labeled.query.name: sorted(
            [sorted(subset), int(count)]
            for subset, count in labeled.sub_plan_true_cards.items()
        )
        for labeled in workload.queries
    }
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())
