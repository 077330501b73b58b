"""Regenerate ``queries.json`` and ``golden.json``: the fixed query pools
and the digest of their labels.

The pools are the repo's own quick-mode workloads (``ExperimentConfig.quick()``
at the default generator seeds), exported as SQL:

- ``stats-ceb``: quick STATS-CEB minus the ten queries whose largest
  sub-plan exceeds ``MAX_SUB_PLAN_ROWS``, so that one repetition of the
  campaign takes ~2.5 s and a run holds several.
- ``job-light``: quick JOB-LIGHT, all 40 queries.
- ``training-stats``: the first ``TRAINING_QUERIES`` of the quick STATS
  training workload (LW-XGB fit time is the dominant set-up cost of the
  serving workloads and grows with the example count).

The pools and the data are fixed, and ``--seed`` only draws issue order and
the training sample, because both query generation and data generation
have a heavy-tailed cost.  Measured over ten seeds on the 2-CPU box:
drawing queries from the seed spread the campaign's ops/s by 24-48 % of
its median; drawing only the data (same SQL, re-labelled) still spread
ops/s by 9-10 %, p95 latency by 16 % and peak RSS by 16-24 %, and moved the
largest sub-plan of one query from 1.0M to 12.4M rows, next to the
labelling service's 16M-row budget.  No bound the benchmark could gate on
is that wide, and a seed must never make an operation fail.

``golden.json`` holds the sha256 of the labels the repo's own workload
builders gave these queries; the benchmark re-labels the pools in its
set-up through the labelling layer and compares.

Run from the repo root (takes about a minute cold):

    PYTHONPATH=src python3 benchmarks/perf/make_queries.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import inputs  # sibling module: the script's directory is on sys.path

from repro.engine.sql import parse_query, query_to_sql
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.workloads.training import build_training_workload

MAX_SUB_PLAN_ROWS = 3_000_000
TRAINING_QUERIES = 40
HERE = Path(__file__).parent


def _export(workload, database) -> list[list[str]]:
    entries = []
    for labeled in workload.queries:
        sql = query_to_sql(labeled.query)
        reparsed = parse_query(sql, join_graph=database.join_graph)
        if reparsed.key() != labeled.query.key():
            raise SystemExit(f"{labeled.query.name} does not survive the SQL round trip")
        entries.append([labeled.query.name, sql])
    return entries


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        config = ExperimentConfig(
            cache_dir=Path(scratch) / "runs", workload_cache_dir=Path(scratch)
        )
        context = ExperimentContext(config)
        stats, imdb = context.database("stats"), context.database("imdb")
        training = build_training_workload(
            stats,
            num_queries=config.training_queries,
            max_tables=8,
            max_cardinality=config.max_cardinality,
            use_cache=False,
        )
        stats_ceb = context.workload("stats-ceb")
        stats_ceb.queries = [
            labeled
            for labeled in stats_ceb.queries
            if max(labeled.sub_plan_true_cards.values()) <= MAX_SUB_PLAN_ROWS
        ]
        job_light = context.workload("job-light")
        pools = {
            "stats-ceb": _export(stats_ceb, stats),
            "job-light": _export(job_light, imdb),
            "training-stats": _export(training, stats)[:TRAINING_QUERIES],
        }
    golden = {
        "label_digest": {
            "stats-ceb": inputs.label_digest(stats_ceb),
            "job-light": inputs.label_digest(job_light),
        },
        "queries": {name: len(entries) for name, entries in pools.items()},
        "sub_plans": {
            "stats-ceb": sum(len(q.sub_plan_true_cards) for q in stats_ceb.queries),
            "job-light": sum(len(q.sub_plan_true_cards) for q in job_light.queries),
        },
    }
    (HERE / "queries.json").write_text(json.dumps(pools, indent=1) + "\n")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(golden)


if __name__ == "__main__":
    main()
