"""Training workloads for the query-driven estimators.

The paper trains MSCN / LW-* / UAE-Q on 10^5 automatically generated
queries, executed to obtain true cardinalities — and points out how
expensive that is (O9).  This module generates a scaled-down training
workload and flattens it into (sub-plan query, cardinality) examples:
every executed query labels its entire sub-plan space, so a few
hundred executions yield thousands of supervised examples.

The training workload is generated independently of the hand-picked
evaluation workloads, reproducing the workload-shift setting the
paper identifies as a core weakness of query-driven methods.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.database import Database
from repro.engine.query import Query
from repro.workloads.cache import labelled_workload
from repro.workloads.generator import Workload, WorkloadSpec


def build_training_workload(
    database: Database,
    num_queries: int = 300,
    seed: int = 99,
    max_tables: int = 8,
    max_cardinality: int = 6_000_000,
    cache_dir: Path | None = None,
    use_cache: bool = True,
) -> Workload:
    """A generated (not hand-picked) workload for model training."""
    spec = WorkloadSpec(
        name=f"training-{database.name}",
        total_queries=num_queries,
        queries_per_template=(1, 8),
        predicates_range=(1, 10),
        min_cardinality=1,
        max_cardinality=max_cardinality,
        seed=seed,
        attempts_per_query=6,
    )
    return labelled_workload(
        database, spec, max(num_queries // 5, 10), max_tables, cache_dir, use_cache
    )


def flatten_to_examples(workload: Workload) -> list[tuple[Query, int]]:
    """All (sub-plan query, true cardinality) pairs of a workload."""
    examples: list[tuple[Query, int]] = []
    for labeled in workload.queries:
        for subset, count in labeled.sub_plan_true_cards.items():
            examples.append((labeled.query.subquery(subset), count))
    return examples
