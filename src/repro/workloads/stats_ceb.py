"""The STATS-CEB analog workload.

146 labelled queries over 70 distinct join templates on the STATS-like
database, spanning 2-8 joined tables, chain/star/mixed join forms,
PK-FK and FK-FK joins, and 1-16 filter predicates — the properties
Table 2 of the paper attributes to STATS-CEB.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.database import Database
from repro.workloads.cache import labelled_workload
from repro.workloads.generator import Workload, WorkloadSpec

NUM_QUERIES = 146
NUM_TEMPLATES = 70


def build_stats_ceb(
    database: Database,
    seed: int = 1,
    num_queries: int = NUM_QUERIES,
    num_templates: int = NUM_TEMPLATES,
    max_cardinality: int = 6_000_000,
    min_cardinality: int = 1_000,
    cache_dir: Path | None = None,
    use_cache: bool = True,
) -> Workload:
    """Build (or load from cache) the STATS-CEB analog workload."""
    spec = WorkloadSpec(
        name="stats-ceb",
        total_queries=num_queries,
        queries_per_template=(1, 4),
        predicates_range=(1, 16),
        min_cardinality=min_cardinality,
        max_cardinality=max_cardinality,
        seed=seed,
    )
    return labelled_workload(database, spec, num_templates, 8, cache_dir, use_cache)
