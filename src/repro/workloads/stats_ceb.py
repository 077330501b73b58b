"""The STATS-CEB analog workload.

146 labelled queries over 70 distinct join templates on the STATS-like
database, spanning 2-8 joined tables, chain/star/mixed join forms,
PK-FK and FK-FK joins, and 1-16 filter predicates — the properties
Table 2 of the paper attributes to STATS-CEB.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.truecards import TrueCardinalityService
from repro.engine.database import Database
from repro.workloads import cache
from repro.workloads.generator import Workload, WorkloadSpec, build_workload
from repro.workloads.templates import enumerate_templates

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
    key = cache.fingerprint(
        {
            "database": database.name,
            "rows": database.total_rows(),
            "checksum": cache.database_checksum(database),
            "seed": seed,
            "num_queries": num_queries,
            "num_templates": num_templates,
            "max_cardinality": max_cardinality,
            "min_cardinality": min_cardinality,
        }
    )
    path = cache.cached_path("stats-ceb", key, cache_dir)
    if use_cache:
        cached = cache.load(path)
        if cached is not None:
            return cached

    templates = enumerate_templates(
        database.join_graph,
        count=num_templates,
        seed=seed,
        min_tables=2,
        max_tables=8,
    )
    spec = WorkloadSpec(
        name="stats-ceb",
        total_queries=num_queries,
        queries_per_template=(1, 4),
        predicates_range=(1, 16),
        min_cardinality=min_cardinality,
        max_cardinality=max_cardinality,
        seed=seed,
    )
    service = TrueCardinalityService(database, max_intermediate_rows=16_000_000)
    workload = build_workload(database, templates, spec, service)
    if use_cache:
        cache.save(workload, path)
    return workload
