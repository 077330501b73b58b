"""The JOB-LIGHT analog workload.

70 labelled queries over 23 star-join templates on the simplified-IMDB
database, 2-5 joined tables and 1-4 predicates — the properties
Table 2 of the paper attributes to JOB-LIGHT.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.database import Database
from repro.workloads.cache import labelled_workload
from repro.workloads.generator import Workload, WorkloadSpec

NUM_QUERIES = 70
NUM_TEMPLATES = 23


def build_job_light(
    database: Database,
    seed: int = 2,
    num_queries: int = NUM_QUERIES,
    num_templates: int = NUM_TEMPLATES,
    max_cardinality: int = 4_000_000,
    min_cardinality: int = 50,
    cache_dir: Path | None = None,
    use_cache: bool = True,
) -> Workload:
    """Build (or load from cache) the JOB-LIGHT analog workload."""
    spec = WorkloadSpec(
        name="job-light",
        total_queries=num_queries,
        queries_per_template=(2, 4),
        predicates_range=(1, 4),
        min_cardinality=min_cardinality,
        max_cardinality=max_cardinality,
        seed=seed,
    )
    return labelled_workload(database, spec, num_templates, 5, cache_dir, use_cache)
