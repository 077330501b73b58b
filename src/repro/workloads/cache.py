"""The one builder of labelled workloads, and its disk cache.

Labelling a workload executes every sub-plan query exactly, which is
the most expensive step of benchmark preparation.  Since datasets and
workloads are fully deterministic in their configs, the result is
cached keyed by a config fingerprint — as the annotated SQL of
:func:`repro.workloads.sql_io.export_workload`, so a cache file is
byte for byte what ``repro export-workload`` writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.core.truecards import TrueCardinalityService
from repro.engine.database import Database
from repro.workloads.generator import Workload, WorkloadSpec, build_workload
from repro.workloads.sql_io import export_workload, import_workload
from repro.workloads.templates import enumerate_templates

DEFAULT_CACHE_DIR = Path(".cache") / "workloads"
#: Intermediate-row budget of each labelling execution.
LABEL_ROW_BUDGET = 16_000_000


def fingerprint(parts: dict) -> str:
    """Stable short hash of a config dictionary."""
    payload = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def database_checksum(database) -> int:
    """Cheap content checksum so cached workloads invalidate when the
    data generator changes, not only when table sizes do."""
    total = 0
    for name in sorted(database.tables):
        table = database.tables[name]
        for column_name in table.schema.column_names:
            column = table.column(column_name)
            total ^= int(column.values.sum()) & 0xFFFFFFFFFFFF
            total ^= int(column.null_mask.sum()) << 1
    return total


def labelled_workload(
    database: Database,
    spec: WorkloadSpec,
    num_templates: int,
    max_tables: int,
    cache_dir: Path | None = None,
    use_cache: bool = True,
) -> Workload:
    """Build (or load from cache) the workload ``spec`` describes.

    Queries fill ``num_templates`` join templates of 2 to
    ``max_tables`` tables.  The cache file is
    ``<cache_dir>/<spec.name>-<key>.sql``; a missing or unparseable
    one is a miss, and the rebuilt workload replaces it atomically.
    """
    key = fingerprint(
        {
            "database": database.name,
            "rows": database.total_rows(),
            "checksum": database_checksum(database),
            "spec": dataclasses.asdict(spec),
            "num_templates": num_templates,
            "max_tables": max_tables,
        }
    )
    path = (cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR) / f"{spec.name}-{key}.sql"
    if use_cache:
        try:
            return import_workload(path, database.join_graph, spec.name, database.name)
        except (OSError, ValueError):
            pass

    templates = enumerate_templates(
        database.join_graph,
        count=num_templates,
        seed=spec.seed,
        min_tables=2,
        max_tables=max_tables,
    )
    service = TrueCardinalityService(database, max_intermediate_rows=LABEL_ROW_BUDGET)
    workload = build_workload(database, templates, spec, service)
    if use_cache:
        # Export beside the target, then rename: a reader sees no file or
        # the whole one, never a prefix that parses as fewer queries.
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            export_workload(workload, temporary)
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
    return workload
