"""Workload export/import as ``.sql`` files.

Mirrors how the paper's benchmark releases STATS-CEB: one query per
line in the benchmark SQL dialect, annotated with its true cardinality
(and, here, the full sub-plan cardinalities) in trailing comments so a
downstream system can consume the labels without re-executing.  It is
also the on-disk form of the labelled-workload cache
(:mod:`repro.workloads.cache`): ``import_workload(export_workload(w))``
equals ``w`` query by query, labels included.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.engine.catalog import JoinGraph
from repro.engine.query import LabeledQuery
from repro.engine.sql import parse_query, query_to_sql
from repro.workloads.generator import Workload

_CARD_MARKER = "-- true_cardinality:"
_SUBPLAN_MARKER = "-- sub_plan_cardinalities:"
_HEADER = re.compile(r"-- workload: .* \((\d+) queries, database .*\)")


def export_workload(workload: Workload, path: Path) -> None:
    """Write the workload as annotated benchmark-dialect SQL."""
    lines = [
        f"-- workload: {workload.name} ({len(workload)} queries, "
        f"database {workload.database_name})"
    ]
    for labeled in workload.queries:
        lines.append("")
        lines.append(f"-- name: {labeled.query.name}")
        lines.append(f"{_CARD_MARKER} {labeled.true_cardinality}")
        sub_plans = [
            [sorted(tables), count]
            for tables, count in sorted(
                labeled.sub_plan_true_cards.items(),
                key=lambda kv: (len(kv[0]), sorted(kv[0])),
            )
        ]
        lines.append(f"{_SUBPLAN_MARKER} {json.dumps(sub_plans)}")
        lines.append(query_to_sql(labeled.query))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def import_workload(
    path: Path,
    join_graph: JoinGraph | None = None,
    name: str = "imported",
    database_name: str = "unknown",
) -> Workload:
    """Read a workload written by :func:`export_workload`.

    Plain ``.sql`` files (queries only, no annotations) import too;
    such queries carry a true cardinality of -1 and no sub-plan labels.
    A file whose ``-- workload:`` header declares more or fewer queries
    than it holds, or that does not end in a newline, is torn and
    raises :class:`ValueError`.
    """
    workload = Workload(name=name, database_name=database_name)
    current_name = ""
    cardinality = -1
    sub_plans: dict = {}
    text = path.read_text()
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        if line.startswith("-- name:"):
            current_name = line.split(":", 1)[1].strip()
            continue
        if line.startswith(_CARD_MARKER):
            cardinality = int(line[len(_CARD_MARKER) :].strip())
            continue
        if line.startswith(_SUBPLAN_MARKER):
            payload = json.loads(line[len(_SUBPLAN_MARKER) :].strip())
            sub_plans = {frozenset(tables): count for tables, count in payload}
            continue
        if line.startswith("--"):
            continue
        query = parse_query(line, join_graph, name=current_name or f"q{len(workload) + 1}")
        workload.queries.append(
            LabeledQuery(
                query=query,
                true_cardinality=cardinality,
                sub_plan_true_cards=sub_plans,
            )
        )
        current_name = ""
        cardinality = -1
        sub_plans = {}
    header = _HEADER.match(text)
    if header and (int(header[1]) != len(workload) or not text.endswith("\n")):
        raise ValueError(f"{path} is torn: its header declares {header[1]} queries")
    return workload
