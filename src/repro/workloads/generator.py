"""Query generation and labelling (phase two of the workload design).

Given a join template, the generator samples filter predicates
anchored at real data rows (so predicates have real-world semantics
and non-trivial selectivities), labels each query with the exact
cardinality of its whole sub-plan query space, and accepts or rejects
it against cardinality bounds — the automated analog of the paper's
"generate and hand-pick" procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.truecards import TrueCardinalityService
from repro.engine.database import Database
from repro.engine.executor import ExecutionAborted
from repro.engine.predicates import Predicate
from repro.engine.query import LabeledQuery, Query
from repro.workloads.templates import JoinTemplate


@dataclass
class Workload:
    """A named list of labelled queries over one database."""

    name: str
    database_name: str
    queries: list[LabeledQuery] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def cardinality_range(self) -> tuple[int, int]:
        cards = [labeled.true_cardinality for labeled in self.queries]
        return (min(cards), max(cards)) if cards else (0, 0)

    def subset(self, names: set[str]) -> "Workload":
        return Workload(
            name=f"{self.name}-subset",
            database_name=self.database_name,
            queries=[q for q in self.queries if q.query.name in names],
        )


@dataclass(frozen=True)
class PredicateSpec:
    """Knobs controlling predicate sampling."""

    small_domain: int = 25
    eq_probability: float = 0.25
    in_probability: float = 0.35


def sample_predicate(
    rng: np.random.Generator,
    database: Database,
    table_name: str,
    column_name: str,
    spec: PredicateSpec = PredicateSpec(),
) -> Predicate | None:
    """One predicate on ``table.column`` anchored at a random data row."""
    column = database.tables[table_name].column(column_name)
    values = column.non_null_values()
    if len(values) == 0:
        return None
    anchor = float(values[rng.integers(len(values))])
    domain = np.unique(values)

    if len(domain) <= spec.small_domain:
        roll = rng.random()
        if roll < spec.in_probability:
            extra = rng.choice(domain, size=min(len(domain), int(rng.integers(2, 5))), replace=False)
            chosen = tuple(sorted({float(v) for v in extra} | {anchor}))
            return Predicate(table_name, column_name, "in", chosen)
        return Predicate(table_name, column_name, "=", anchor)

    roll = rng.random()
    if roll < spec.eq_probability:
        return Predicate(table_name, column_name, "=", anchor)
    low, high = float(domain[0]), float(domain[-1])
    span = max(high - low, 1.0)
    # Log-uniform width: selectivities from very narrow to very wide.
    width = span * float(np.exp(rng.uniform(np.log(0.002), np.log(0.8))))
    if roll < spec.eq_probability + 0.25:
        return Predicate(table_name, column_name, "<=", anchor + width / 2)
    if roll < spec.eq_probability + 0.5:
        return Predicate(table_name, column_name, ">=", anchor - width / 2)
    return Predicate(
        table_name, column_name, "between", (anchor - width / 2, anchor + width / 2)
    )


def sample_query(
    rng: np.random.Generator,
    database: Database,
    template: JoinTemplate,
    num_predicates: int,
    name: str = "",
    spec: PredicateSpec = PredicateSpec(),
) -> Query:
    """One query on ``template`` with roughly ``num_predicates`` filters."""
    slots: list[tuple[str, str]] = []
    for table_name in sorted(template.tables):
        schema = database.tables[table_name].schema
        slots.extend((table_name, col.name) for col in schema.filterable_columns)
    rng.shuffle(slots)
    predicates: list[Predicate] = []
    for table_name, column_name in slots:
        if len(predicates) >= num_predicates:
            break
        predicate = sample_predicate(rng, database, table_name, column_name, spec)
        if predicate is not None:
            predicates.append(predicate)
    return Query(
        tables=template.tables,
        join_edges=template.edges,
        predicates=tuple(predicates),
        name=name,
    )


def label_query(
    service: TrueCardinalityService,
    query: Query,
    min_cardinality: int = 1,
    max_cardinality: int | None = None,
) -> LabeledQuery | None:
    """Label ``query`` with exact sub-plan cardinalities, or reject it.

    Returns None when the query's result falls outside the accepted
    cardinality range or when any sub-plan exceeds the execution
    budget (the workload must stay runnable end to end).
    """
    try:
        sub_cards = service.sub_plan_cards(query)
    except ExecutionAborted:
        return None
    total = sub_cards[query.tables]
    if total < min_cardinality:
        return None
    if max_cardinality is not None and total > max_cardinality:
        return None
    return LabeledQuery(
        query=query,
        true_cardinality=total,
        sub_plan_true_cards=sub_cards,
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated workload."""

    name: str
    total_queries: int
    queries_per_template: tuple[int, int] = (1, 4)
    predicates_range: tuple[int, int] = (1, 16)
    min_cardinality: int = 1
    max_cardinality: int | None = None
    seed: int = 0
    attempts_per_query: int = 12


def build_workload(
    database: Database,
    templates: list[JoinTemplate],
    spec: WorkloadSpec,
    service: TrueCardinalityService | None = None,
) -> Workload:
    """Generate a labelled workload over ``templates``.

    Templates are cycled round-robin; each receives between
    ``queries_per_template`` queries until ``total_queries`` accepted
    queries exist.  Deterministic for a fixed spec and database.
    """
    rng = np.random.default_rng(spec.seed)
    service = service or TrueCardinalityService(database)
    workload = Workload(name=spec.name, database_name=database.name)

    quotas = _template_quotas(rng, len(templates), spec)
    counter = [0]
    for template, quota in zip(templates, quotas):
        _fill_template(database, template, quota, spec, service, rng, workload, counter)
        if len(workload.queries) >= spec.total_queries:
            return workload

    # Some templates (typically heavy many-to-many ones) may fail every
    # attempt; redistribute their shortfall across the others.
    for sweep in range(4):
        if len(workload.queries) >= spec.total_queries:
            break
        for template in templates:
            if len(workload.queries) >= spec.total_queries:
                break
            _fill_template(database, template, 1, spec, service, rng, workload, counter)
    return workload


def _fill_template(
    database: Database,
    template: JoinTemplate,
    quota: int,
    spec: WorkloadSpec,
    service: TrueCardinalityService,
    rng: np.random.Generator,
    workload: Workload,
    counter: list[int],
) -> None:
    produced = 0
    attempts = 0
    while produced < quota and attempts < spec.attempts_per_query * quota:
        attempts += 1
        max_preds = min(
            spec.predicates_range[1],
            sum(
                len(database.tables[t].schema.filterable_columns)
                for t in template.tables
            ),
        )
        num_predicates = int(rng.integers(spec.predicates_range[0], max_preds + 1))
        query = sample_query(
            rng,
            database,
            template,
            num_predicates,
            name=f"{spec.name}-q{counter[0] + 1}",
        )
        labeled = label_query(service, query, spec.min_cardinality, spec.max_cardinality)
        if labeled is None:
            continue
        workload.queries.append(labeled)
        produced += 1
        counter[0] += 1
        if len(workload.queries) >= spec.total_queries:
            return


def _template_quotas(
    rng: np.random.Generator,
    num_templates: int,
    spec: WorkloadSpec,
) -> list[int]:
    """Per-template query counts summing to exactly ``total_queries``.

    Every template receives at least ``queries_per_template[0]`` queries
    (so all join templates are represented in the workload) and at most
    ``queries_per_template[1]``, unless the requested total forces more.
    """
    low, high = spec.queries_per_template
    quotas = [low] * num_templates
    remaining = spec.total_queries - sum(quotas)
    while remaining > 0:
        index = int(rng.integers(num_templates))
        if quotas[index] < high or all(q >= high for q in quotas):
            quotas[index] += 1
            remaining -= 1
    return quotas
