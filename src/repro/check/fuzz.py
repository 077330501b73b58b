"""Property-based fuzzing of the engine's schema/data/query space.

Generates random relational cases from a seed: a tree-shaped schema of
2–4 tables (PK-FK and FK-FK join edges), data engineered to hit the
edge cases that break join implementations — NULL join keys on both
sides, duplicate and dangling keys, heavy skew, empty and single-row
tables, constant columns — and random multi-join queries with random
range/equality/IN filters over them.

Join keys are drawn dense (ids ``0..n``, a handful of values around
them) and then, for a share of cases, moved onto a strided and offset
domain — up to the int64 limits — so that both branches of the hash
join's probe kernel (:class:`repro.engine.join_build.JoinBuild`:
direct-address directory on dense domains, binary search on sparse
ones) meet the oracle.

Every case is fully determined by ``(seed, index, FuzzConfig)``: the
same triple always regenerates the same schema, rows and queries, which
is what makes a failing case replayable from nothing but its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.catalog import ColumnMeta, JoinEdge, JoinGraph, TableSchema
from repro.engine.database import Database
from repro.engine.predicates import Predicate
from repro.engine.query import Query
from repro.engine.table import Table
from repro.engine.types import ColumnKind


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of the random case generator (all probabilities in [0, 1])."""

    min_tables: int = 2
    max_tables: int = 4
    max_rows: int = 100
    max_queries_per_case: int = 3
    max_predicates: int = 3
    #: Chance a join edge is FK-FK (both sides non-unique, NULL-able)
    #: instead of PK-FK.
    fk_fk_probability: float = 0.3
    #: Chance a NULL-able column actually receives NULLs; the fraction
    #: is then drawn up to ``max_null_frac``.
    null_probability: float = 0.45
    max_null_frac: float = 0.5
    empty_table_probability: float = 0.1
    single_row_probability: float = 0.1
    float_column_probability: float = 0.3
    #: Chance a child row's foreign key references a value absent from
    #: the parent side (a dangling key that must join to nothing).
    dangling_key_probability: float = 0.25
    #: Chance the case's join keys are moved from the dense domain onto
    #: a strided / offset one (see :func:`_key_domain`).
    sparse_key_probability: float = 0.4


@dataclass
class CheckCase:
    """One differential-testing case: a database plus its queries."""

    seed: int
    index: int
    database: Database
    queries: list[Query] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"check-{self.seed}-{self.index}"


def _case_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _key_domain(seed: int, index: int, config: FuzzConfig) -> tuple[int, int]:
    """``(offset, stride)`` mapping every join key ``k`` of a case to
    ``offset + stride * k``.

    The map is injective and applied to both sides of every edge, so
    it changes no join result — only which build/probe branch computes
    it.  Drawn from its own stream, so the rest of a case is what it
    was before key domains existed.  A third of the moved cases sit
    against an int64 limit (stride 1 there keeps the domain dense:
    the direct-address branch must not wrap either).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, index, 1]))
    if rng.random() >= config.sparse_key_probability:
        return 0, 1
    stride = int(rng.choice([1, 7, 1_000, 10**9, 10**15]))
    # Dense keys are row ids and a few dangling values past them.
    top = stride * (config.max_rows + 8)
    limits = np.iinfo(np.int64)
    offset = int(
        rng.choice([limits.max - top, limits.min, int(rng.integers(-(10**6), 10**6))])
    )
    return offset, stride


def _table_size(rng: np.random.Generator, config: FuzzConfig) -> int:
    roll = rng.random()
    if roll < config.empty_table_probability:
        return 0
    if roll < config.empty_table_probability + config.single_row_probability:
        return 1
    return int(rng.integers(2, max(3, config.max_rows + 1)))


def _null_mask(
    rng: np.random.Generator, n: int, config: FuzzConfig
) -> np.ndarray | None:
    if n == 0 or rng.random() >= config.null_probability:
        return None
    frac = rng.uniform(0.05, config.max_null_frac)
    return rng.random(n) < frac


def _skewed_refs(rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    """``n`` references into ``[0, domain)`` with power-law skew."""
    if domain <= 0:
        return np.zeros(n, dtype=np.int64)
    exponent = rng.uniform(1.0, 3.0)
    return np.minimum(
        (rng.random(n) ** exponent * domain).astype(np.int64), domain - 1
    )


def _attr_values(
    rng: np.random.Generator, n: int, kind: ColumnKind
) -> np.ndarray:
    """Values for a filterable attribute column.

    Small domains force duplicates; occasionally the column is constant
    (degenerate histograms) or includes negatives.
    """
    if kind is ColumnKind.FLOAT:
        if rng.random() < 0.1:
            return np.full(n, round(rng.uniform(-5, 5), 3))
        values = rng.uniform(-10.0, 10.0, n)
        return np.round(values, 3)
    domain = int(rng.integers(1, 12))
    low = int(rng.integers(-3, 2))
    if rng.random() < 0.1:
        return np.full(n, low, dtype=np.int64)
    return rng.integers(low, low + domain, n)


@dataclass
class _EdgePlan:
    parent: int
    child: int
    fk_fk: bool
    #: Shared small key domain for FK-FK edges (both sides draw from a
    #: window around it so some keys match many rows and some none).
    domain: int


def build_case(
    seed: int, index: int, config: FuzzConfig | None = None
) -> CheckCase:
    """Deterministically generate case ``index`` of fuzz run ``seed``."""
    config = config or FuzzConfig()
    rng = _case_rng(seed, index)

    num_tables = int(rng.integers(config.min_tables, config.max_tables + 1))
    edge_plans: list[_EdgePlan] = []
    for child in range(1, num_tables):
        parent = int(rng.integers(0, child))
        fk_fk = bool(rng.random() < config.fk_fk_probability)
        edge_plans.append(
            _EdgePlan(
                parent=parent,
                child=child,
                fk_fk=fk_fk,
                domain=int(rng.integers(2, 10)),
            )
        )

    # -- schemas ----------------------------------------------------------
    columns: dict[int, list[ColumnMeta]] = {}
    for i in range(num_tables):
        cols = [ColumnMeta("id", is_key=True, filterable=False)]
        for plan in edge_plans:
            if plan.child == i:
                cols.append(
                    ColumnMeta(f"fk_t{plan.parent}", is_key=True, filterable=False)
                )
            if plan.parent == i and plan.fk_fk:
                cols.append(
                    ColumnMeta(f"link_t{plan.child}", is_key=True, filterable=False)
                )
        for v in range(int(rng.integers(1, 3))):
            kind = (
                ColumnKind.FLOAT
                if rng.random() < config.float_column_probability
                else ColumnKind.INT
            )
            cols.append(ColumnMeta(f"v{v}", kind=kind))
        columns[i] = cols

    schemas = {
        i: TableSchema(f"t{i}", tuple(columns[i]), primary_key="id")
        for i in range(num_tables)
    }

    # -- data -------------------------------------------------------------
    sizes = {i: _table_size(rng, config) for i in range(num_tables)}
    arrays: dict[int, dict[str, np.ndarray]] = {}
    nulls: dict[int, dict[str, np.ndarray]] = {}
    for i in range(num_tables):
        n = sizes[i]
        arrays[i] = {"id": np.arange(n, dtype=np.int64)}
        nulls[i] = {}
        for meta in columns[i]:
            if meta.name == "id":
                continue
            if meta.name.startswith("fk_t") or meta.name.startswith("link_t"):
                continue  # key columns are filled from the edge plans below
            values = _attr_values(rng, n, meta.kind)
            arrays[i][meta.name] = values
            mask = _null_mask(rng, n, config)
            if mask is not None:
                nulls[i][meta.name] = mask

    for plan in edge_plans:
        child_n = sizes[plan.child]
        fk_name = f"fk_t{plan.parent}"
        if plan.fk_fk:
            link_name = f"link_t{plan.child}"
            parent_n = sizes[plan.parent]
            # Both sides draw from overlapping windows of a small shared
            # domain: duplicate matches, partial overlap, dangling keys.
            parent_vals = _skewed_refs(rng, parent_n, plan.domain)
            child_vals = _skewed_refs(rng, child_n, plan.domain + 2)
            arrays[plan.parent][link_name] = parent_vals
            arrays[plan.child][fk_name] = child_vals
            for table_index, name in (
                (plan.parent, link_name),
                (plan.child, fk_name),
            ):
                mask = _null_mask(rng, sizes[table_index], config)
                if mask is not None:
                    nulls[table_index][name] = mask
        else:
            parent_n = sizes[plan.parent]
            refs = _skewed_refs(rng, child_n, parent_n)
            dangling = rng.random(child_n) < config.dangling_key_probability
            refs = np.where(
                dangling, parent_n + rng.integers(1, 5, child_n), refs
            )
            arrays[plan.child][fk_name] = refs
            mask = _null_mask(rng, child_n, config)
            if mask is not None:
                nulls[plan.child][fk_name] = mask

    offset, stride = _key_domain(seed, index, config)
    for i in range(num_tables):
        for meta in columns[i]:
            if meta.is_key:
                arrays[i][meta.name] = offset + stride * arrays[i][meta.name]

    graph = JoinGraph()
    for plan in edge_plans:
        if plan.fk_fk:
            graph.add(
                JoinEdge(
                    left=f"t{plan.parent}",
                    left_column=f"link_t{plan.child}",
                    right=f"t{plan.child}",
                    right_column=f"fk_t{plan.parent}",
                    one_to_many=False,
                )
            )
        else:
            graph.add(
                JoinEdge(
                    left=f"t{plan.parent}",
                    left_column="id",
                    right=f"t{plan.child}",
                    right_column=f"fk_t{plan.parent}",
                    one_to_many=True,
                )
            )

    database = Database(
        name=f"fuzz-{seed}-{index}",
        tables={
            f"t{i}": Table.from_arrays(schemas[i], arrays[i], nulls[i])
            for i in range(num_tables)
        },
        join_graph=graph,
    )

    queries = _random_queries(rng, database, seed, index, config)
    return CheckCase(seed=seed, index=index, database=database, queries=queries)


# -- query generation ---------------------------------------------------------


def _connected_subset(
    rng: np.random.Generator, graph: JoinGraph, size: int
) -> frozenset[str]:
    tables = sorted(graph.tables)
    current = {tables[int(rng.integers(len(tables)))]}
    while len(current) < size:
        frontier = sorted(
            neighbor
            for table in current
            for neighbor in graph.neighbors(table)
            if neighbor not in current
        )
        if not frontier:
            break
        current.add(frontier[int(rng.integers(len(frontier)))])
    return frozenset(current)


def _predicate_value(
    rng: np.random.Generator, column_values: np.ndarray, kind: ColumnKind
) -> float:
    """A comparison literal: usually a real data value, sometimes not."""
    roll = rng.random()
    if len(column_values) and roll < 0.6:
        anchor = column_values[int(rng.integers(len(column_values)))]
        return float(anchor)
    if len(column_values) and roll < 0.8:
        # Just outside the observed domain: boundary behaviour.
        extreme = float(column_values.max()) if rng.random() < 0.5 else float(
            column_values.min()
        )
        return extreme + float(rng.integers(-2, 3))
    if kind is ColumnKind.FLOAT and roll < 0.9:
        # Tiny magnitudes render in scientific notation — the literal
        # form that must round-trip through the SQL parser and SQLite.
        return float(rng.choice([1e-7, -1e-7, 2.5e-3, 0.0]))
    return float(rng.integers(-20, 21))


def _random_predicates(
    rng: np.random.Generator,
    database: Database,
    tables: frozenset[str],
    config: FuzzConfig,
) -> tuple[Predicate, ...]:
    candidates = [
        (name, meta)
        for name in sorted(tables)
        for meta in database.tables[name].schema.columns
        if meta.filterable and not meta.is_key
    ]
    if not candidates:
        return ()
    predicates = []
    for _ in range(int(rng.integers(0, config.max_predicates + 1))):
        table_name, meta = candidates[int(rng.integers(len(candidates)))]
        column = database.tables[table_name].column(meta.name)
        values = column.non_null_values()
        op = str(rng.choice(["=", "<", "<=", ">", ">=", "between", "in"]))
        if op == "between":
            a = _predicate_value(rng, values, meta.kind)
            b = _predicate_value(rng, values, meta.kind)
            predicates.append(
                Predicate(table_name, meta.name, "between", (min(a, b), max(a, b)))
            )
        elif op == "in":
            picks = tuple(
                sorted(
                    {
                        _predicate_value(rng, values, meta.kind)
                        for _ in range(int(rng.integers(1, 4)))
                    }
                )
            )
            predicates.append(Predicate(table_name, meta.name, "in", picks))
        else:
            predicates.append(
                Predicate(
                    table_name, meta.name, op, _predicate_value(rng, values, meta.kind)
                )
            )
    return tuple(predicates)


def _random_queries(
    rng: np.random.Generator,
    database: Database,
    seed: int,
    index: int,
    config: FuzzConfig,
) -> list[Query]:
    num_tables = len(database.tables)
    queries = []
    for q in range(int(rng.integers(1, config.max_queries_per_case + 1))):
        size = int(rng.integers(1, num_tables + 1))
        subset = _connected_subset(rng, database.join_graph, size)
        edges = tuple(
            edge
            for edge in database.join_graph.edges
            if edge.left in subset and edge.right in subset
        )
        queries.append(
            Query(
                tables=subset,
                join_edges=edges,
                predicates=_random_predicates(rng, database, subset, config),
                name=f"check-{seed}-{index}-q{q}",
            )
        )
    return queries
