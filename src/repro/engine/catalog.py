"""Schema catalog: table/column metadata and the join graph.

The join graph plays the role of Figure 1 in the paper: it records
every equi-join relation the benchmark may use, annotated with whether
it is a PK-FK (one-to-many) or FK-FK (many-to-many) join.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.types import ColumnKind


@dataclass(frozen=True)
class ColumnMeta:
    """Metadata for one column.

    Attributes:
        name: column name, unique within its table.
        kind: logical value kind (INT / FLOAT).
        filterable: whether workload generators may place predicates on
            this column (the paper filters only n./c. non-key columns).
        is_key: whether the column participates in join edges.
    """

    name: str
    kind: ColumnKind = ColumnKind.INT
    filterable: bool = True
    is_key: bool = False


@dataclass(frozen=True)
class TableSchema:
    """Schema of one table: an ordered collection of columns."""

    name: str
    columns: tuple[ColumnMeta, ...]
    primary_key: str | None = None

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in names:
            raise ValueError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )

    def column(self, name: str) -> ColumnMeta:
        """Look up a column by name, raising ``KeyError`` if absent."""
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(f"{self.name}.{name}")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @property
    def filterable_columns(self) -> tuple[ColumnMeta, ...]:
        return tuple(c for c in self.columns if c.filterable and not c.is_key)

    @property
    def width(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class JoinEdge:
    """One equi-join relation ``left.left_column = right.right_column``.

    ``one_to_many`` is True for PK-FK joins (``left`` holds the primary
    key) and False for FK-FK (many-to-many) joins.
    """

    left: str
    left_column: str
    right: str
    right_column: str
    one_to_many: bool = True

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError("self-joins are not part of the benchmark schema")

    @property
    def tables(self) -> frozenset[str]:
        return frozenset((self.left, self.right))

    def key_for(self, table: str) -> str:
        """Join column of ``table``'s side of this edge."""
        if table == self.left:
            return self.left_column
        if table == self.right:
            return self.right_column
        raise KeyError(f"table {table!r} is not part of edge {self}")

    def other(self, table: str) -> str:
        """The table on the opposite side of ``table``."""
        if table == self.left:
            return self.right
        if table == self.right:
            return self.left
        raise KeyError(f"table {table!r} is not part of edge {self}")

    def reversed(self) -> "JoinEdge":
        return JoinEdge(
            left=self.right,
            left_column=self.right_column,
            right=self.left,
            right_column=self.left_column,
            one_to_many=self.one_to_many,
        )


@dataclass
class JoinGraph:
    """The schema-level join graph (Figure 1 of the paper).

    Nodes are table names; edges are :class:`JoinEdge` instances.
    Multiple edges between the same pair of tables are allowed (e.g.
    ``postLinks`` joins ``posts`` on both ``PostId`` and
    ``RelatedPostId``), though benchmark queries use one at a time.
    """

    edges: list[JoinEdge] = field(default_factory=list)

    def add(self, edge: JoinEdge) -> None:
        self.edges.append(edge)

    @property
    def tables(self) -> frozenset[str]:
        names: set[str] = set()
        for edge in self.edges:
            names.add(edge.left)
            names.add(edge.right)
        return frozenset(names)

    def edges_between(self, table_a: str, table_b: str) -> list[JoinEdge]:
        pair = frozenset((table_a, table_b))
        return [edge for edge in self.edges if edge.tables == pair]

    def edges_of(self, table: str) -> list[JoinEdge]:
        return [edge for edge in self.edges if table in edge.tables]

    def neighbors(self, table: str) -> frozenset[str]:
        return frozenset(edge.other(table) for edge in self.edges_of(table))

    def join_form(self, tables: frozenset[str], edges: list[JoinEdge] | None = None) -> str:
        """Classify the join shape over ``tables``: chain, star or mixed.

        A *chain* has every table touching at most two join edges, a
        *star* has one hub touching every other table, anything else is
        *mixed*.  Queries on <= 2 tables are chains by convention.
        """
        usable = [
            edge
            for edge in (self.edges if edges is None else edges)
            if edge.left in tables and edge.right in tables
        ]
        degree = {table: 0 for table in tables}
        for edge in usable:
            degree[edge.left] += 1
            degree[edge.right] += 1
        if len(tables) <= 2 or all(d <= 2 for d in degree.values()):
            return "chain"
        hub_count = sum(1 for d in degree.values() if d > 1)
        if hub_count == 1:
            return "star"
        return "mixed"
