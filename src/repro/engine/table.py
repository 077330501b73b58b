"""Column-store table over numpy arrays with NULL masks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.catalog import TableSchema


@dataclass
class Column:
    """One stored column: values plus a NULL mask.

    ``values[i]`` is undefined wherever ``null_mask[i]`` is True.
    """

    values: np.ndarray
    null_mask: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.null_mask.shape:
            raise ValueError("values and null_mask must have the same shape")
        if self.null_mask.dtype != np.bool_:
            raise ValueError("null_mask must be boolean")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values: np.ndarray, null_mask: np.ndarray | None = None) -> "Column":
        values = np.asarray(values)
        if null_mask is None:
            null_mask = np.zeros(len(values), dtype=bool)
        return cls(values=values, null_mask=np.asarray(null_mask, dtype=bool))

    def non_null_values(self) -> np.ndarray:
        return self.values[~self.null_mask]

    def take(self, indices: np.ndarray) -> "Column":
        return Column(values=self.values[indices], null_mask=self.null_mask[indices])


@dataclass
class Table:
    """A named relation: schema plus per-column storage."""

    schema: TableSchema
    columns: dict[str, Column] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(column) for column in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns in table {self.schema.name!r}")
        missing = set(self.schema.column_names) - set(self.columns)
        if missing:
            raise ValueError(f"table {self.schema.name!r} missing columns {sorted(missing)}")

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> Column:
        return self.columns[name]

    @classmethod
    def from_arrays(
        cls,
        schema: TableSchema,
        arrays: dict[str, np.ndarray],
        null_masks: dict[str, np.ndarray] | None = None,
    ) -> "Table":
        """Build a table from raw numpy arrays keyed by column name."""
        null_masks = null_masks or {}
        columns = {}
        for meta in schema.columns:
            if meta.name not in arrays:
                raise KeyError(f"missing data for column {schema.name}.{meta.name}")
            values = np.asarray(arrays[meta.name]).astype(meta.kind.dtype, copy=False)
            columns[meta.name] = Column.from_values(values, null_masks.get(meta.name))
        return cls(schema=schema, columns=columns)

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset of this table (a new table sharing the schema)."""
        return Table(
            schema=self.schema,
            columns={name: column.take(indices) for name, column in self.columns.items()},
        )

    def head(self, n: int) -> "Table":
        return self.take(np.arange(min(n, self.num_rows)))

    def append(self, other: "Table") -> "Table":
        """Concatenate ``other``'s rows below this table's (same schema)."""
        if other.schema.name != self.schema.name:
            raise ValueError("cannot append rows from a different table")
        columns = {}
        for name, column in self.columns.items():
            other_column = other.columns[name]
            columns[name] = Column(
                values=np.concatenate([column.values, other_column.values]),
                null_mask=np.concatenate([column.null_mask, other_column.null_mask]),
            )
        return Table(schema=self.schema, columns=columns)

    def nbytes(self) -> int:
        """Approximate in-memory footprint of the stored arrays."""
        total = 0
        for column in self.columns.values():
            total += column.values.nbytes + column.null_mask.nbytes
        return total
