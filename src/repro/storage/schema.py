"""Table schemas: ordered, typed, optionally-constrained columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.common.errors import BindError, TypeMismatchError
from repro.storage.types import DataType, coerce_value, value_size_bytes


@dataclass(frozen=True)
class Column:
    """A single column definition.

    Attributes:
        name: column name (case-insensitive, stored lower-case).
        dtype: scalar type.
        unique: whether values must be unique (used by ``TRAIN ON *`` to
            exclude id-like features, per the paper's Listing 1).
        nullable: whether NULL is allowed.
    """

    name: str
    dtype: DataType
    unique: bool = False
    nullable: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())


class TableSchema:
    """An ordered collection of :class:`Column` with fast name lookup."""

    def __init__(self, table_name: str, columns: Sequence[Column]):
        if not columns:
            raise BindError(f"table {table_name!r} must have at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise BindError(f"duplicate column names in table {table_name!r}")
        self.table_name = table_name.lower()
        self.columns: tuple[Column, ...] = tuple(columns)
        self._index_of = {c.name: i for i, c in enumerate(columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TableSchema)
                and self.table_name == other.table_name
                and self.columns == other.columns)

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def dtypes(self) -> tuple[DataType, ...]:
        """Per-column scalar types, in column order (the typed-storage
        layout key: pages build their :class:`TypedColumn` caches from
        this)."""
        return tuple(c.dtype for c in self.columns)

    def has_column(self, name: str) -> bool:
        return name.lower() in self._index_of

    def index_of(self, name: str) -> int:
        try:
            return self._index_of[name.lower()]
        except KeyError:
            raise BindError(
                f"column {name!r} does not exist in table {self.table_name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def coerce_row(self, values: Sequence[Any]) -> tuple:
        """Validate and coerce one row of raw values into a storage tuple."""
        if len(values) != len(self.columns):
            raise TypeMismatchError(
                f"table {self.table_name!r} expects {len(self.columns)} values, "
                f"got {len(values)}")
        out = []
        for col, raw in zip(self.columns, values):
            value = coerce_value(raw, col.dtype)
            if value is None and not col.nullable:
                raise TypeMismatchError(
                    f"column {col.name!r} of {self.table_name!r} is NOT NULL")
            out.append(value)
        return tuple(out)

    def row_size_bytes(self, row: Sequence[Any]) -> int:
        return sum(value_size_bytes(v, c.dtype)
                   for v, c in zip(row, self.columns))

    def non_unique_column_names(self) -> list[str]:
        """Columns eligible for ``TRAIN ON *`` (the paper excludes columns
        with unique constraints as meaningless features)."""
        return [c.name for c in self.columns if not c.unique]

    def project(self, names: Iterable[str]) -> "TableSchema":
        """A derived schema containing only ``names``, in the given order."""
        cols = [self.column(n) for n in names]
        return TableSchema(self.table_name, cols)
