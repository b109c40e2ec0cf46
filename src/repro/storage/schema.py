"""Table schemas: ordered, typed, optionally-constrained columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.common.errors import BindError, TypeMismatchError
from repro.storage.types import (STORED_TYPES, DataType, coerce_value,
                                 value_size_bytes)


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
        # the insert loop's plan: per column, the one Python type it
        # stores without conversion
        self._exact = tuple(STORED_TYPES[c.dtype] for c in self.columns)
        self._text = tuple(i for i, c in enumerate(self.columns)
                           if c.dtype is DataType.TEXT)
        self._fixed_bytes = sum(value_size_bytes(0, c.dtype)
                                for c in self.columns
                                if c.dtype is not DataType.TEXT)

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

    def coerce_row(self, values: Sequence[Any]) -> tuple[tuple, int]:
        """Validate and coerce one row of raw values into a storage tuple;
        returns ``(row, row_bytes)``, its page-accounting size beside it.

        One pass over the row.  A row whose every value is exactly its
        column's stored Python type (``int`` for INT, ``float`` for
        FLOAT, ``str`` for TEXT, ``bool`` for BOOL) — what a load
        offers — is stored as it is and sized inline: 8 bytes a number,
        1 a bool, a string's UTF-8 length plus 4.  Any other row goes
        value by value: a value of another type — NULL, an ``int``
        widened into FLOAT, a ``bool`` offered to a number, a float
        subclass, an integral float into INT, anything ill-typed — goes
        through :func:`coerce_value`, and every value of that row is
        sized by :func:`value_size_bytes`, the one definition of both."""
        if tuple(map(type, values)) == self._exact:
            row = tuple(values)
            size = self._fixed_bytes
            for i in self._text:
                size += len(row[i].encode("utf-8")) + 4
            return row, size
        if len(values) != len(self.columns):
            raise TypeMismatchError(
                f"table {self.table_name!r} expects {len(self.columns)} values, "
                f"got {len(values)}")
        out = []
        size = 0
        for col, exact, raw in zip(self.columns, self._exact, values):
            if type(raw) is not exact:
                raw = coerce_value(raw, col.dtype)
                if raw is None and not col.nullable:
                    raise TypeMismatchError(
                        f"column {col.name!r} of {self.table_name!r} "
                        f"is NOT NULL")
            out.append(raw)
            size += value_size_bytes(raw, col.dtype)
        return tuple(out), size

    def non_unique_column_names(self) -> list[str]:
        """Columns eligible for ``TRAIN ON *`` (the paper excludes columns
        with unique constraints as meaningless features)."""
        return [c.name for c in self.columns if not c.unique]

    def project(self, names: Iterable[str]) -> "TableSchema":
        """A derived schema containing only ``names``, in the given order."""
        cols = [self.column(n) for n in names]
        return TableSchema(self.table_name, cols)
