"""Column types, value coercion, and the typed at-rest column container.

The engine supports four scalar types which cover everything the paper's
workloads need: 64-bit integers, double-precision floats, text, and booleans.
NULL is represented by Python ``None`` and is a member of every type.

Since typed columnar storage v2, pages also keep a :class:`TypedColumn`
per column: int64/float64/bool data arrays with a validity bitmap, or
dictionary-encoded strings (int32 codes over a first-seen dictionary).
The typed representation is what scans hand to the vectorized engines,
and the one column type of the executor's blocks: computed values ride
in the ``"obj"`` kind.  ``objects()`` lazily reconstructs the
object-array view only where a consumer genuinely needs raw Python
values.  See ``docs/storage.md``.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence

import numpy as np

from repro.common.errors import TypeMismatchError


class DataType(enum.Enum):
    """Scalar column types."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        normalized = name.strip().upper()
        aliases = {
            "INTEGER": "INT",
            "BIGINT": "INT",
            "SMALLINT": "INT",
            "DOUBLE": "FLOAT",
            "REAL": "FLOAT",
            "NUMERIC": "FLOAT",
            "DECIMAL": "FLOAT",
            "VARCHAR": "TEXT",
            "CHAR": "TEXT",
            "STRING": "TEXT",
            "BOOLEAN": "BOOL",
        }
        normalized = aliases.get(normalized, normalized)
        try:
            return cls(normalized)
        except ValueError:
            raise TypeMismatchError(f"unknown type name {name!r}") from None


#: The Python type a column of each type stores its values as.
STORED_TYPES = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.TEXT: str,
    DataType.BOOL: bool,
}


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce a Python value to the storage representation of ``dtype``.

    NULL (``None``) passes through for every type.  Numeric widening
    (int -> float) is allowed; lossy or cross-kind coercions raise
    :class:`TypeMismatchError`.
    """
    if value is None:
        return None
    if dtype is DataType.INT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store BOOL {value!r} in INT column")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise TypeMismatchError(f"cannot store {value!r} in INT column")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"cannot store BOOL {value!r} in FLOAT column")
        if isinstance(value, (int, float)):
            return float(value)
        raise TypeMismatchError(f"cannot store {value!r} in FLOAT column")
    if dtype is DataType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeMismatchError(f"cannot store {value!r} in TEXT column")
    if dtype is DataType.BOOL:
        if isinstance(value, bool):
            return value
        raise TypeMismatchError(f"cannot store {value!r} in BOOL column")
    raise TypeMismatchError(f"unhandled type {dtype}")  # pragma: no cover


def value_size_bytes(value: Any, dtype: DataType) -> int:
    """Approximate on-wire size of a value, used by the streaming protocol
    and the page-capacity accounting."""
    if value is None:
        return 1
    if dtype in (DataType.INT, DataType.FLOAT):
        return 8
    if dtype is DataType.BOOL:
        return 1
    return len(value.encode("utf-8")) + 4


def is_numeric(dtype: DataType) -> bool:
    return dtype in (DataType.INT, DataType.FLOAT)


#: Maximum distinct strings a page-level dictionary will hold before the
#: column falls back to plain object storage.  Pages are small (8 KiB), so
#: a column that overflows this cap is effectively unique-per-row and
#: dictionary encoding would only add indirection.
PAGE_DICT_CAP = 128

# Beyond 2**53 consecutive integers stop being exactly representable in a
# float64, so the numeric view declines rather than silently lose bits.
MAX_EXACT_FLOAT = 2.0**53


def loses_precision(values: np.ndarray) -> bool:
    """Whether a float64 view reaches 2^53, where it may no longer hold
    the integers it was derived from exactly."""
    if not values.size:
        return False
    peak = np.abs(values).max()  # NaN propagates and compares False
    # >= because a lossy integer (2^53 + 1) can round DOWN onto 2^53;
    # nothing inexact can round below it
    return bool(peak >= MAX_EXACT_FLOAT)


# float64() cache markers: the data array itself is the view / no exact
# view exists
_VALUES, _DECLINED = "values", "declined"


class TypedColumn:
    """A column stored typed at rest.

    ``kind`` selects the physical layout:

    - ``"i8"``   — int64 data array (+ optional validity bitmap)
    - ``"f8"``   — float64 data array (+ optional validity bitmap)
    - ``"bool"`` — bool data array (+ optional validity bitmap)
    - ``"dict"`` — int32 code array over a first-seen string dictionary;
                   NULL rows carry code ``-1``
    - ``"obj"``  — object array of raw Python values (the escape hatch)

    ``valid`` is ``None`` when every row is non-NULL, otherwise a bool
    array (the validity bitmap) with ``False`` at NULL rows.  NULL slots
    of a numeric data array hold 0 / 0.0 / False — consumers must mask.

    Invariants the differential suite (tests/test_storage_typed.py)
    enforces:

    - ``objects()`` round-trips the exact Python values that were stored,
      including ``None`` and (for dict columns) the *identical* ``str``
      objects first seen at build time.
    - Clean INT/FLOAT/BOOL values never land in ``"obj"``.  The only
      object fallbacks are: INT values outside int64 range, and FLOAT
      columns containing NaN (GROUP BY groups NaN keys by object
      identity, which ``tolist()`` round-trips would break).
    - ``float64()`` either returns a (values, null-mask) pair that is
      bit-identical to the ``astype`` of the object view (NULLs as 0.0),
      or ``None`` when the column is non-numeric or reaches 2**53 — never
      a lossy view.
    """

    __slots__ = (
        "kind",
        "data",
        "valid",
        "dictionary",
        "_codebook",
        "_objects",
        "_f64",
        "_null",
    )

    def __init__(
        self,
        kind: str,
        data: np.ndarray,
        valid: "np.ndarray | None" = None,
        dictionary: "list[str] | None" = None,
    ) -> None:
        self.kind = kind
        self.data = data
        self.valid = valid
        self.dictionary = dictionary
        self._codebook: "dict[str, int] | None" = None
        self._objects: "np.ndarray | None" = None
        # float64 view cache: None = not built, _VALUES, _DECLINED or the
        # materialized values array
        self._f64: Any = None
        self._null: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_values(cls, values: Sequence[Any], dtype: DataType) -> "TypedColumn":
        """Build the typed representation of ``values`` for ``dtype``.

        Falls back to ``"obj"`` only where the typed layout cannot
        round-trip exactly (see class docstring).
        """
        n = len(values)
        has_null = any(v is None for v in values)
        valid: "np.ndarray | None" = None
        if has_null:
            valid = np.fromiter((v is not None for v in values), dtype=bool, count=n)

        if dtype is DataType.INT:
            filled = [0 if v is None else v for v in values]
            try:
                data = np.array(filled, dtype=np.int64)
            except OverflowError:
                return cls.from_objects(values)
            return cls("i8", data, valid)
        if dtype is DataType.FLOAT:
            filled = [0.0 if v is None else v for v in values]
            data = np.array(filled, dtype=np.float64)
            if np.isnan(data).any():
                # NaN keys group by object identity; a float64
                # round-trip would mint fresh NaN objects.
                return cls.from_objects(values)
            return cls("f8", data, valid)
        if dtype is DataType.BOOL:
            filled = [False if v is None else v for v in values]
            return cls("bool", np.array(filled, dtype=bool), valid)
        if dtype is DataType.TEXT:
            codebook: dict[str, int] = {}
            dictionary: list[str] = []
            codes = np.empty(n, dtype=np.int32)
            for i, v in enumerate(values):
                if v is None:
                    codes[i] = -1
                    continue
                code = codebook.get(v)
                if code is None:
                    if len(dictionary) >= PAGE_DICT_CAP:
                        return cls.from_objects(values)
                    code = len(dictionary)
                    codebook[v] = code
                    dictionary.append(v)
                codes[i] = code
            col = cls("dict", codes, valid, dictionary)
            col._codebook = codebook
            return col
        return cls.from_objects(values)  # pragma: no cover

    @classmethod
    def from_objects(cls, values: Sequence[Any]) -> "TypedColumn":
        """An ``"obj"`` column whose elements are exactly ``values``.

        ``np.array(values, dtype=object)`` is avoided: it inspects nested
        sequences and can build a 2-D array.  Allocate-then-assign never
        does."""
        data = np.empty(len(values), dtype=object)
        data[:] = values
        return cls("obj", data)

    @classmethod
    def concat(cls, parts: "Sequence[TypedColumn]") -> "TypedColumn":
        """Concatenate page columns into one scan-batch column.

        Same-kind parts concatenate their typed arrays directly (dict
        parts union their dictionaries, remapping codes first-seen);
        mixed kinds fall back to one object array.
        """
        if len(parts) == 1:
            return parts[0]
        kinds = {p.kind for p in parts}
        if len(kinds) != 1:
            return cls("obj", np.concatenate([p.objects() for p in parts]))
        kind = next(iter(kinds))
        if any(p.valid is not None for p in parts):
            valid = np.concatenate(
                [
                    p.valid if p.valid is not None else np.ones(len(p), dtype=bool)
                    for p in parts
                ]
            )
        else:
            valid = None
        if kind == "dict":
            codebook: dict[str, int] = {}
            dictionary: list[str] = []
            chunks = []
            for p in parts:
                assert p.dictionary is not None
                # +1 slot so code -1 (NULL) maps to -1 via negative index
                remap = np.empty(len(p.dictionary) + 1, dtype=np.int32)
                remap[-1] = -1
                for local, s in enumerate(p.dictionary):
                    code = codebook.get(s)
                    if code is None:
                        code = len(dictionary)
                        codebook[s] = code
                        dictionary.append(s)
                    remap[local] = code
                chunks.append(remap[p.data])
            col = cls("dict", np.concatenate(chunks), valid, dictionary)
            col._codebook = codebook
            return col
        col = cls(kind, np.concatenate([p.data for p in parts]), valid)
        return col

    # ------------------------------------------------------------------
    # container protocol

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self):
        return iter(self.objects())

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, (int, np.integer)):
            if self.valid is not None and not self.valid[key]:
                return None
            if self.kind == "dict":
                code = int(self.data[key])
                return None if code < 0 else self.dictionary[code]
            if self.kind == "obj":
                return self.data[key]
            return self.data[key].item()
        # slice / bool mask / fancy index -> a new TypedColumn carrying
        # whatever derived caches are already built
        out = TypedColumn(
            self.kind,
            self.data[key],
            None if self.valid is None else self.valid[key],
            self.dictionary,
        )
        out._codebook = self._codebook
        if self._objects is not None:
            out._objects = self._objects[key]
        if self._null is not None:
            out._null = self._null[key]
        if self._f64 is not None:  # a marker carries as is
            out._f64 = (self._f64 if isinstance(self._f64, str)
                        else self._f64[key])
        return out

    # ------------------------------------------------------------------
    # views

    def objects(self) -> np.ndarray:
        """The object-array view: exact Python values, ``None`` at NULLs."""
        if self.kind == "obj":
            return self.data
        if self._objects is None:
            n = len(self.data)
            out = np.empty(n, dtype=object)
            if self.kind == "dict":
                lut = np.empty(len(self.dictionary) + 1, dtype=object)
                lut[-1] = None
                for i, s in enumerate(self.dictionary):
                    lut[i] = s
                out[:] = lut[self.data]
            else:
                out[:] = self.data.tolist()
                if self.valid is not None:
                    out[~self.valid] = None
            self._objects = out
        return self._objects

    def null_mask(self) -> np.ndarray:
        """Bool array, True at NULL rows."""
        if self._null is None:
            if self.valid is not None:
                self._null = ~self.valid
            elif self.kind == "obj":
                self._null = np.equal(self.data, None)
            else:
                self._null = np.zeros(len(self.data), dtype=bool)
        return self._null

    def float64(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """An exact float64 view as ``(values, null-mask)``, or ``None``.

        NULL slots of ``values`` hold 0.0 and must be masked by callers.
        Declines (returns ``None``) for dictionary columns, for magnitudes
        that reach exact-float range and for ``"obj"`` values past
        float64's range.  An ``"obj"`` column converts its raw values, so
        callers must not ask it of a TEXT column.
        """
        if self._f64 is None:
            if self.kind == "f8":
                self._f64 = _VALUES
            else:
                values = (self.data.astype(np.float64)
                          if self.kind in ("i8", "bool") else
                          self._object_float64() if self.kind == "obj"
                          else None)
                self._f64 = (_DECLINED if values is None
                             or loses_precision(values) else values)
        if self._f64 is _DECLINED:
            return None
        values = self.data if self._f64 is _VALUES else self._f64
        return values, self.null_mask()

    def _object_float64(self) -> "np.ndarray | None":
        """``float64()``'s values for an ``"obj"`` column (NULLs as 0.0),
        or None past float64's range."""
        data = self.data
        try:
            if self._null is None:
                # one C call: astype maps None to NaN, so a NaN-free result
                # proves the column has no NULLs without a per-value scan
                values = data.astype(np.float64)
                if not np.isnan(values).any():
                    self._null = np.zeros(len(data), dtype=bool)
                    return values
            null = self.null_mask()
            if null.any():
                data = data.copy()
                data[null] = 0.0
            return data.astype(np.float64)
        except OverflowError:               # an int past float64's range
            return None

    def key_arrays(self, ordered: bool = False) -> "list[np.ndarray] | None":
        """Arrays, most significant first, that stand in for the values
        in the executor's array kernels: two rows hold equal values
        exactly when they agree on every array (NULL equals only NULL).
        With ``ordered`` their lexicographic order is also the ascending
        sort order — values, then NULLs; strings ranked through the
        sorted dictionary.  ``None`` for ``"obj"`` columns, whose values
        only Python can compare."""
        if self.kind == "obj":
            return None
        if self.kind == "dict":
            if not ordered:
                return [self.data]
            # the extra last slot sends NULL (code -1) behind every string
            size = len(self.dictionary)
            ranks = np.full(size + 1, size, dtype=np.int32)
            ranks[sorted(range(size),
                         key=self.dictionary.__getitem__)] = np.arange(size)
            return [ranks[self.data]]
        if self.valid is None:
            return [self.data]
        # NULL slots may hold anything: level them so they tie
        return [~self.valid, np.where(self.valid, self.data, 0)]

    def code_of(self, value: str) -> "int | None":
        """Dictionary code for ``value``, or ``None`` if absent."""
        if self._codebook is None:
            assert self.dictionary is not None
            self._codebook = {s: i for i, s in enumerate(self.dictionary)}
        return self._codebook.get(value)

    def tolist(self) -> list:
        """Python values (``None`` at NULLs) as a list.

        Null-free numeric columns take the C-speed ``tolist`` path; dict
        and nullable columns go through the object view.
        """
        if self.kind in ("i8", "f8", "bool") and self.valid is None:
            return self.data.tolist()
        return self.objects().tolist()

    def identical(self, other: "TypedColumn") -> bool:
        """Bit-level equality of the at-rest representation: same kind,
        same data array, same validity bitmap, same dictionary (entries
        AND order — dictionaries are first-seen, so order is part of the
        layout).  Object-kind columns compare values NaN-aware, since a
        NaN payload is byte-identical without comparing equal."""
        if (self.kind != other.kind or len(self) != len(other)
                or self.dictionary != other.dictionary):
            return False
        if (self.valid is None) != (other.valid is None):
            return False
        if self.valid is not None and not np.array_equal(self.valid,
                                                         other.valid):
            return False
        if self.kind == "obj":
            return all(_values_identical(a, b)
                       for a, b in zip(self.data, other.data))
        return np.array_equal(self.data, other.data)

    def nbytes(self) -> int:
        """Approximate typed-layout footprint (data + bitmap + dictionary)."""
        total = int(self.data.nbytes)
        if self.valid is not None:
            total += int(self.valid.nbytes)
        if self.dictionary is not None:
            total += sum(len(s.encode("utf-8")) + 4 for s in self.dictionary)
        return total


def _values_identical(a: Any, b: Any) -> bool:
    """Value equality with NaN treated as identical to itself (object
    columns exist precisely because NaN defeats ``==``)."""
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float) and a != a and b != b:
        return True
    return a == b
