"""Storage substrate: types, schemas, pages, heaps, buffer pool, indexes,
statistics, and the system catalog."""

from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog, IndexEntry
from repro.storage.heap import HeapTable
from repro.storage.index import BPlusTreeIndex, HashIndex
from repro.storage.page import PAGE_CAPACITY_BYTES, HeapPage
from repro.storage.replica import BACKUP, PRIMARY, ReplicatedTable
from repro.storage.schema import Column, TableSchema
from repro.storage.stats import (
    ColumnStats,
    TableStats,
    compute_column_stats,
    compute_table_stats,
)
from repro.storage.types import (
    PAGE_DICT_CAP,
    DataType,
    TypedColumn,
    coerce_value,
    is_numeric,
    value_size_bytes,
)

__all__ = [
    "BACKUP",
    "BPlusTreeIndex",
    "BufferPool",
    "Catalog",
    "PRIMARY",
    "ReplicatedTable",
    "Column",
    "ColumnStats",
    "DataType",
    "HashIndex",
    "HeapPage",
    "HeapTable",
    "IndexEntry",
    "PAGE_CAPACITY_BYTES",
    "PAGE_DICT_CAP",
    "TableSchema",
    "TableStats",
    "TypedColumn",
    "coerce_value",
    "compute_column_stats",
    "compute_table_stats",
    "is_numeric",
    "value_size_bytes",
]
