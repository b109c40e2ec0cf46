"""The system catalog: tables, indexes, statistics, and registered models.

Mirrors PostgreSQL's pg_class/pg_attribute/pg_statistic split at a much
smaller scale.  The AI model metadata tables (Fig. 3's Models/Layers) live in
:mod:`repro.ai.model_manager`; the catalog only tracks which model names are
bound to which prediction targets so PREDICT can find a reusable model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.errors import CatalogError
from repro.common.faults import FaultPlan
from repro.common.simtime import SimClock
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapTable
from repro.storage.index import BPlusTreeIndex, HashIndex
from repro.storage.replica import BACKUP_SUFFIX, ReplicatedTable
from repro.storage.schema import TableSchema
from repro.storage.sharded import SHARD_SUFFIX, ShardedTable
from repro.storage.stats import TableStats, compute_table_stats


@dataclass
class IndexEntry:
    name: str
    table: str
    column: str
    index: BPlusTreeIndex | HashIndex
    kind: str  # "btree" | "hash"


class ModelBinding(NamedTuple):
    """What a PREDICT model was trained on: the one record the fine-tune
    operator and the serving refresh read."""

    table: str
    target: str
    feature_columns: tuple[str, ...]


class Catalog:
    """Registry of all persistent objects in one database instance."""

    def __init__(self, buffer_pool: BufferPool | None = None,
                 clock: SimClock | None = None, replication: bool = False,
                 faults: FaultPlan | None = None,
                 shards: int | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.buffer_pool = (buffer_pool if buffer_pool is not None
                            else BufferPool(clock=self.clock))
        # replication=True backs every created table with a
        # primary/backup ReplicatedTable (repro.storage.replica); the
        # fault plan drives its deterministic replica_down outages
        self.replication = replication
        self.faults = faults
        # default shard count for created tables (None/1 = unsharded);
        # per-table `shards=` on create_table overrides it
        self.default_shards = shards
        self._tables: dict[str, HeapTable | ReplicatedTable] = {}
        self._indexes: dict[str, IndexEntry] = {}
        self._stats: dict[str, TableStats] = {}
        self._stats_version = 0
        # model name -> what it was trained on, oldest binding first
        self._model_bindings: dict[str, ModelBinding] = {}

    # -- tables --------------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     replicated: bool | None = None,
                     shards: int | None = None,
                     partition: str | None = None,
                     partition_kind: str = "hash",
                     boundaries=None
                     ) -> "HeapTable | ReplicatedTable | ShardedTable":
        name = schema.table_name
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        use_replication = (replicated if replicated is not None
                           else self.replication)
        shard_count = shards if shards is not None else self.default_shards
        if shard_count is not None and shard_count < 1:
            raise CatalogError(f"table {name!r}: shards must be >= 1, "
                               f"got {shard_count}")
        if (shard_count is not None and shard_count > 1) or partition:
            table: "HeapTable | ReplicatedTable | ShardedTable" = (
                ShardedTable(schema, shard_count or 1,
                             buffer_pool=self.buffer_pool,
                             clock=self.clock, partition=partition,
                             partition_kind=partition_kind,
                             boundaries=boundaries,
                             replicated=use_replication,
                             faults=self.faults))
        elif use_replication:
            table = ReplicatedTable(
                schema, buffer_pool=self.buffer_pool, clock=self.clock,
                faults=self.faults)
        else:
            table = HeapTable(schema, buffer_pool=self.buffer_pool,
                              clock=self.clock)
        self._tables[name] = table
        return table

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        name = name.lower()
        if name not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        table = self._tables.pop(name)
        self._stats.pop(name, None)
        self.buffer_pool.evict_table(name)
        self.buffer_pool.evict_table(name + BACKUP_SUFFIX)
        for shard in range(getattr(table, "shard_count", 0)):
            identity = f"{name}{SHARD_SUFFIX}{shard}"
            self.buffer_pool.evict_table(identity)
            self.buffer_pool.evict_table(identity + BACKUP_SUFFIX)
        for index_name in [n for n, e in self._indexes.items()
                           if e.table == name]:
            del self._indexes[index_name]

    def table(self, name: str) -> HeapTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    # -- indexes ---------------------------------------------------------------

    def create_index(self, name: str, table: str, column: str,
                     kind: str = "btree") -> IndexEntry:
        name, table = name.lower(), table.lower()
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        heap = self.table(table)
        col_idx = heap.schema.index_of(column)
        if kind == "btree":
            index: BPlusTreeIndex | HashIndex = BPlusTreeIndex(name, table, column)
        elif kind == "hash":
            index = HashIndex(name, table, column)
        else:
            raise CatalogError(f"unknown index kind {kind!r}")
        for rid, row in heap.scan():
            index.insert(row[col_idx], rid)
        entry = IndexEntry(name=name, table=table, column=column.lower(),
                           index=index, kind=kind)
        self._indexes[name] = entry
        return entry

    def drop_index(self, name: str) -> None:
        name = name.lower()
        if name not in self._indexes:
            raise CatalogError(f"index {name!r} does not exist")
        del self._indexes[name]

    def indexes_on(self, table: str, column: str | None = None) -> list[IndexEntry]:
        table = table.lower()
        out = [e for e in self._indexes.values() if e.table == table]
        if column is not None:
            out = [e for e in out if e.column == column.lower()]
        return out

    # -- statistics ---------------------------------------------------------

    def analyze(self, table_name: str | None = None) -> None:
        """Recompute statistics for one table or every table."""
        names = [table_name.lower()] if table_name else list(self._tables)
        self._stats_version += 1
        for name in names:
            heap = self.table(name)
            rows = (row for _, row in heap.scan())
            self._stats[name] = compute_table_stats(
                heap.schema, rows, page_count=heap.page_count,
                version=self._stats_version)

    def stats(self, table_name: str) -> TableStats | None:
        return self._stats.get(table_name.lower())

    # -- model bindings -------------------------------------------------------

    def bind_model(self, model_name: str, table: str, target_column: str,
                   feature_columns: list[str]) -> None:
        """Record what ``model_name`` was (re)trained on; a re-bind makes
        it the most recent model of its ``(table, target)``."""
        self._model_bindings.pop(model_name, None)
        self._model_bindings[model_name] = ModelBinding(
            table.lower(), target_column.lower(),
            tuple(c.lower() for c in feature_columns))

    def model_binding(self, model_name: str | None) -> ModelBinding | None:
        return self._model_bindings.get(model_name)

    def bound_model(self, table: str, target_column: str) -> str | None:
        """The model most recently bound to ``(table, target_column)``."""
        pair = (table.lower(), target_column.lower())
        for name in reversed(self._model_bindings):
            if self._model_bindings[name][:2] == pair:
                return name
        return None
