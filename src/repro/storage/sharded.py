"""Hash/range-partitioned tables across N virtual nodes.

The distributed half of the ROADMAP's scale-out north star: a
:class:`ShardedTable` splits one logical table into ``shards`` inner
tables — plain :class:`~repro.storage.heap.HeapTable`\\ s, or
primary/backup :class:`~repro.storage.replica.ReplicatedTable`\\ s when
replication is on — and exposes the exact ``HeapTable`` interface the
rest of the engine already speaks, so the planner, the serial engines,
the morsel scheduler, and the loader all run over it unchanged.

Sharding model
--------------
* **Routing** — every row is owned by exactly one shard, decided by its
  *partition column* (the first column unless ``partition=`` names
  another). ``hash`` partitioning routes through
  :func:`~repro.common.rng.stable_hash` — the process-independent FNV
  hash the fault plan already uses — so the layout is bit-identical
  across runs and machines (Python's builtin ``hash`` is per-process
  salted and would make committed benchmark bytes nondeterministic).
  ``range`` partitioning routes by ``bisect`` over sorted
  ``boundaries`` (``len(boundaries) == shards - 1``; shard ``i`` owns
  values < ``boundaries[i]``, the last shard owns the tail).  NULL and
  NaN partition keys always route to shard 0 in either scheme.
* **Canonical order** — the table's scan order is *shard-major*: all of
  shard 0's rows in its page/slot order, then shard 1's, and so on.
  Every scan surface (``scan``, ``scan_column_batches``,
  ``scan_morsels``) honours that one order, so
  the serial engines, the morsel scheduler, and the distributed
  scheduler all see identical row streams and the cross-engine parity
  suite holds over sharded tables exactly as it does over heaps.
  Column batches never span a shard boundary (each shard's final batch
  may be short): a morsel is therefore always shard-local, which is
  what lets the distributed scheduler place it on the shard's node.
* **Buffer identity** — shard ``i``'s pages live under the buffer-pool
  identity ``<name>@shard<i>`` (plus ``@backup`` under replication), so
  per-node cache residency is modeled separately per shard, exactly as
  the replica layer separates primary and backup residency.
* **Uniqueness** — UNIQUE constraints are global, so they are enforced
  here with table-level unique maps (value -> :class:`ShardRid`); the
  inner shard schemas have the flags stripped so a shard never
  second-guesses the global decision.

Record ids are :class:`ShardRid` — ``(shard, rid)`` pairs wrapping the
inner table's :class:`~repro.storage.page.RecordId` — and stay stable
across unrelated mutations like heap RIDs do.  An ``update`` that moves
a row's partition key across shards is a delete + re-insert and yields
a fresh ``ShardRid`` (heap updates keep their RID; the executor's
scan-then-mutate paths never rely on update preserving ids).

Cost model: inner tables charge their usual heap/replication costs to
the shared clock; routing itself is free (pure hashing, like the fault
plan's decisions).  Page touches during scans can be redirected to
per-shard clocks via the ``clock=`` override threaded through
``scan_column_batches`` — the distributed scheduler's node-local I/O
accounting.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Iterator, NamedTuple, Sequence

from repro.common.errors import ConstraintViolation
from repro.common.faults import FaultPlan
from repro.common.rng import stable_hash
from repro.common.simtime import SimClock
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapTable
from repro.storage.page import RecordId
from repro.storage.replica import ReplicatedTable
from repro.storage.schema import Column, TableSchema

SHARD_SUFFIX = "@shard"
"""Buffer-pool identity infix: shard ``i`` of ``t`` is ``t@shard<i>``."""

PARTITION_KINDS = ("hash", "range")


class ShardRid(NamedTuple):
    """Stable address of a tuple in a sharded table: (shard, inner rid)."""

    shard: int
    rid: RecordId


class ShardedTable:
    """A :class:`HeapTable` drop-in partitioned across ``shards`` nodes.

    Args:
        schema: the logical table schema.
        shards: number of partitions (>= 1).
        buffer_pool: page accounting; shard ``i`` registers its pages
            under ``<name>@shard<i>``.
        clock: the shared virtual clock every shard charges.
        partition: partition column name; defaults to the first column.
        partition_kind: ``"hash"`` (stable-hash routing) or ``"range"``
            (sorted ``boundaries`` routing).
        boundaries: for ``range`` — ``shards - 1`` sorted split points.
        replicated: back every shard with a primary/backup
            :class:`ReplicatedTable` instead of a bare heap.
        faults: fault plan handed to replicated shards.
    """

    sharded = True

    def __init__(self, schema: TableSchema, shards: int,
                 buffer_pool: BufferPool | None = None,
                 clock: SimClock | None = None,
                 partition: str | None = None,
                 partition_kind: str = "hash",
                 boundaries: "Sequence[Any] | None" = None,
                 replicated: bool = False,
                 faults: FaultPlan | None = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if partition_kind not in PARTITION_KINDS:
            raise ValueError(f"unknown partition kind {partition_kind!r}; "
                             f"expected one of {PARTITION_KINDS}")
        self.schema = schema
        self.name = schema.table_name
        self.shard_count = shards
        self.partition_column = (partition.lower() if partition is not None
                                 else schema.columns[0].name)
        self._partition_idx = schema.index_of(self.partition_column)
        self.partition_kind = partition_kind
        if partition_kind == "range":
            if boundaries is None or len(boundaries) != shards - 1:
                raise ValueError(
                    f"range partitioning over {shards} shards needs exactly "
                    f"{shards - 1} boundaries, got "
                    f"{0 if boundaries is None else len(boundaries)}")
            self.boundaries = sorted(boundaries)
        else:
            if boundaries is not None:
                raise ValueError("boundaries are only valid with "
                                 "partition_kind='range'")
            self.boundaries = None
        self.replicated = replicated
        self._clock = clock
        # shard schemas drop the unique flags: uniqueness is a global
        # property enforced by this table's own maps below
        inner_columns = [Column(c.name, c.dtype, unique=False,
                                nullable=c.nullable)
                         for c in schema.columns]
        self.shard_tables: "list[HeapTable | ReplicatedTable]" = []
        for i in range(shards):
            inner_schema = TableSchema(f"{self.name}{SHARD_SUFFIX}{i}",
                                       inner_columns)
            if replicated:
                inner: HeapTable | ReplicatedTable = ReplicatedTable(
                    inner_schema, buffer_pool=buffer_pool, clock=clock,
                    faults=faults)
            else:
                inner = HeapTable(inner_schema, buffer_pool=buffer_pool,
                                  clock=clock)
            self.shard_tables.append(inner)
        self._unique_maps: dict[int, dict[Any, ShardRid]] = {
            i: {} for i, col in enumerate(schema.columns) if col.unique
        }

    # -- routing ------------------------------------------------------------

    def shard_of(self, row: Sequence[Any]) -> int:
        """The owning shard of one (coerced) row."""
        return self.shard_of_key(row[self._partition_idx])

    def shard_of_key(self, value: Any) -> int:
        """The owning shard of one partition-key value (NULL/NaN -> 0)."""
        if value is None or (isinstance(value, float) and math.isnan(value)):
            return 0
        if self.partition_kind == "range":
            return min(bisect_right(self.boundaries, value),
                       self.shard_count - 1)
        return stable_hash(value, self.shard_count)

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return sum(len(t) for t in self.shard_tables)

    @property
    def page_count(self) -> int:
        return sum(t.page_count for t in self.shard_tables)

    def shard_page_start(self, shard: int) -> int:
        """Global page index of ``shard``'s first page (shard-major)."""
        return sum(t.page_count for t in self.shard_tables[:shard])

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> ShardRid:
        row = self.schema.coerce_row(values)
        self._check_unique(row, exclude_rid=None)
        shard = self.shard_of(row)
        rid = ShardRid(shard, self.shard_tables[shard].insert(row))
        self._index_unique(row, rid)
        return rid

    def update(self, rid: ShardRid, values: Sequence[Any]) -> ShardRid:
        row = self.schema.coerce_row(values)
        old = self.shard_tables[rid.shard].read(rid.rid)
        if old is None:
            raise KeyError(f"update of missing rid {rid}")
        self._check_unique(row, exclude_rid=rid)
        self._unindex_unique(old)
        shard = self.shard_of(row)
        if shard == rid.shard:
            self.shard_tables[shard].update(rid.rid, row)
            new_rid = rid
        else:
            # the partition key moved: delete + re-insert on the owner
            self.shard_tables[rid.shard].delete(rid.rid)
            new_rid = ShardRid(shard, self.shard_tables[shard].insert(row))
        self._index_unique(row, new_rid)
        return new_rid

    def delete(self, rid: ShardRid) -> None:
        old = self.shard_tables[rid.shard].read(rid.rid)
        if old is None:
            raise KeyError(f"delete of missing rid {rid}")
        self._unindex_unique(old)
        self.shard_tables[rid.shard].delete(rid.rid)

    # -- access -------------------------------------------------------------

    def read(self, rid: ShardRid) -> tuple | None:
        if not (0 <= rid.shard < self.shard_count):
            return None
        return self.shard_tables[rid.shard].read(rid.rid)

    def scan(self) -> Iterator[tuple[ShardRid, tuple]]:
        """Full scan in canonical shard-major order."""
        for shard, table in enumerate(self.shard_tables):
            for rid, row in table.scan():
                yield ShardRid(shard, rid), row

    def scan_column_batches(self, batch_size: int = 1024,
                            start_page: int = 0,
                            clock: SimClock | None = None
                            ) -> Iterator[tuple[list, int]]:
        """Column batches in shard-major order.

        Same contract as :meth:`HeapTable.scan_column_batches` except
        that batches never span a shard boundary — each shard's final
        batch may be short.  ``start_page`` indexes the global
        shard-major page sequence.
        """
        offset = 0
        for table in self.shard_tables:
            pages = table.page_count
            local_start = start_page - offset
            offset += pages
            if local_start >= pages:
                continue
            yield from table.scan_column_batches(batch_size,
                                                 max(0, local_start),
                                                 clock=clock)

    def scan_morsels(self, morsel_rows: int = 4096,
                     start_page: int = 0,
                     clock: SimClock | None = None
                     ) -> list[tuple[list, int]]:
        return list(self.scan_column_batches(morsel_rows, start_page,
                                             clock=clock))

    def shard_morsels(self, morsel_rows: int = 4096,
                      clock_for: "list[SimClock] | None" = None
                      ) -> list[list[tuple[list, int]]]:
        """Per-shard morsel lists in canonical order — the distributed
        scheduler's scan splitter.  Concatenating the sublists reproduces
        :meth:`scan_morsels`.  ``clock_for`` optionally supplies one
        charge clock per shard for node-local page-I/O attribution."""
        out = []
        for shard, table in enumerate(self.shard_tables):
            clock = clock_for[shard] if clock_for is not None else None
            out.append(table.scan_morsels(morsel_rows, 0, clock=clock))
        return out

    def tail_start_page(self, min_rows: int) -> int:
        if min_rows < 0:
            raise ValueError(f"min_rows must be >= 0, got {min_rows}")
        remaining = min_rows
        for shard in range(self.shard_count - 1, -1, -1):
            table = self.shard_tables[shard]
            rows = len(table)
            if remaining > rows and shard > 0:
                remaining -= rows
                continue
            return (self.shard_page_start(shard)
                    + table.tail_start_page(remaining))
        return 0

    # -- replication pass-through -------------------------------------------

    def copies_identical(self) -> bool:
        """Replicated shards only: every shard's copies are identical."""
        self._require_replication("copies_identical")
        return all(t.copies_identical() for t in self.shard_tables)

    def mark_down(self, node: str = "primary", ops: int = 1) -> None:
        self._require_replication("mark_down")
        for table in self.shard_tables:
            table.mark_down(node, ops)

    def recover(self, node: str = "primary") -> None:
        self._require_replication("recover")
        for table in self.shard_tables:
            table.recover(node)

    def status(self) -> dict:
        """Introspection: sharding layout plus per-shard replica status."""
        out: dict[str, Any] = {
            "shards": self.shard_count,
            "partition": self.partition_column,
            "partition_kind": self.partition_kind,
            "rows_per_shard": [len(t) for t in self.shard_tables],
            "pages_per_shard": [t.page_count for t in self.shard_tables],
        }
        if self.boundaries is not None:
            out["boundaries"] = list(self.boundaries)
        if self.replicated:
            out["replicas"] = [t.status() for t in self.shard_tables]
        return out

    # -- internals ----------------------------------------------------------

    def _require_replication(self, what: str) -> None:
        if not self.replicated:
            raise ValueError(
                f"{what}() needs replicated shards; table {self.name!r} "
                f"is sharded without replication")

    def _check_unique(self, row: tuple,
                      exclude_rid: ShardRid | None) -> None:
        for col_idx, uniq in self._unique_maps.items():
            value = row[col_idx]
            if value is None:
                continue
            existing = uniq.get(value)
            if existing is not None and existing != exclude_rid:
                col = self.schema.columns[col_idx].name
                raise ConstraintViolation(
                    f"duplicate value {value!r} for UNIQUE column "
                    f"{col!r} of table {self.name!r}")

    def _index_unique(self, row: tuple, rid: ShardRid) -> None:
        for col_idx, uniq in self._unique_maps.items():
            if row[col_idx] is not None:
                uniq[row[col_idx]] = rid

    def _unindex_unique(self, row: tuple) -> None:
        for col_idx, uniq in self._unique_maps.items():
            if row[col_idx] is not None:
                uniq.pop(row[col_idx], None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedTable({self.name!r}, shards={self.shard_count}, "
                f"partition={self.partition_column!r}/"
                f"{self.partition_kind})")
