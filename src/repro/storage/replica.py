"""Primary/backup table replication with deterministic failover.

The ROADMAP's distributed-execution north star calls for "primary/backup
replication with failover and deterministic logical-clock ordering of
replicated writes".  This module is that substrate, modeled after the
classic primary/backup exercises (CS262 Design Exercise 4): a
:class:`ReplicatedTable` keeps **two full copies** of one table —
``primary`` and ``backup`` — and exposes the exact :class:`HeapTable`
interface the rest of the engine already speaks (scan,
scan_column_batches, insert/update/delete, tail_start_page...), so the
planner, executors, loader, and serving layer run over it unchanged.

Replication protocol
--------------------
* **Logical-clock ordering** — every write is stamped with a monotone LSN
  (a Lamport-style logical clock for this single-writer setting) and
  appended to a bounded-context write log.  Both copies apply writes in
  LSN order, and because a heap table's physical state is a deterministic
  function of its op sequence (inserts append, deletes mark slots), the
  two copies stay *bit-identical* — same pages, same slots, same
  record id for every row.  That identity is what makes failover
  invisible to query results: a scan of the backup returns exactly the
  rows, order included, a scan of the primary would have.
* **Failover** — a :class:`~repro.common.faults.FaultPlan` (or a manual
  :meth:`mark_down`) can take the primary down for a number of table
  operations.  Reads, scans, and writes transparently fail over to the
  backup; the moment of failover charges a network round trip to the
  shared clock (category ``failover``), which is the failover latency
  ``BENCH_faults.json`` measures.  Writes accepted while the primary is
  down are queued on its missed list *in LSN order*.
* **Catch-up resync** — when the outage elapses (or :meth:`recover` is
  called), the primary replays its missed writes in LSN order before
  taking traffic again (charging category ``resync`` plus the usual heap
  charges), restoring copy identity.  Only then does it become the active
  node again.
* **Both copies down** — accesses raise
  :class:`~repro.common.errors.ReplicaUnavailable` (retryable: the
  scheduler's morsel retries and the Db-level ``retry_policy`` both
  re-attempt, by which time the outage may have elapsed).

Determinism contract: outage decisions are made on the table-operation
counter (``opno``), which advances only on table entry points (never
inside a morsel task — tasks only touch pre-split read-only column
snapshots, so a retried task does not move it), so a seeded fault plan
takes the same node down at the same operation on every run.

Cost model: replicating a write charges the backup's usual heap charges
plus a per-byte ship cost (serialize + network, category ``replicate``);
the backup's pages live under their own buffer-pool identity, so a
post-failover scan pays realistic cold-cache misses rather than
inheriting the primary's residency.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.common import categories as cat
from repro.common.errors import ReplicaUnavailable
from repro.common.faults import FaultPlan
from repro.common.simtime import CostModel, SimClock
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapTable
from repro.storage.schema import TableSchema

PRIMARY = "primary"
BACKUP = "backup"

BACKUP_SUFFIX = "@backup"
"""Buffer-pool identity suffix for the backup copy's pages."""

_DELETE_SHIP_BYTES = 16
"""Bytes a replicated delete ships: the record id and its framing."""


class ReplicatedTable:
    """A :class:`HeapTable` drop-in holding primary + backup copies.

    Args:
        schema: the table schema (shared by both copies).
        buffer_pool: page-access accounting; the backup registers its
            pages under ``<name>@backup``.
        clock: the shared virtual clock both copies charge.
        faults: a seeded fault plan; ``replica_down`` specs targeting
            this table (or untargeted ones) take the primary down.
    """

    replicated = True

    def __init__(self, schema: TableSchema,
                 buffer_pool: BufferPool | None = None,
                 clock: SimClock | None = None,
                 faults: FaultPlan | None = None):
        self.schema = schema
        self.name = schema.table_name
        self._clock = clock
        self._faults = faults
        self.primary = HeapTable(schema, buffer_pool=buffer_pool,
                                 clock=clock)
        self.backup = HeapTable(schema, buffer_pool=buffer_pool,
                                clock=clock)
        self.backup.name = self.name + BACKUP_SUFFIX
        self._lsn = 0
        self._opno = 0
        # node -> remaining ops of outage (decremented per operation)
        self._down: dict[str, int] = {}
        # node -> [(lsn, op, args)] writes missed while down
        self._missed: dict[str, list[tuple[int, str, tuple]]] = {
            PRIMARY: [], BACKUP: []}
        self.failovers = 0
        self.resyncs = 0
        self.resynced_writes = 0

    # -- HeapTable surface: properties -------------------------------------

    def __len__(self) -> int:
        return len(self._any_up())

    @property
    def page_count(self) -> int:
        return self._any_up().page_count

    @property
    def lsn(self) -> int:
        """The logical clock: LSN of the latest replicated write."""
        return self._lsn

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> int:
        """Replicated insert: stamped with the next LSN, applied to every
        up copy in LSN order, queued for down copies.  Returns the RID —
        identical on both copies by the determinism argument above."""
        active = self._begin_op()
        return self._insert(active, *self.schema.coerce_row(values))

    def insert_coerced(self, row: tuple, row_bytes: int) -> int:
        """:meth:`HeapTable.insert_coerced`, replicated as :meth:`insert`."""
        return self._insert(self._begin_op(), row, row_bytes)

    def _insert(self, active: HeapTable, row: tuple, row_bytes: int) -> int:
        rid = active.insert_coerced(row, row_bytes)
        self._replicate(active, "insert", (row, row_bytes), row_bytes)
        return rid

    def update(self, rid: int, values: Sequence[Any]) -> int:
        active = self._begin_op()
        row, row_bytes = self.schema.coerce_row(values)
        active.update(rid, row)
        self._replicate(active, "update", (rid, row), row_bytes)
        return rid

    def delete(self, rid: int) -> None:
        active = self._begin_op()
        active.delete(rid)
        self._replicate(active, "delete", (rid,), _DELETE_SHIP_BYTES)

    # -- access -------------------------------------------------------------

    def read(self, rid: int, clock: SimClock | None = None
             ) -> tuple | None:
        return self._begin_op().read(rid, clock)

    def scan(self, clock: SimClock | None = None
             ) -> Iterator[tuple[int, tuple]]:
        # resolve the serving node NOW, not when the generator is first
        # advanced
        return self._begin_op().scan(clock)

    def live_rows(self) -> list[tuple]:
        return self._begin_op().live_rows()

    def scan_column_batches(self, batch_size: int = 1024,
                            start_page: int = 0,
                            clock: SimClock | None = None):
        return self._begin_op().scan_column_batches(batch_size, start_page,
                                                    clock=clock)

    def tail_start_page(self, min_rows: int) -> int:
        return self._begin_op().tail_start_page(min_rows)

    # -- replica verification ------------------------------------------------

    def copies_identical(self) -> bool:
        """Bit-level audit that primary and backup hold the same typed
        state: page-for-page identical slot layout (record ids included)
        and :meth:`TypedColumn.identical` columns — data arrays, validity
        bitmaps, and dictionaries with matching entry order.  Inspects
        both copies directly (no failover, no charges), so it is valid to
        call even while a node is down: it then reports whether the down
        copy has diverged, and must hold again after :meth:`recover`.
        """
        a, b = self.primary, self.backup
        if a.page_count != b.page_count or len(a) != len(b):
            return False
        dtypes = self.schema.dtypes()
        for pa, pb in zip(a._pages, b._pages):
            if [rid for rid, _ in pa.scan()] != [rid for rid, _ in pb.scan()]:
                return False
            for ca, cb in zip(pa.typed_columns(dtypes),
                              pb.typed_columns(dtypes)):
                if not ca.identical(cb):
                    return False
        return True

    # -- failover control ----------------------------------------------------

    def mark_down(self, node: str = PRIMARY, ops: int = 1) -> None:
        """Manually take a node down for the next ``ops`` table
        operations; the test/experiment entry point mirroring what a
        ``replica_down`` fault does."""
        self._check_node(node)
        if ops < 1:
            raise ValueError(f"ops must be >= 1, got {ops}")
        if node not in self._down:
            self._note_failover(node)
        self._down[node] = max(self._down.get(node, 0), ops)

    def recover(self, node: str = PRIMARY) -> None:
        """Bring a node back: replay its missed writes in LSN order
        (catch-up resync) and return it to service."""
        self._check_node(node)
        if node not in self._down:
            return
        del self._down[node]
        self._resync(node)

    def active_node(self) -> str:
        """Which copy is currently serving (``primary`` or ``backup``)."""
        if PRIMARY not in self._down:
            return PRIMARY
        if BACKUP not in self._down:
            return BACKUP
        raise ReplicaUnavailable(
            f"table {self.name!r}: all replicas down", node=self.name)

    def status(self) -> dict:
        """Introspection for tests and benchmarks."""
        return {
            "lsn": self._lsn,
            "operations": self._opno,
            "active": (self.active_node()
                       if PRIMARY not in self._down
                       or BACKUP not in self._down else "none"),
            "down": sorted(self._down),
            "missed": {node: len(log)
                       for node, log in self._missed.items()},
            "failovers": self.failovers,
            "resyncs": self.resyncs,
            "resynced_writes": self.resynced_writes,
        }

    # -- internals -----------------------------------------------------------

    def _any_up(self) -> HeapTable:
        """The active copy for zero-cost introspection (``len``,
        ``page_count``) — does not advance the operation counter, so
        metadata peeks never perturb fault schedules."""
        node = self.active_node()
        return self.primary if node == PRIMARY else self.backup

    def _begin_op(self) -> HeapTable:
        """One table operation: advance the op counter, let outages elapse
        (recovering nodes resync), consult the fault plan, and return the
        copy that serves this operation."""
        self._opno += 1
        for node in list(self._down):
            if self._down[node] <= 0:
                del self._down[node]
                self._resync(node)
            else:
                self._down[node] -= 1
        faults = self._faults
        if (faults is not None and PRIMARY not in self._down
                and faults.arms("replica_down")):
            spec = faults.decide("replica_down",
                                 site=f"{self.name}:{self._opno}",
                                 index=self._opno, target=self.name)
            if spec is not None:
                self._note_failover(PRIMARY)
                self._down[PRIMARY] = spec.duration
        node = self.active_node()
        return self.primary if node == PRIMARY else self.backup

    def _replicate(self, applied_to: HeapTable, op: str,
                   args: tuple, nbytes: int) -> None:
        """Stamp the write with the next LSN and bring the *other* copy in
        line: apply it if the copy is up, queue it on the copy's missed
        list otherwise.  Shipping ``nbytes`` charges per-byte serialize +
        network cost (category ``replicate``)."""
        self._lsn += 1
        entry = (self._lsn, op, args)
        other_node = BACKUP if applied_to is self.primary else PRIMARY
        other = self.backup if applied_to is self.primary else self.primary
        self._charge((CostModel.SERIALIZE_PER_BYTE
                      + CostModel.NET_PER_BYTE) * nbytes, cat.REPLICATE)
        if other_node in self._down:
            self._missed[other_node].append(entry)
        else:
            self._apply(other, op, args)

    @staticmethod
    def _apply(copy: HeapTable, op: str, args: tuple) -> None:
        if op == "insert":
            copy.insert_coerced(*args)
        elif op == "update":
            copy.update(args[0], args[1])
        elif op == "delete":
            copy.delete(args[0])
        else:  # pragma: no cover - log entries are produced above
            raise ValueError(f"unknown replicated op {op!r}")

    def _resync(self, node: str) -> None:
        """Catch-up: replay the node's missed writes in LSN order."""
        missed = self._missed[node]
        if not missed:
            return
        copy = self.primary if node == PRIMARY else self.backup
        self.resyncs += 1
        for _lsn, op, args in missed:   # already LSN-ordered
            self._apply(copy, op, args)
            self._charge(CostModel.NET_PER_BYTE * 64, cat.RESYNC)
        self.resynced_writes += len(missed)
        missed.clear()

    def _note_failover(self, node: str) -> None:
        """Record (and charge) the moment traffic moves off ``node``."""
        self.failovers += 1
        self._charge(CostModel.NET_ROUND_TRIP, cat.FAILOVER)

    def _charge(self, seconds: float, category: str) -> None:
        if self._clock is not None:
            self._clock.advance(seconds, category)

    @staticmethod
    def _check_node(node: str) -> None:
        if node not in (PRIMARY, BACKUP):
            raise ValueError(f"unknown replica node {node!r}; expected "
                             f"{PRIMARY!r} or {BACKUP!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicatedTable({self.name!r}, lsn={self._lsn}, "
                f"active={self.active_node()!r})")
