"""Central registry of every legal virtual-time charge category.

Every :meth:`~repro.common.simtime.SimClock.advance` /
``advance_batch`` / ``advance_charges`` call site names the *category*
its cost is charged under, and the parity suite, the benchmarks, and the
fault/replication audits all assert per-category breakdowns.  Until this
module existed the categories were bare string literals scattered across
``exec/``, ``storage/``, ``ai/``, and ``db.py`` — a typo'd literal
silently opened a new category and quietly drained the one the tests
watch.

This module is the single source of truth: one ``str`` constant per
category (plain strings, so charging and breakdown lookups are
bit-identical to the literals they replace), plus :data:`REGISTRY`
mapping every legal name to its one-line meaning.  The static analyzer
(``repro/analysis/charges.py``) extracts the category argument of every
charge call site in ``src/repro/`` and rejects any literal that does not
resolve here, so the registry cannot drift from the call sites — add the
constant *first*, then charge to it.

Naming convention: lowercase, hyphen-separated, the subsystem prefix
only where the bare word would be ambiguous (``ai-train`` vs the
runtime-internal ``train``).
"""

from __future__ import annotations

# -- execution engine ---------------------------------------------------------
SCAN = "scan"                  # SeqScan per-tuple CPU
FILTER = "filter"              # predicate evaluation per input row
PROJECT = "project"            # projection per surviving row
JOIN = "join"                  # hash/NL join build, probe, emit
AGG = "agg"                    # aggregate hash-build per row
SORT = "sort"                  # sort n*log2(n) comparisons
DISTINCT = "distinct"          # DISTINCT seen-set hashing
INDEX = "index"                # B+-tree descent + per-tuple fetch
SPILL = "spill"                # hybrid-hash-join spill surcharge
MISC = "misc"                  # SimClock.advance default bucket
WAIT = "wait"                  # SimClock.advance_to idle gap

# -- storage ------------------------------------------------------------------
BUFFER_HIT = "buffer-hit"      # buffer-pool page hit
BUFFER_MISS = "buffer-miss"    # buffer-pool page read
HEAP_INSERT = "heap-insert"    # heap-table insert per tuple
HEAP_UPDATE = "heap-update"    # heap-table update per tuple
HEAP_DELETE = "heap-delete"    # heap-table delete per tuple
REPLICATE = "replicate"        # primary->backup write ship (serialize+net)
RESYNC = "resync"              # backup catch-up replay per missed write
FAILOVER = "failover"          # replica failover round trip

# -- distributed execution ----------------------------------------------------
SHUFFLE = "shuffle"            # hash-repartition ship (serialize + net per byte)
BROADCAST = "broadcast"        # build-side replication to every peer node
GATHER = "gather"              # shard-local results funneled to the coordinator
EXCHANGE_MSG = "exchange-msg"  # per-message exchange round trip

# -- resilience ---------------------------------------------------------------
FAULT_SLOW = "fault-slow"      # injected slow-worker latency spike
RETRY_BACKOFF = "retry-backoff"  # Db-level statement retry backoff

# -- AI runtime and serving ---------------------------------------------------
TRAIN = "train"                # runtime forward/backward per batch
PREP = "prep"                  # producer-side vectorized prep per value
STREAM = "stream"              # streaming frame send (net + serialize)
AI_TRAIN = "ai-train"          # engine-level training-task makespan
AI_INFER = "ai-infer"          # engine-level inference-task cost
AI_FINETUNE = "ai-finetune"    # engine-level fine-tune-task makespan
AI_MSELECT = "ai-mselect"      # engine-level model-selection sweep
MODEL_LOAD = "model-load"      # model-cache load per layer
PREDICT_MATERIALIZE = "predict-materialize"  # PREDICT input scan per row

#: Every legal category name -> one-line meaning.  The analyzer treats
#: the keys as the closed set of legal charge-category literals.
REGISTRY: dict[str, str] = {
    SCAN: "SeqScan per-tuple CPU",
    FILTER: "predicate evaluation per input row",
    PROJECT: "projection per surviving row",
    JOIN: "join build, probe, and emit",
    AGG: "aggregate hash-build per row",
    SORT: "sort comparison cost",
    DISTINCT: "DISTINCT seen-set hashing",
    INDEX: "index descent and per-tuple fetch",
    SPILL: "hash-join spill surcharge",
    MISC: "SimClock.advance default bucket",
    WAIT: "SimClock.advance_to idle gap",
    BUFFER_HIT: "buffer-pool page hit",
    BUFFER_MISS: "buffer-pool page read",
    HEAP_INSERT: "heap insert per tuple",
    HEAP_UPDATE: "heap update per tuple",
    HEAP_DELETE: "heap delete per tuple",
    REPLICATE: "primary-to-backup write ship",
    RESYNC: "backup catch-up replay",
    FAILOVER: "replica failover round trip",
    SHUFFLE: "hash-repartition ship",
    BROADCAST: "build-side broadcast to peer nodes",
    GATHER: "shard results funneled to the coordinator",
    EXCHANGE_MSG: "per-message exchange round trip",
    FAULT_SLOW: "injected slow-worker latency",
    RETRY_BACKOFF: "statement retry backoff",
    TRAIN: "runtime training step per batch",
    PREP: "producer-side prep per value",
    STREAM: "streaming frame send",
    AI_TRAIN: "training-task makespan",
    AI_INFER: "inference-task cost",
    AI_FINETUNE: "fine-tune-task makespan",
    AI_MSELECT: "model-selection sweep",
    MODEL_LOAD: "model-cache load per layer",
    PREDICT_MATERIALIZE: "PREDICT input materialization",
}


def is_registered(category: str) -> bool:
    """True when ``category`` is a legal charge category."""
    return category in REGISTRY
