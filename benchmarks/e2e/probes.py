"""Isolated per-layer probes: fixed inputs, public functions, no workload.

These are the per-layer metrics that are not read off a workload's spans:
``nn.*`` (one training step on a fixed 512-row batch), ``ai.hash_rows_per_s``
(``FeatureHasher.transform_columns`` on a fixed block with a text column),
and the ``storage.*`` micro costs (heap insert, B+-tree insert and search,
one ``scan_column_batches`` pass).  Every traced run takes them, whatever
the workload, so they are comparable across workloads.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

import repro
from repro.ai.armnet import ARMNet
from repro.nn import Adam, mse_loss
from repro.storage.index import BPlusTreeIndex

NN_BATCH = 512
NN_WARMUP_STEPS = 30   # a fresh process is several times slower for its
NN_STEPS = 10          # first ~25 steps (allocator and BLAS warm-up)
HASH_ROWS = 2_048
STORAGE_ROWS = 8_000
FIELDS = 4


def nn_step(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 101])
    model = ARMNet(field_count=FIELDS, task_type="regression")
    optimizer = Adam(list(model.parameters()), lr=1e-3)
    ids = rng.integers(0, model.hasher.buckets, (NN_BATCH, FIELDS))
    targets = rng.random(NN_BATCH)
    forward, backward, step = [], [], []
    for _ in range(NN_WARMUP_STEPS + NN_STEPS):
        optimizer.zero_grad()
        t0 = perf_counter()
        loss = mse_loss(model.forward(ids), targets)
        t1 = perf_counter()
        loss.backward()
        t2 = perf_counter()
        optimizer.step()
        t3 = perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
        step.append(t3 - t2)
    return {"nn.forward_ms": median(forward[NN_WARMUP_STEPS:]) * 1e3,
            "nn.backward_ms": median(backward[NN_WARMUP_STEPS:]) * 1e3,
            "nn.optim_step_ms": median(step[NN_WARMUP_STEPS:]) * 1e3}


def hash_block(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 102])
    columns = [
        np.array([f"s{v}" for v in rng.integers(0, 12, HASH_ROWS)],
                 dtype=object),
        rng.integers(0, 5, HASH_ROWS).astype(object),
        rng.random(HASH_ROWS).round(4).astype(object),
        rng.random(HASH_ROWS).round(4).astype(object),
    ]
    hasher = ARMNet(field_count=FIELDS, task_type="regression").hasher
    times = []
    for _ in range(3):
        t0 = perf_counter()
        hasher.transform_columns(columns)
        times.append(perf_counter() - t0)
    return {"ai.hash_rows_per_s": HASH_ROWS / median(times)}


def storage_micro(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 103])
    db = repro.connect()
    db.execute("CREATE TABLE probe (id INT UNIQUE, k INT, v FLOAT)")
    heap = db.catalog.table("probe")
    keys = rng.permutation(STORAGE_ROWS)
    values = rng.random(STORAGE_ROWS)
    rows = [(int(keys[i]), int(keys[i] % 97), float(values[i]))
            for i in range(STORAGE_ROWS)]
    t0 = perf_counter()
    rids = [heap.insert(row) for row in rows]
    heap_insert = perf_counter() - t0
    index = BPlusTreeIndex("probe_id", "probe", "id")
    t0 = perf_counter()
    for row, rid in zip(rows, rids):
        index.insert(row[0], rid)
    index_insert = perf_counter() - t0
    t0 = perf_counter()
    found = sum(len(index.search(row[0])) for row in rows)
    index_search = perf_counter() - t0
    if found != STORAGE_ROWS:
        raise RuntimeError(f"index probe found {found} of {STORAGE_ROWS} keys")
    passes = []
    for _ in range(4):                 # the first builds the typed views
        t0 = perf_counter()
        scanned = sum(count for _, count in heap.scan_column_batches())
        passes.append(perf_counter() - t0)
    if scanned != STORAGE_ROWS:
        raise RuntimeError(f"scan probe saw {scanned} of {STORAGE_ROWS} rows")
    return {"storage.heap_insert_us": heap_insert / STORAGE_ROWS * 1e6,
            "storage.index_insert_us": index_insert / STORAGE_ROWS * 1e6,
            "storage.index_search_us": index_search / STORAGE_ROWS * 1e6,
            "storage.scan_rows_per_s": STORAGE_ROWS / median(passes[1:])}


def run_all(seed: int) -> dict[str, float]:
    return {**nn_step(seed), **hash_block(seed), **storage_micro(seed)}
