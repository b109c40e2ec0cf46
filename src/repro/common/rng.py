"""Deterministic random-number utilities.

Every stochastic component takes an explicit seed (or an
``numpy.random.Generator``) so experiments are reproducible run-to-run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


#: Seed used when a caller passes ``None``: reproducibility must never
#: hinge on the call site remembering to pick a number, so the escape
#: hatch is a *fixed* generator, not an OS-entropy one.
DEFAULT_SEED = 0


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a numpy Generator from a seed, or pass one through unchanged.

    ``None`` maps to :data:`DEFAULT_SEED` — every stochastic component in
    this repo is seeded, period.  An unseeded generator here would
    contradict the module contract above and silently break run-to-run
    reproducibility for whichever experiment forgot to thread its seed."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


#: Below this many values still being hashed, :func:`stable_hashes`
#: finishes them byte by byte: a numpy step has a fixed cost of a few
#: microseconds, about what the Python loop spends on 64 bytes.
VECTOR_MIN = 64


def fnv1a(data: bytes, h: int = 0xCBF29CE484222325) -> int:
    """The 64-bit FNV-1a hash of ``data`` (continued from the state ``h``
    when given): what :func:`stable_hash` and :func:`stable_hashes`
    compute over a value's UTF-8 ``repr``."""
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def stable_hash(value: object, buckets: int) -> int:
    """Deterministic (process-independent) hash of a value into a bucket.

    Python's builtin ``hash`` is salted per process for strings, which would
    make feature hashing non-reproducible, so we use a small FNV-1a.
    """
    return fnv1a(repr(value).encode("utf-8")) % buckets


def stable_hashes(values: Sequence[object], buckets: int) -> np.ndarray:
    """``[stable_hash(v, buckets) for v in values]`` as an int64 array
    (``buckets`` < 2**63), bit for bit, hashing all values at once.

    The UTF-8 ``repr`` bytes are joined into one buffer and the values
    ordered longest first, so the values longer than ``i`` bytes are a
    prefix of that order: byte position ``i`` is one gather from the
    buffer and one xor-multiply over that prefix in wrapping ``uint64``
    arithmetic — one numpy step per byte *position*, not one Python step
    per byte.  Once fewer than :data:`VECTOR_MIN` values are left, those
    finish in :func:`fnv1a`, so one long value does not cost a numpy step
    per byte of its own.
    """
    texts = [repr(v) for v in values]
    count = len(texts)
    if not count:
        return np.empty(0, dtype=np.int64)
    joined = "".join(texts)
    if joined.isascii():
        data = joined.encode("ascii")
        lengths = np.fromiter(map(len, texts), dtype=np.int64, count=count)
    else:
        encoded = [text.encode("utf-8") for text in texts]
        data = b"".join(encoded)
        lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=count)
    order = np.argsort(-lengths, kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    lengths = lengths[order]
    # live[i]: how many values are longer than i bytes
    live = np.searchsorted(-lengths, -np.arange(int(lengths[0])),
                           side="left").tolist()
    flat = np.frombuffer(data, dtype=np.uint8)
    h = np.full(count, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    position = 0
    while position < len(live) and live[position] >= VECTOR_MIN:
        head = h[:live[position]]
        head ^= flat[starts[:len(head)] + position]
        head *= prime
        position += 1
    if position < len(live):
        tail = live[position]
        h[:tail] = [fnv1a(data[start + position:start + length], state)
                    for start, length, state in zip(
                        starts[:tail].tolist(), lengths[:tail].tolist(),
                        h[:tail].tolist())]
    out = np.empty(count, dtype=np.int64)
    out[order] = h % np.uint64(buckets)
    return out
