"""Deterministic random-number utilities.

Every stochastic component takes an explicit seed (or an
``numpy.random.Generator``) so experiments are reproducible run-to-run.
"""

from __future__ import annotations

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


def stable_hash(value: object, buckets: int) -> int:
    """Deterministic (process-independent) hash of a value into a bucket.

    Python's builtin ``hash`` is salted per process for strings, which would
    make feature hashing non-reproducible, so we use a small FNV-1a.
    """
    data = repr(value).encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h % buckets
