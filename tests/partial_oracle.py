"""The aggregate partial's retired nested form, kept as a test oracle.

Until the columnar :class:`~repro.exec.operators.AggPartial`, a morsel
partial was an insertion-ordered dict

    group key -> [representative row, entries]

with one entry per aggregate call — ``("count", n)`` or ``("values",
values, clean)`` — the distributed engine sliced it per owner node into
``key -> (position, state)``, each owner merged its slices into ``key ->
(accumulators, representative, (morsel, position))``, and modeled bytes
were 8 per scalar leaf of whichever form crossed the wire, counted by a
recursive walk.  The engine now computes the same numbers in closed form
from array lengths; the functions below rebuild the nested forms from a
columnar partial and walk them, so tests can hold the closed forms (and
the exchange log) to the walk.
"""

from __future__ import annotations

from typing import Any

from repro.common.rng import stable_hash
from repro.exec import operators as ops


def payload_units(value: Any) -> int:
    """Scalar-leaf count of an arbitrary exchange payload: deterministic
    structural size, 8 modeled bytes per unit."""
    if isinstance(value, dict):
        return sum(payload_units(k) + payload_units(v)
                   for k, v in value.items()) or 1
    if isinstance(value, (list, tuple)):
        return sum(payload_units(v) for v in value) or 1
    return 1


def payload_bytes(value: Any) -> int:
    return 8 * payload_units(value)


def expand_partial(op: ops.AggregateOp, partial: ops.AggPartial) -> dict:
    """The nested form of one columnar partial."""
    representatives = partial.reps.to_rows()
    sources = [ops._source_values(source, partial.reps)
               for source in op._group_sources]
    if not sources:
        keys = [()] * len(representatives)       # a global aggregate
    else:
        keys = sources[0] if len(sources) == 1 else list(zip(*sources))
    values = [None if entry is None else entry[0].tolist()
              for entry in partial.columns]
    out = {}
    bounds = zip(partial.lows.tolist(), partial.lens.tolist())
    for key, representative, (low, size) in zip(keys, representatives,
                                                bounds):
        entries = [("count", size) if entry is None
                   else ("values", column[low:low + size], entry[1])
                   for entry, column in zip(partial.columns, values)]
        assert key not in out
        out[key] = [representative, entries]
    return out


def split_partial(partial: dict, parts: int) -> list[dict]:
    """One nested partial sliced by owner node (``stable_hash`` of the
    key), each entry stamped with its position in the morsel."""
    out: list[dict] = [{} for _ in range(parts)]
    for position, (key, state) in enumerate(partial.items()):
        out[stable_hash(key, parts)][key] = (position, state)
    return out


def merge_partition(op: ops.AggregateOp, slices: list[dict]) -> dict:
    """One owner's slices (in morsel order) merged into ``key ->
    (accumulators, representative, first_seen)``.  The accumulators are
    left unfed: each is one scalar leaf to the walk, whatever it holds."""
    groups: dict = {}
    for morsel, sub in enumerate(slices):
        for key, (position, (representative, _)) in sub.items():
            if key not in groups:
                groups[key] = (op._new_accs(), representative,
                               (morsel, position))
    return groups
