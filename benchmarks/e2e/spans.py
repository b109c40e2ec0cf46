"""In-memory spans recorded from outside ``src/repro``.

A span is ``[name, start, end, parent, statement_id]``; ``name`` is
``<layer>.<call>`` where the layer is one of this repo's packages (``sql``,
``plan``, ``db``, ``exec``, ``storage``, ``ai``, ``serve``) or ``stmt`` for
the root span the benchmark opens around one statement.  Spans are opened
by the benchmark around calls into public functions, or by timing wrappers
the benchmark sets on instances (``Tracer.wrap``); nothing under ``src/``
knows about them.  They stay in memory until the run ends.

A span's self time is its duration minus its direct children's durations.
One thread opens spans (the load generator); a wrapped method called from
an engine worker thread passes straight through, so the stack stays
well nested.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice
from time import perf_counter

NAME, START, END, PARENT, STATEMENT = range(5)
CHUNK = 512      # items a wrapped generator hands over per span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.statement_id = -1
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, bool, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.statement_id]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    @contextmanager
    def statement(self, shape: str):
        """Root span of one statement.  The statement's id is the root's
        index in ``spans``; children inherit it."""
        self.statement_id = len(self.spans)
        with self.span(f"stmt.{shape}") as record:
            yield record
        self.statement_id = -1

    def wrap(self, obj: object, attr: str, name: str,
             items: str | None = None) -> None:
        """Replace ``obj.attr`` with a wrapper that records a span per
        call.  ``items`` is for methods that return a generator: the
        wrapper pulls it ``CHUNK`` items at a time, one span per pull (so
        the spans hold the scan's own time while the consumer's work
        between pulls stays with the consumer), and adds the number of
        items to ``counts[items]`` and one to ``counts[items + ".calls"]``."""
        original = getattr(obj, attr)
        had_own = attr in getattr(obj, "__dict__", {})

        def call(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            with self.span(name):
                return original(*args, **kwargs)

        def pull(*args, **kwargs):
            source = original(*args, **kwargs)
            if threading.get_ident() != self._thread:
                yield from source
                return
            self.counts[items + ".calls"] += 1
            while True:
                with self.span(name):
                    chunk = list(islice(source, CHUNK))
                if not chunk:
                    return
                self.counts[items] += len(chunk)
                yield from chunk

        setattr(obj, attr, call if items is None else pull)
        self._undo.append((obj, attr, had_own, original))

    def unwrap_all(self) -> None:
        for obj, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(obj, attr, original)   # module global
            else:
                delattr(obj, attr)             # fall back to the class's method
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in span order."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out


def check_spans(spans: list[list]) -> list[str]:
    """Problems with a span list (empty when well formed): every child lies
    inside its parent and shares its statement id, no self time is negative
    beyond clock resolution, and each root's tree of self times sums to the
    root's duration within 1%."""
    problems = []
    selfs = self_times(spans)
    root_of = list(range(len(spans)))
    tree_self: dict[int, float] = defaultdict(float)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if span[END] < span[START]:
            problems.append(f"span {index} {span[NAME]} ends before it starts")
        if parent >= 0:
            if parent >= index:
                problems.append(f"span {index} names a later parent {parent}")
                continue
            outer = spans[parent]
            if span[START] < outer[START] or span[END] > outer[END]:
                problems.append(f"span {index} {span[NAME]} leaves its "
                                f"parent {outer[NAME]}")
            if span[STATEMENT] != outer[STATEMENT]:
                problems.append(f"span {index} {span[NAME]} changes "
                                f"statement id under {outer[NAME]}")
            root_of[index] = root_of[parent]
        if selfs[index] < -1e-6:
            problems.append(f"span {index} {span[NAME]} has negative self "
                            f"time {selfs[index]}")
        tree_self[root_of[index]] += selfs[index]
    for root, total in tree_self.items():
        duration = spans[root][END] - spans[root][START]
        if abs(total - duration) > 0.01 * max(duration, 1e-9):
            problems.append(f"self times under root {root} sum to {total}, "
                            f"root lasted {duration}")
    return problems


def aggregate(spans: list[list]) -> dict:
    """Per-span-name aggregates (count, total, self, share of all root
    time), per-layer self time, and per-root-shape layer self time — the
    only span data that is committed; raw spans go to ``--out``'s
    directory."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = defaultdict(float)
    by_shape: dict[str, dict[str, float]] = {}
    root_of = list(range(len(spans)))
    root_total = 0.0
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            root_of[index] = root_of[span[PARENT]]
        else:
            root_total += span[END] - span[START]
        entry = by_name.setdefault(span[NAME],
                                   {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += selfs[index]
        layer = span[NAME].split(".", 1)[0]
        by_layer[layer] += selfs[index]
        shape = spans[root_of[index]][NAME].split(".", 1)[1]
        by_shape.setdefault(shape, defaultdict(float))[layer] += selfs[index]
    for entry in by_name.values():
        entry["share"] = entry["self_s"] / root_total if root_total else 0.0
    return {
        "root_total_s": root_total,
        "by_name": by_name,
        "layer_self_s": dict(by_layer),
        "layer_share": {layer: (value / root_total if root_total else 0.0)
                        for layer, value in by_layer.items()},
        "shape_layer_share": {
            shape: {layer: value / sum(layers.values())
                    for layer, value in layers.items()}
            for shape, layers in by_shape.items()},
    }
