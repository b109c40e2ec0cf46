"""Trace spans over charged virtual time.

A :class:`Tracer` attaches to the query's shared
:class:`~repro.common.simtime.SimClock` and *observes* every charge the
execution engines make: the clock notifies it after its own accumulators
update, so the float arithmetic — and therefore results, totals, and
per-category breakdowns — is bit-identical with and without a tracer.

Attribution and reconciliation use two parallel accounting schemes:

* **Exact fixed-point sums** (:func:`to_fix` / :func:`from_fix`).  Every
  float charge is a dyadic rational, so accumulating
  ``numerator << (SHIFT - exponent)`` integers is *exact and associative*:
  per-span sums regroup freely (across operators, tasks, and engines)
  yet still add up to the trace total with integer ``==``.  This is what
  lets ``EXPLAIN ANALYZE`` promise that per-operator charged times sum
  exactly to the statement total per category, on every engine including
  the morsel-parallel one.
* **A chronological float mirror** (:meth:`Tracer.on_fold`).  Seeded from
  the clock's state at attach time and advanced by the *same* ``+=``
  sequence the shared clock performs, the mirror stays bit-identical to
  ``clock.breakdown()`` / ``clock.now`` at all times — the span-total ↔
  SimClock reconciliation the property tests assert with plain ``==``.

Span *attribution* is one stack: the innermost pushed span owns every
charge, which is how one pipeline source pull or DML victim-stream pull
(an interleaved generator), one fused block pass, or one morsel task all
attribute to the right operator.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator, Optional

#: fixed-point shift for exact charge accumulation.  Every finite float's
#: ``as_integer_ratio()`` denominator is a power of two no larger than
#: 2**1074 (the subnormal limit), so shifting numerators to a common
#: denominator of 2**1100 is always exact.
FIX_SHIFT = 1100
FIX_ONE = 1 << FIX_SHIFT


def to_fix(seconds: float) -> int:
    """Exact fixed-point representation of a (non-negative) float charge."""
    numerator, denominator = float(seconds).as_integer_ratio()
    return (numerator * FIX_ONE) // denominator


def from_fix(fix: int) -> float:
    """Nearest float to an exact fixed-point value (big-int division is
    correctly rounded, so this never overflows an intermediate float)."""
    return fix / FIX_ONE


class Span:
    """One node of the trace tree: a named scope that owns charges.

    Spans accumulate, per charge category, an exact fixed-point total
    (``fix``) and an event count (``counts`` — for batch charges the
    item count, so ``counts["buffer_hit"]`` is literally the number of
    page hits).  ``start``/``end`` are virtual-time placements, set where
    the span maps to a contiguous interval on some timeline (worker
    tasks, serving lanes, whole queries); attribution-only spans (an
    operator whose work interleaves with others) leave them ``None``.
    """

    __slots__ = ("span_id", "name", "kind", "parent_id", "attrs",
                 "start", "end", "fix", "counts")

    def __init__(self, span_id: int, name: str, kind: str,
                 parent_id: Optional[int] = None,
                 attrs: Optional[dict] = None):
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.parent_id = parent_id
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.fix: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def add(self, category: str, fix: int, count: int) -> None:
        self.fix[category] = self.fix.get(category, 0) + fix
        self.counts[category] = self.counts.get(category, 0) + count

    def charged(self) -> dict[str, float]:
        """Per-category charged virtual seconds (floats derived from the
        exact sums, so the rendering is deterministic on every engine)."""
        return {category: from_fix(value)
                for category, value in self.fix.items()}

    def total_fix(self) -> int:
        return sum(self.fix.values())

    def total(self) -> float:
        """Total charged virtual seconds across categories."""
        return from_fix(self.total_fix())

    def count(self, *categories: str) -> int:
        """Summed event/item count over the given categories."""
        return sum(self.counts.get(category, 0) for category in categories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.kind}:{self.name!r} "
                f"total={self.total():.9f})")


class Tracer:
    """Collects spans and reconciled charge totals for one trace.

    One tracer serves one shared clock (``tracer.attach(clock)``); it is
    also the finished trace — after execution, read :attr:`spans`,
    :meth:`category_totals`, :meth:`float_totals`, and :attr:`events`
    directly, or hand the tracer to :mod:`repro.obs.export` /
    :mod:`repro.obs.explain` for rendering.

    The engines run a statement on the calling thread, morsel tasks
    included, so its spans, events and float mirror follow program order.
    """

    def __init__(self) -> None:
        self._stack: list[Span] = []
        self._next_span_id = 1
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self._fix_total: dict[str, int] = defaultdict(int)
        self._count_total: dict[str, int] = defaultdict(int)
        self._float_by_category: dict[str, float] = defaultdict(float)
        self._float_now = 0.0
        self._node_spans: dict[int, Span] = {}

    # -- clock wiring --------------------------------------------------------

    def attach(self, clock) -> None:
        """Attach to the shared clock, seeding the float mirror from its
        current state so the mirror tracks it with exact ``==`` from here
        on (:meth:`float_totals` / :attr:`float_now`)."""
        self._float_by_category = defaultdict(float)
        self._float_by_category.update(clock.breakdown())
        self._float_now = clock.now
        clock.tracer = self
        clock._tracer_folds = True

    @staticmethod
    def detach(clock) -> None:
        clock.tracer = None

    def on_charge(self, category: str, seconds: float, count: int,
                  fold: bool) -> None:
        """Clock callback: one charge of ``seconds`` (``count`` items).
        ``fold`` is True for shared-clock charges (mirror advances) and
        False for shard-clock charges (attribution only — the shared
        clock folds them later via ``absorb``)."""
        span = self._current()
        fix = to_fix(seconds)
        self._fix_total[category] += fix
        self._count_total[category] += count
        if fold:
            self._float_by_category[category] += seconds
            self._float_now += seconds
        if span is not None:
            span.add(category, fix, count)

    def on_fold(self, category: str, seconds: float) -> None:
        """Clock callback for :meth:`SimClock.absorb`: advance the float
        mirror only (the charge was already attributed at its site)."""
        self._float_by_category[category] += seconds
        self._float_now += seconds

    # -- span lifecycle ------------------------------------------------------

    def begin(self, name: str, kind: str, parent: Optional[Span] = None,
              **attrs) -> Span:
        """Create (and register) a span without pushing it; pass
        ``parent`` explicitly when opening spans off the current stack
        (e.g. worker tasks parented under the query span)."""
        if parent is None:
            parent = self._current()
        span = Span(self._next_span_id, name, kind,
                    parent.span_id if parent is not None else None,
                    attrs)
        self._next_span_id += 1
        self.spans.append(span)
        return span

    def push(self, span: Span) -> None:
        """Make ``span`` the attribution target."""
        self._stack.append(span)

    def pop(self) -> Span:
        return self._stack.pop()

    def _current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, kind: str, clock=None, **attrs):
        """Open a span for a ``with`` block; when ``clock`` is given the
        span's start/end are stamped from its virtual time."""
        span = self.begin(name, kind, **attrs)
        if clock is not None:
            span.start = clock.now
        self.push(span)
        try:
            yield span
        finally:
            self.pop()
            if clock is not None:
                span.end = clock.now

    def operator_span(self, op) -> Span:
        """The (memoized) span of one physical operator, keyed by its
        plan node — every engine's instrumentation resolves the same
        operator to the same span, which is what makes per-operator
        attribution comparable across engines."""
        node = getattr(op, "plan_node", None)
        node_id = node.node_id if node is not None else id(op)
        span = self._node_spans.get(node_id)
        if span is None:
            label = node.label if node is not None else type(op).__name__
            span = self.begin(label, "operator", parent=None,
                              node_id=node_id, op=op)
            self._node_spans[node_id] = span
        return span

    def node_span(self, node_id: int) -> Optional[Span]:
        """Span of a plan node, if any charges were attributed to it."""
        return self._node_spans.get(node_id)

    def trace_iter(self, op, inner: Iterator) -> Iterator:
        """Wrap a generator so each ``next()`` — and every charge made
        during it, including buffer-pool page charges inside a scan pull —
        attributes to ``op``'s span.  This is how DML's victim streams
        (a scan's ``rid_rows``) and the pipelines' generator sources keep
        per-operator attribution exact."""
        span = self.operator_span(op)
        while True:
            self.push(span)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self.pop()
            yield item

    # -- span events ---------------------------------------------------------

    def event(self, name: str, time: Optional[float] = None,
              **attrs) -> dict:
        """Record an instantaneous span event (fault retry, failover,
        resync, drift...) against the current span."""
        span = self._current()
        record = {"name": name, "time": time,
                  "span_id": span.span_id if span is not None else None,
                  **attrs}
        self.events.append(record)
        return record

    # -- reconciled totals ---------------------------------------------------

    def category_totals(self) -> dict[str, float]:
        """Per-category charged totals derived from the exact sums."""
        return {category: from_fix(value)
                for category, value in self._fix_total.items()}

    def fix_totals(self) -> dict[str, int]:
        return dict(self._fix_total)

    def counts(self) -> dict[str, int]:
        return dict(self._count_total)

    def float_totals(self) -> dict[str, float]:
        """The chronological float mirror — bit-identical to the shared
        clock's ``breakdown()`` for every category it has touched."""
        return dict(self._float_by_category)

    @property
    def float_now(self) -> float:
        """Mirror of the shared clock's ``now`` (exact ``==``)."""
        return self._float_now

    # -- tree helpers --------------------------------------------------------

    def roots(self) -> list[Span]:
        known = {s.span_id for s in self.spans}
        return [s for s in self.spans
                if s.parent_id is None or s.parent_id not in known]

    def spans_of_kind(self, *kinds: str) -> list[Span]:
        return [s for s in self.spans if s.kind in kinds]
