"""Unified metrics registry: labeled series plus structured events.

One :class:`MetricsRegistry` per database absorbs the previously
scattered stats dicts — serving counters, buffer-pool view/hit counters,
scheduler retry/crash counters, monitor drift — behind a single
``Db.metrics()`` / :meth:`MetricsRegistry.snapshot` surface.  Components
either hold instruments directly (:meth:`counter` / :meth:`gauge` /
:meth:`histogram` get-or-create a labeled series) or register a
*collector* callback that contributes point-in-time gauges at snapshot
time, which lets existing accessors (``BufferPool.snapshot()``,
``FaultPlan.counts()``, ``PredictServer.stats()``) feed the registry
without rewiring their internals.

Structured events (:meth:`event`) are the machine-readable form of what
``Db.warnings()`` used to keep as strings: retries, trigger errors,
fault injections, drift.  The string accessor remains as a rendered view
over these events.

Naming convention: dotted lowercase ``subsystem.metric`` names with
``{label=value}`` series suffixes, e.g. ``exec.task_retries`` or
``buffer.hit_ratio{table=orders}``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

#: default retention of the structured-event log
MAX_EVENTS = 4096


def series_key(name: str, labels: dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value."""

    __slots__ = ("key", "value")

    def __init__(self, key: str):
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Cumulative-bucket histogram over observed values."""

    __slots__ = ("key", "buckets", "bucket_counts", "count", "total")

    #: default buckets span the virtual-latency range the benches produce
    DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def __init__(self, key: str, buckets: Optional[tuple] = None):
        self.key = key
        self.buckets = tuple(buckets) if buckets else self.DEFAULT_BUCKETS
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "buckets": {f"le={bound:g}": count for bound, count
                        in zip(self.buckets, self.bucket_counts)}
            | {"le=+inf": self.bucket_counts[-1]},
        }


class MetricsRegistry:
    """Labeled counters/gauges/histograms, collectors, and an event log."""

    def __init__(self, max_events: int = MAX_EVENTS):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[[], dict[str, float]]] = []
        self._events: deque[dict] = deque(maxlen=max_events)

    # -- instruments ---------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = series_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(key)
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = series_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(self, name: str, buckets: Optional[tuple] = None,
                  **labels) -> Histogram:
        key = series_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(key, buckets)
        return instrument

    def add_collector(self, collect: Callable[[], dict[str, float]]) -> None:
        """Register a callback returning ``{series_key: value}`` gauges
        evaluated at snapshot time — the adapter for components that
        already maintain their own counters."""
        self._collectors.append(collect)

    # -- structured events ---------------------------------------------------

    def event(self, kind: str, message: Optional[str] = None,
              time: Optional[float] = None, **fields) -> dict:
        """Append one structured event; ``kind`` is a dotted category
        (``db.retry``, ``monitor.trigger_error``, ``serve.batch_retry``)
        and ``message`` its human rendering."""
        record = {"kind": kind, "message": message, "time": time, **fields}
        self._events.append(record)
        return record

    def events(self, kind: Optional[str] = None,
               prefix: Optional[str] = None) -> list[dict]:
        records = list(self._events)
        if kind is not None:
            records = [e for e in records if e["kind"] == kind]
        if prefix is not None:
            records = [e for e in records
                       if e["kind"].startswith(prefix)]
        return records

    def event_messages(self, kind: Optional[str] = None,
                       prefix: Optional[str] = None) -> list[str]:
        """Rendered view over the event log (what ``Db.warnings()``
        exposes): each event's message, falling back to its kind."""
        return [e["message"] if e["message"] is not None else e["kind"]
                for e in self.events(kind=kind, prefix=prefix)]

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """One point-in-time view of every series: counters, gauges
        (instrument plus collector-contributed), histogram summaries,
        and the structured-event tail."""
        counters = {key: c.value for key, c in self._counters.items()}
        gauges = {key: g.value for key, g in self._gauges.items()}
        histograms = {key: h.snapshot()
                      for key, h in self._histograms.items()}
        for collect in self._collectors:
            gauges.update(collect())
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "events": list(self._events)}
