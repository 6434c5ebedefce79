"""Labelled metrics registry — counters, gauges and histograms.

Each universe keeps one as the only store of its MPI traffic counters
(the simulator bumps them in place; :class:`repro.mpi.stats.CommStats`
is their read-only view), and the ``repro serve`` job queue and server
keep theirs for queue, cache and request metrics.

Design points:

* an *instrument* is identified by ``(name, labels)`` — requesting the same
  pair twice returns the same object, so call sites can cache the handle
  and mutate ``.value`` directly on hot paths (no dict lookup per event);
* labels are plain ``str -> str/int`` pairs, e.g. ``op="agree"``,
  ``endpoint="run"``;
* everything snapshots to plain JSON (:meth:`MetricsRegistry.to_dict`),
  the ``metrics`` of ``/v1/cache/stats``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value.  ``value`` is public: hot paths may
    cache the instrument and do ``c.value += n`` directly."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


class Gauge:
    """Point-in-time value (may go up or down)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "value": self.value}


#: default histogram buckets — virtual seconds, log-spaced to cover both
#: Raijin-class microsecond ops and OPL-class minute-long spawns
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
                   1000.0)


class Histogram:
    """Cumulative-bucket histogram plus running sum/min/max.

    Buckets follow the Prometheus convention: ``bucket_counts[i]`` counts
    observations ``<= buckets[i]``, with an implicit +Inf bucket equal to
    ``count``.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "sum", "min", "max")

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.bucket_counts[i] += 1

    def to_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels),
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "buckets": {str(e): c for e, c in
                            zip(self.buckets, self.bucket_counts)}}


class MetricsRegistry:
    """Store of labelled instruments, keyed ``(name, sorted labels)``."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, key[1], buckets)
        return inst

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def counters(self, name: Optional[str] = None) -> List[Counter]:
        return [c for (n, _), c in sorted(self._counters.items())
                if name is None or n == name]

    def histograms(self, name: Optional[str] = None) -> List[Histogram]:
        return [h for (n, _), h in sorted(self._histograms.items())
                if name is None or n == name]

    def to_dict(self) -> dict:
        return {
            "counters": [c.to_dict() for c in self.counters()],
            "gauges": [g.to_dict() for _, g in sorted(self._gauges.items())],
            "histograms": [h.to_dict() for h in self.histograms()],
        }
