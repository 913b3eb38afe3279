"""Deterministic metrics registry (counters, gauges, histograms).

Every metric is keyed by a ``(container, subsystem, name)`` triple --
the container *name* (containers are short-lived; their telemetry must
outlive them), the subsystem that produced the sample (``cpu``,
``sched``, ``net``, ``app``, ``client``), and the metric name.

Three metric kinds, mirroring the usual server-telemetry vocabulary:

* :class:`Counter` -- monotonically increasing total (requests served,
  packets dropped, microseconds charged);
* :class:`Gauge` -- last-written value (queue depth, open connections);
* :class:`Histogram` -- fixed-bucket distribution plus exact
  ``sum``/``count``/``min``/``max``.  Buckets are *fixed at creation*
  so two runs of the same workload bucket identically; the exact sum
  and count make ``mean()`` float-identical to averaging the raw
  samples in arrival order.

The registry is passive: it never schedules events, never reads the
host clock, and only ever stores what callers hand it, so attaching one
cannot perturb a simulation.  Snapshots are emitted in sorted key order
so exports are byte-stable across runs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

#: Default histogram bucket upper bounds, microseconds.  Spans the
#: interesting latency range of the experiments (0.1 ms .. 10 s) in
#: roughly-logarithmic steps; values beyond the last bound land in the
#: implicit +inf bucket.
DEFAULT_BUCKETS_US: tuple = (
    100.0,
    300.0,
    1_000.0,
    3_000.0,
    10_000.0,
    30_000.0,
    100_000.0,
    300_000.0,
    1_000_000.0,
    3_000_000.0,
    10_000_000.0,
)

#: A metric key: (container, subsystem, name).
MetricKey = tuple

#: Principal label for charges no container pays for.
UNACCOUNTED = "<unaccounted>"


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters never regress)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-value-wins sample."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with exact sum/count/min/max.

    ``bucket_counts[i]`` counts samples ``<= buckets[i]`` (cumulative
    style is left to exporters; storage is per-bucket).  Samples beyond
    the last bound are counted in ``overflow``.
    """

    __slots__ = ("buckets", "bucket_counts", "overflow", "count", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS_US) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be ascending: {bounds}")
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one sample into the distribution."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.overflow += 1

    def mean(self) -> Optional[float]:
        """Exact mean of all observed samples; None when empty."""
        if self.count == 0:
            return None
        return self.sum / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (upper bound of the
        bucket containing the q-th sample); None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be 0..1, got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for index, bound in enumerate(self.buckets):
            seen += self.bucket_counts[index]
            if seen >= rank:
                return bound
        return self.max

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "overflow": self.overflow,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


Metric = Union[Counter, Gauge, Histogram]


class _Bound(dict):
    """A dict that fills a missing key with ``make(key)`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class MetricsRegistry:
    """Get-or-create store of metrics keyed by (container, subsystem, name)."""

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Metric] = {}
        #: Handle caches handed out by :meth:`bind`; reset empties them.
        self._bindings: list = []

    # -- get-or-create -----------------------------------------------------

    def counter(self, container: str, subsystem: str, name: str) -> Counter:
        """The counter at this key (created on first use)."""
        return self._get(Counter, (container, subsystem, name))

    def gauge(self, container: str, subsystem: str, name: str) -> Gauge:
        """The gauge at this key (created on first use)."""
        return self._get(Gauge, (container, subsystem, name))

    def histogram(
        self,
        container: str,
        subsystem: str,
        name: str,
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        """The histogram at this key (created on first use).

        ``buckets`` applies only at creation; asking for an existing
        histogram with different bounds is an error (silently serving
        mismatched buckets would make two call sites disagree about
        what the distribution means).
        """
        key = (container, subsystem, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(
                buckets if buckets is not None else DEFAULT_BUCKETS_US
            )
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {key} is a {metric.kind}, not a histogram"
            )
        elif buckets is not None and tuple(float(b) for b in buckets) != metric.buckets:
            raise ValueError(
                f"histogram {key} already exists with buckets "
                f"{metric.buckets}; cannot re-declare with {tuple(buckets)}"
            )
        return metric

    def _get(self, cls, key: MetricKey):
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {key} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    # -- introspection -----------------------------------------------------

    def get(self, container: str, subsystem: str, name: str) -> Optional[Metric]:
        """The metric at this key, or None (never creates)."""
        return self._metrics.get((container, subsystem, name))

    def keys(self) -> list:
        """All metric keys, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop all metrics (measurement-window restart after warm-up)."""
        self._metrics.clear()
        for bound in self._bindings:
            bound.clear()

    # -- bound handles -----------------------------------------------------

    def bind(self, subsystem: str, **kinds: str) -> "_Bound":
        """Metric handles of one subsystem: ``bound[container][name]``.

        Both levels fill on first use through the get-or-create calls
        (``kinds`` names any gauges or histograms), so metrics are created
        when, and in the order, callers first ask; after that a lookup is
        two dict reads.  A ``None`` container is :data:`UNACCOUNTED`.
        :meth:`reset` empties every binding.
        """

        def container(name: Optional[str]) -> _Bound:
            name = UNACCOUNTED if name is None else name
            return _Bound(
                lambda metric: getattr(self, kinds.get(metric, "counter"))(
                    name, subsystem, metric
                )
            )

        bound = _Bound(container)
        self._bindings.append(bound)
        return bound

    # -- export ------------------------------------------------------------

    def snapshot(self) -> list:
        """JSON-safe dump: sorted list of {container, subsystem, name, ...}."""
        out = []
        for key in sorted(self._metrics):
            container, subsystem, name = key
            entry = {
                "container": container,
                "subsystem": subsystem,
                "name": name,
            }
            entry.update(self._metrics[key].to_dict())
            out.append(entry)
        return out

    def render(self, limit: Optional[int] = None) -> str:
        """Aligned text table of every metric (counters/gauges: value;
        histograms: count/mean/max)."""
        lines = [
            f"{'container':28s}{'subsystem':10s}{'metric':24s}"
            f"{'kind':10s}{'value':>14s}"
        ]
        shown = 0
        for key in sorted(self._metrics):
            if limit is not None and shown >= limit:
                lines.append(f"... ({len(self._metrics) - shown} more)")
                break
            metric = self._metrics[key]
            container, subsystem, name = key
            if isinstance(metric, Histogram):
                mean = metric.mean()
                value = (
                    f"n={metric.count} mean={mean:.1f}" if mean is not None
                    else "n=0"
                )
            else:
                value = f"{metric.value:g}"
            lines.append(
                f"{container:28s}{subsystem:10s}{name:24s}"
                f"{metric.kind:10s}{value:>14s}"
            )
            shown += 1
        return "\n".join(lines)
