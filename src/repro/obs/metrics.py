"""A small, dependency-free metrics registry: counters, gauges, histograms.

The registry is the write-side of the observability layer.  Engines (and
the coordinator loops of the parallel backends) record what happened —
states visited, memo hits, steal counts, shard occupancy — and the
read-side (:meth:`MetricsRegistry.snapshot`) renders everything as one
JSON-able dict that travels on :class:`~repro.checker.result.CheckResult`
and into every ``--json`` record.

Design constraints, in order:

* **Zero hot-loop presence.**  Nothing in this module is called per
  state; engines populate metrics at phase boundaries from counters they
  already keep (``SearchStatistics``, memo tables, claim stripes).
* **Labels without a dependency.**  Each instrument keys its series by a
  sorted ``(key, value)`` tuple of string labels, Prometheus-style, so a
  single ``claim_table_stripe_size`` gauge can carry one series per
  stripe.
* **JSON all the way down.**  ``snapshot()`` output round-trips through
  ``json.dumps`` untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: exponential, covering microseconds..minutes
#: for timings and 1..1e6 for size-ish observations equally badly but
#: predictably.  Callers with real distributions pass their own.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0, 10000.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_dict(key: LabelKey) -> Dict[str, str]:
    return {k: v for k, v in key}


class _Instrument:
    """Shared name/description/labelled-series plumbing."""

    kind = "instrument"

    def __init__(self, name: str, description: str = "", unit: str = "") -> None:
        self.name = name
        self.description = description
        self.unit = unit
        self._series: Dict[LabelKey, object] = {}

    def labelled(self) -> List[Tuple[Dict[str, str], object]]:
        return [(_labels_dict(key), value) for key, value in sorted(self._series.items())]


class Counter(_Instrument):
    """A monotonically increasing count, optionally split by labels."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> int:
        return int(self._series.get(_label_key(labels), 0))

    def total(self) -> int:
        return sum(self._series.values())

    def snapshot(self) -> Dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "unit": self.unit,
            "values": [
                {"labels": labels, "value": value} for labels, value in self.labelled()
            ],
            "total": self.total(),
        }


class Gauge(_Instrument):
    """A point-in-time value (occupancy, depth, rate) split by labels."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels) -> Optional[float]:
        return self._series.get(_label_key(labels))

    def snapshot(self) -> Dict:
        return {
            "kind": self.kind,
            "description": self.description,
            "unit": self.unit,
            "values": [
                {"labels": labels, "value": value} for labels, value in self.labelled()
            ],
        }


class _HistogramSeries:
    __slots__ = ("count", "total", "minimum", "maximum", "bucket_counts")

    def __init__(self, bucket_count: int) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.bucket_counts = [0] * (bucket_count + 1)  # +1 = overflow


class Histogram(_Instrument):
    """A bucketed distribution (per-level timings, span durations, ...)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, description, unit)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.count += 1
        series.total += value
        if series.minimum is None or value < series.minimum:
            series.minimum = value
        if series.maximum is None or value > series.maximum:
            series.maximum = value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[index] += 1
                break
        else:
            series.bucket_counts[-1] += 1

    def series(self, **labels) -> Optional[_HistogramSeries]:
        return self._series.get(_label_key(labels))

    def snapshot(self) -> Dict:
        values = []
        for labels, series in self.labelled():
            values.append(
                {
                    "labels": labels,
                    "count": series.count,
                    "sum": series.total,
                    "min": series.minimum,
                    "max": series.maximum,
                    "mean": (series.total / series.count) if series.count else None,
                    "buckets": [
                        {"le": bound, "count": count}
                        for bound, count in zip(self.buckets, series.bucket_counts)
                    ]
                    + [{"le": "inf", "count": series.bucket_counts[-1]}],
                }
            )
        return {
            "kind": self.kind,
            "description": self.description,
            "unit": self.unit,
            "values": values,
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as one dict.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` return the
    existing instrument when the name is already registered (descriptions
    given later do not overwrite the first), so independent recording
    sites can share a series without coordination.  Registering the same
    name as two different instrument kinds is a programming error and
    raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get(self, cls, name: str, *args, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name, *args, **kwargs)
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}"
            )
        return instrument

    def counter(self, name: str, description: str = "", unit: str = "") -> Counter:
        return self._get(Counter, name, description, unit)

    def gauge(self, name: str, description: str = "", unit: str = "") -> Gauge:
        return self._get(Gauge, name, description, unit)

    def histogram(
        self,
        name: str,
        description: str = "",
        unit: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, description, unit, buckets)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> Dict:
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }
