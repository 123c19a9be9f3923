"""A central metrics registry: counters, gauges, fixed-bucket histograms.

Every component keeps its counts in a plain stats object it owns
(``NetworkStats``, ``PropagationStats``, ``CacheStats``...), which is what
the benchmarks read.  The registry gives them one naming scheme and one
snapshot — what ``benchmarks/report_all.py`` serializes into
``BENCH_telemetry.json`` — by *viewing* them: a component registers its
stats object once with :meth:`MetricsRegistry.add_source` and the registry
reads it whenever someone asks, so a count has one home and a view cannot
drift from it.  Only facts with no other home (``nfs.retries``,
``store.records_*``, histograms) are held by the registry itself.

A registry constructed with ``enabled=False`` hands out shared no-op
instruments and never stores an entry or a source, so a disabled system
provably allocates nothing (tests assert ``len(registry) == 0``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Mapping

from repro.errors import InvalidArgument

#: Default histogram buckets: log-spaced latency bounds in seconds, wide
#: enough for both virtual-clock RPC latencies and wall-clock profiles.
DEFAULT_BUCKETS = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that goes up and down (queue depths, cache sizes)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram: observation counts per upper bound.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; the final
    slot counts overflows.  Bounds are fixed at creation, so merging and
    exporting never re-bins.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total")
    kind = "histogram"

    def __init__(self, name: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise InvalidArgument(f"histogram buckets must be ascending, got {buckets!r}")
        self.name = name
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise InvalidArgument(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            if running >= rank:
                return bound
        return self.buckets[-1]

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6g})"


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """One deployment's metrics: held instruments plus views of live stats."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: (prefix, source, instrument class) per registered view
        self._sources: list[tuple[str, object, type]] = []

    def _get_or_create(self, name: str, factory, expected_kind: str):
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.kind != expected_kind:
                raise InvalidArgument(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {expected_kind}"
                )
            return existing
        if name in self._viewed():
            raise InvalidArgument(f"metric {name!r} is a view of live stats; read it with get()")
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get_or_create(name, lambda: Histogram(name, buckets), "histogram")

    # -- views --------------------------------------------------------------

    def add_source(
        self,
        prefix: str,
        source: "object | Mapping[str, float] | Callable[[], Mapping[str, float]]",
        kind: str = "counter",
    ) -> None:
        """View ``source``'s numbers as ``<prefix>.<field>`` metrics.

        ``source`` is a stats object (its public int/float attributes are
        the fields), a mapping, or a callable returning a mapping; it is
        read each time the registry is, never copied.  Sources naming the
        same metric add up (one per host makes the deployment's total),
        and they are never dropped: a layer rebuilt by a host reboot
        registers again and the dead one's final counts stay in the sum.
        """
        if self.enabled:
            self._sources.append((prefix, source, Gauge if kind == "gauge" else Counter))

    def _viewed(self) -> dict[str, Counter | Gauge]:
        out: dict[str, Counter | Gauge] = {}
        for prefix, source, instrument in self._sources:
            fields = source() if callable(source) else source
            if not isinstance(fields, Mapping):
                fields = vars(fields)
            for field, value in fields.items():
                if field.startswith("_") or type(value) not in (int, float):
                    continue
                name = f"{prefix}.{field}"
                seen = out.get(name)
                if seen is None:
                    seen = out[name] = instrument(name)
                    seen.value = value
                else:
                    seen.value += value
        return out

    # -- introspection ------------------------------------------------------

    def _all(self) -> dict[str, Counter | Gauge | Histogram]:
        return {**self._viewed(), **self._instruments}

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        held = self._instruments.get(name)
        return held if held is not None else self._viewed().get(name)

    def names(self) -> list[str]:
        return sorted(self._all())

    def __len__(self) -> int:
        return len(self._all())

    def __contains__(self, name: str) -> bool:
        return name in self._all()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Every metric, held or viewed, serialized — the export format."""
        return {name: inst.to_dict() for name, inst in sorted(self._all().items())}

    def reset(self) -> None:
        """Zero the held instruments in place (names and bound references
        survive); viewed values are live state and keep reading it."""
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                instrument.bucket_counts = [0] * (len(instrument.buckets) + 1)
                instrument.count = 0
                instrument.total = 0.0
            else:
                instrument.value = 0
