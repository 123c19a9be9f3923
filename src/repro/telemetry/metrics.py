"""A central metrics registry: one naming scheme over the components' counts.

Every component keeps its counts in a plain field or stats object it owns
(``NetworkStats``, ``StoreStats``, ``PropagationStats``, ``CacheStats``...),
which is what the benchmarks read.  The registry gives them one naming
scheme and one snapshot — what ``benchmarks/report_all.py`` serializes into
``BENCH_telemetry.json`` — by *viewing* them: a component registers its
stats once with :meth:`MetricsRegistry.add_source` and the registry reads
them whenever someone asks.  The registry holds no number of its own: it
names and sums numbers it never stores, so a count has one home and a view
cannot drift from it.

A registry constructed with ``enabled=False`` never stores a source, so a
disabled system provably keeps nothing (tests assert ``len(registry) == 0``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping


class Metric:
    """One named number as the registry reports it: a counter (a count
    that only grows) or a gauge (a level that goes up and down)."""

    __slots__ = ("name", "kind", "value")

    def __init__(self, name: str, kind: str, value: float):
        self.name = name
        self.kind = kind
        self.value = value

    def to_dict(self) -> dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return f"Metric({self.name!r}, {self.kind}, {self.value})"


class MetricsRegistry:
    """One deployment's metrics: views of the live stats it was handed."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: (prefix, source, kind) per registered view
        self._sources: list[tuple[str, object, str]] = []

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
            self._sources.append((prefix, source, kind))

    def _viewed(self) -> dict[str, Metric]:
        out: dict[str, Metric] = {}
        for prefix, source, kind in self._sources:
            fields = source() if callable(source) else source
            if not isinstance(fields, Mapping):
                fields = vars(fields)
            for field, value in fields.items():
                if field.startswith("_") or type(value) not in (int, float):
                    continue
                name = f"{prefix}.{field}"
                seen = out.get(name)
                if seen is None:
                    out[name] = Metric(name, kind, value)
                else:
                    seen.value += value
        return out

    # -- introspection ------------------------------------------------------

    def get(self, name: str) -> Metric | None:
        return self._viewed().get(name)

    def names(self) -> list[str]:
        return sorted(self._viewed())

    def __len__(self) -> int:
        return len(self._viewed())

    def __contains__(self, name: str) -> bool:
        return name in self._viewed()

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Every metric, serialized — the export format."""
        return {name: metric.to_dict() for name, metric in sorted(self._viewed().items())}
