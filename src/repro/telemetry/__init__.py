"""Cross-layer telemetry: trace spans and a metrics registry.

One :class:`Telemetry` hub serves a whole deployment; every layer holds a
reference (defaulting to the shared disabled :data:`NULL_TELEMETRY`) and
instruments itself through it.  Enable by constructing the system with an
enabled hub::

    from repro.sim import FicusSystem
    from repro.telemetry import Telemetry

    system = FicusSystem(["west", "east"], telemetry=Telemetry())
    ...
    print(export.summary(system.telemetry))

Timestamps come from whichever clock the hub is bound to; the simulator
binds its :class:`~repro.util.VirtualClock`, so traces replay
deterministically.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.telemetry.metrics import Metric, MetricsRegistry
from repro.telemetry.trace import NULL_SPAN, Span, TraceContext, Tracer, spanned


class Telemetry:
    """The per-deployment hub bundling a tracer and a metrics registry."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] | None = None,
        max_spans: int = 100_000,
    ):
        self.enabled = enabled
        self.tracer = Tracer(clock=clock, enabled=enabled, max_spans=max_spans)
        self.metrics = MetricsRegistry(enabled=enabled)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Drive all timestamps from ``clock`` (e.g. a VirtualClock's now)."""
        if not self.enabled:
            return  # keep the shared disabled hub inert
        self.tracer._clock = clock

    def reset(self) -> None:
        """Drop recorded spans.  Metrics are views of the components' live
        state, which a hub does not own, so they are not touched."""
        self.tracer.reset()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, spans={len(self.tracer.finished)})"


#: Shared default for components built without a hub.  Permanently
#: disabled: it records no span and keeps no metric source, so
#: uninstrumented deployments pay (nearly) nothing.  Never enable it —
#: construct a fresh Telemetry instead.
NULL_TELEMETRY = Telemetry(enabled=False)

# provenance depends only on repro.vv; health builds on it and on
# Telemetry/NULL_TELEMETRY defined above, so both import last
from repro.telemetry.provenance import (  # noqa: E402
    MINT_KINDS,
    PROVENANCE_RING_CAPACITY,
    ProvEvent,
    ProvenanceLedger,
    VersionDAG,
    VersionNode,
    compose_system_dag,
)
from repro.telemetry.health import (  # noqa: E402
    FLIGHT_RING_CAPACITY,
    FlightRecorder,
    HealthPlane,
    HostHealth,
    load_dump,
    snapshot_to_jsonl,
)

__all__ = [
    "FLIGHT_RING_CAPACITY",
    "FlightRecorder",
    "HealthPlane",
    "HostHealth",
    "MINT_KINDS",
    "Metric",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "PROVENANCE_RING_CAPACITY",
    "ProvEvent",
    "ProvenanceLedger",
    "Span",
    "VersionDAG",
    "VersionNode",
    "compose_system_dag",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "load_dump",
    "snapshot_to_jsonl",
    "spanned",
]
