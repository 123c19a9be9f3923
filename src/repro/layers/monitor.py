"""A performance-monitoring vnode layer.

"We have used it to provide file distribution and replication; we expect
to use it for **performance monitoring**, user authentication and
encryption" (paper Section 1).  This layer demonstrates that expectation:
slipped anywhere into a stack, it records per-operation call counts,
latency sums, and byte volumes without the layers above or below
noticing.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.telemetry import MetricsRegistry
from repro.vnode.interface import (
    ROOT_CTX,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
)
from repro.vnode.passthrough import NullLayer, PassthroughVnode


@dataclass
class OpProfile:
    """Statistics for one vnode operation."""

    calls: int = 0
    errors: int = 0
    total_seconds: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class MonitorLayer(NullLayer):
    """Pass-through layer that profiles every operation crossing it."""

    layer_name = "monitor"

    def __init__(
        self,
        lower: FileSystemLayer,
        name: str = "monitor",
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
    ):
        super().__init__(lower, name=name)
        #: timing source; injectable so simulated deployments can profile
        #: in virtual time (and tests can supply a fake clock)
        self.clock = clock or time.perf_counter
        self.registry = registry
        self.profile: dict[str, OpProfile] = {}

    def wrap(self, lower: Vnode) -> "MonitorVnode":
        return MonitorVnode(self, lower)

    def record(self, op: str, seconds: float, error: bool, n_in: int = 0, n_out: int = 0) -> None:
        prof = self.profile.setdefault(op, OpProfile())
        prof.calls += 1
        prof.total_seconds += seconds
        if error:
            prof.errors += 1
        prof.bytes_in += n_in
        prof.bytes_out += n_out
        registry = self.registry
        if registry is not None:
            prefix = f"monitor.{self.layer_name}.{op}"
            registry.counter(f"{prefix}.calls").inc()
            if error:
                registry.counter(f"{prefix}.errors").inc()
            registry.histogram(f"{prefix}.seconds").observe(seconds)
            if n_in or n_out:
                registry.counter(f"{prefix}.bytes").inc(n_in + n_out)

    def report(self) -> str:
        """Human-readable profile table."""
        lines = [f"{'op':>10} | {'calls':>7} | {'errors':>6} | {'mean us':>9} | {'bytes':>10}"]
        for op in sorted(self.profile):
            prof = self.profile[op]
            lines.append(
                f"{op:>10} | {prof.calls:>7} | {prof.errors:>6} | "
                f"{prof.mean_seconds * 1e6:>9.1f} | {prof.bytes_in + prof.bytes_out:>10}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self.profile.clear()


class MonitorVnode(PassthroughVnode):
    """Wraps a lower vnode, timing each forwarded operation."""

    def __init__(self, layer: MonitorLayer, lower: Vnode):
        super().__init__(layer, lower)
        self.layer: MonitorLayer = layer

    def _timed(self, op: str, thunk, n_in: int = 0):
        clock = self.layer.clock
        start = clock()
        try:
            result = thunk()
        except Exception:
            self.layer.record(op, clock() - start, error=True, n_in=n_in)
            raise
        n_out = len(result) if isinstance(result, (bytes, str)) else 0
        self.layer.record(op, clock() - start, error=False, n_in=n_in, n_out=n_out)
        return result

    # data-bearing operations get byte accounting; the rest just timing

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        return self._timed("read", lambda: self.lower.read(offset, length, ctx))

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        clock = self.layer.clock
        start = clock()
        try:
            written = self.lower.write(offset, data, ctx)
        except Exception:
            self.layer.record("write", clock() - start, error=True, n_in=len(data))
            raise
        self.layer.record("write", clock() - start, error=False, n_in=written)
        return written

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self.layer.wrap(self._timed("lookup", lambda: self.lower.lookup(name, ctx)))

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self.layer.wrap(self._timed("create", lambda: self.lower.create(name, perm, ctx)))

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self.layer.wrap(self._timed("mkdir", lambda: self.lower.mkdir(name, perm, ctx)))

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self._timed("remove", lambda: self.lower.remove(name, ctx))

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self._timed("rmdir", lambda: self.lower.rmdir(name, ctx))

    def getattr(self, ctx: OpContext = ROOT_CTX):
        return self._timed("getattr", lambda: self.lower.getattr(ctx))

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        self._timed("setattr", lambda: self.lower.setattr(attrs, ctx))

    def readdir(self, ctx: OpContext = ROOT_CTX):
        return self._timed("readdir", lambda: self.lower.readdir(ctx))

    def truncate(self, size: int, ctx: OpContext = ROOT_CTX) -> None:
        self._timed("truncate", lambda: self.lower.truncate(size, ctx))
