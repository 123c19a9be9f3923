"""A performance-monitoring vnode layer.

"We have used it to provide file distribution and replication; we expect
to use it for **performance monitoring**, user authentication and
encryption" (paper Section 1).  This layer demonstrates that expectation:
slipped anywhere into a stack, it records per-operation call counts,
errors, latency sums, and byte volumes without the layers above or below
noticing.

It is the one place a stack counts its vnode operations.  No layer
counts itself; whoever wants the counts stacks a monitor where they want
them.  Every operation :class:`PassthroughVnode` forwards is profiled, by
one generated wrapper around that forwarding method.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter

from repro.vnode.interface import FileSystemLayer, Vnode
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

    def __init__(self, lower: FileSystemLayer, name: str = "monitor"):
        super().__init__(lower, name=name)
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

    def report(self) -> str:
        """Human-readable profile table."""
        lines = [f"{'op':>14} | {'calls':>7} | {'errors':>6} | {'mean us':>9} | {'bytes':>10}"]
        for op in sorted(self.profile):
            prof = self.profile[op]
            lines.append(
                f"{op:>14} | {prof.calls:>7} | {prof.errors:>6} | "
                f"{prof.mean_seconds * 1e6:>9.1f} | {prof.bytes_in + prof.bytes_out:>10}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self.profile.clear()


class MonitorVnode(PassthroughVnode):
    """Wraps a lower vnode, timing each forwarded operation."""

    layer: MonitorLayer


def _profiled(op: str):
    """Time ``PassthroughVnode.<op>`` and record it under ``op``.

    ``bytes_in`` is what ``write`` returns; ``bytes_out`` is the length of
    a ``bytes`` or ``str`` result (``read``, ``readlink``).
    """
    forward = vars(PassthroughVnode)[op]
    counts_in = op == "write"

    @functools.wraps(forward)
    def profiled(self: MonitorVnode, *args, **kwargs):
        start = perf_counter()
        try:
            result = forward(self, *args, **kwargs)
        except Exception:
            self.layer.record(op, perf_counter() - start, error=True)
            raise
        n_out = len(result) if isinstance(result, (bytes, str)) else 0
        n_in = result if counts_in else 0
        self.layer.record(op, perf_counter() - start, error=False, n_in=n_in, n_out=n_out)
        return result

    return profiled


for _op in Vnode.OPERATIONS:
    if _op in vars(PassthroughVnode):
        setattr(MonitorVnode, _op, _profiled(_op))
del _op
