"""The per-operation context threaded through every vnode call.

The paper's vnode interface passes a bare SunOS ``cred`` with each call.
That worked until layers needed to carry *more* than identity across the
stack — trace context for the telemetry subsystem, replica preferences for
the logical layer, cache-control flags for the attribute plane.  Rather
than growing N ad-hoc side channels (a dedicated trace RPC kwarg was the
first), every operation now takes one :class:`OpContext` that aggregates:

* ``cred`` — the classic identity (uid + groups);
* ``trace`` — distributed-trace parentage, propagated across the NFS hop;
* ``replica_hint`` — a preferred host for replica selection;
* ``no_cache`` — bypass the logical layer's version-vector cache.

The context is immutable (``with_*`` constructors derive variants), so it
crosses the NFS hop as it is: the client passes it as the call's ``ctx``
keyword and the server hands that same value to the exported layer — no
wire form, and nothing smuggled through names or per-purpose kwargs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.telemetry import TraceContext


@dataclass(frozen=True)
class Credential:
    """Identity presented with each vnode call (cred in SunOS)."""

    uid: int = 0
    gids: tuple[int, ...] = ()


#: The default credential used when callers do not care about identity.
ROOT_CRED = Credential(uid=0)


@dataclass(frozen=True)
class OpContext:
    """Everything a vnode operation carries besides its own arguments."""

    cred: Credential = ROOT_CRED
    trace: TraceContext | None = None
    replica_hint: str | None = None
    no_cache: bool = False

    # -- derivation (immutability means "modify" = "derive") ----------------

    def with_trace(self, trace: TraceContext | None) -> "OpContext":
        return replace(self, trace=trace)

    def with_no_cache(self, no_cache: bool = True) -> "OpContext":
        return replace(self, no_cache=no_cache)


#: The default context: root identity, no trace, no hints.
ROOT_CTX = OpContext()
