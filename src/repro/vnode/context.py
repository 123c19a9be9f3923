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

The context is immutable (``with_*`` constructors derive variants) and has
a compact wire form so the NFS client can ship it as a single structured
RPC field instead of smuggling pieces through names and kwargs.
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

    # -- wire form (one structured field on the NFS RPC) --------------------

    def to_wire(self) -> dict[str, object]:
        """Compact dict form; omits defaulted fields to keep RPCs small.

        The context is frozen, so the encoded form is computed once and
        cached — a session's worth of NFS RPCs reuses one dict instead of
        rebuilding it per call.  Receivers treat the payload as read-only
        (:meth:`from_wire` only reads it), so sharing is safe.
        """
        cached = self.__dict__.get("_wire")
        if cached is not None:
            return cached
        wire: dict[str, object] = {}
        if self.cred.uid:
            wire["u"] = self.cred.uid
        if self.cred.gids:
            wire["g"] = list(self.cred.gids)
        if self.trace is not None:
            wire["t"] = self.trace.to_wire()
        if self.replica_hint is not None:
            wire["rh"] = self.replica_hint
        if self.no_cache:
            wire["nc"] = True
        object.__setattr__(self, "_wire", wire)
        return wire

    @classmethod
    def from_wire(cls, payload: object) -> "OpContext":
        """Rebuild a context from its wire form; malformed input degrades
        to the defaults rather than failing the whole RPC."""
        if not isinstance(payload, dict):
            return ROOT_CTX
        uid = payload.get("u", 0)
        gids = payload.get("g", ())
        try:
            cred = Credential(uid=int(uid), gids=tuple(int(g) for g in gids))
        except (TypeError, ValueError):
            cred = ROOT_CRED
        trace = TraceContext.from_wire(payload.get("t"))
        hint = payload.get("rh")
        return cls(
            cred=cred,
            trace=trace,
            replica_hint=hint if isinstance(hint, str) else None,
            no_cache=bool(payload.get("nc", False)),
        )


#: The default context: root identity, no trace, no hints.
ROOT_CTX = OpContext()
