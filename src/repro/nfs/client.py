"""The NFS client: a vnode layer whose storage is a remote NFS server.

Because the client presents the same vnode interface it consumes, "any
layer that uses a vnode interface can be unaware whether the immediately
adjacent functional layers are local, or perhaps remote and accessed via an
intervening NFS layer" (paper Section 2.2).

Two deliberate infidelities of real NFS are reproduced because the paper's
design reacts to them:

* **open/close are dropped.**  The protocol has no such calls; the client
  accepts them as no-ops and never forwards them.  The original Ficus
  smuggled open/close through ``lookup`` (Section 2.3, experiment E10);
  our protocol instead forwards every Ficus vnode operation by name, so
  no request rides a name, and passes its arguments and reply — Ficus
  handles, attribute batches, directory rows, the operation context — as
  the objects they are.
* **Caching is not fully controllable.**  The client keeps an attribute
  cache and a directory-name-lookup cache with time-based expiry ("there is
  no user-level way to disable all caching"), so upper layers can observe
  bounded staleness exactly as Ficus had to tolerate.  The two lookups
  (``lookup`` by name, ``lookup_fh`` by Ficus file handle) share that
  cache and its rules; mutations are never answered from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import HostUnreachable, RpcTimeout, StaleFileHandle
from repro.net import Network
from repro.nfs.protocol import LookupReply, NfsHandle
from repro.physical.wire import AttrBatch, AuxAttributes, FileBlocks, SyncProbe
from repro.telemetry import NULL_TELEMETRY, HealthPlane, Telemetry, spanned
from repro.ufs.inode import FileAttributes
from repro.util import VirtualClock
from repro.vnode.interface import (
    ROOT_CTX,
    DirEntry,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
    unix_permits,
)


@dataclass
class NfsClientConfig:
    """Client tunables (matching SunOS defaults in spirit)."""

    #: Attribute and name cache lifetime in (virtual) seconds; 0 disables
    #: both.
    cache_ttl: float = 3.0


#: RPC retransmissions before giving up with ETIMEDOUT.
RETRIES = 2
#: First retransmission delay (virtual seconds); doubles per attempt.
BACKOFF_BASE = 0.05
#: Ceiling on any single retransmission delay.
BACKOFF_MAX = 1.0


#: Operations whose replay after an ambiguous failure is NOT safe: the
#: server mints fresh entry/file ids per request, so a retransmission
#: after a lost *reply* would commit the operation twice (two live
#: entries, two files) — a Ficus ``insert`` leaves its ids blank for
#: the applying replica to mint, exactly like the creates.
#: Everything else in the protocol is idempotent — reads trivially, and
#: the other Ficus mutations by construction (``remove_entry`` is keyed
#: on the entry id it carries, writes carry absolute offsets, a session is
#: open or not so a replayed bracket is a no-op, and a ``setattr`` sets
#: the same values again).
NON_IDEMPOTENT_OPS = frozenset({"create", "mkdir", "symlink", "link", "insert"})


class NfsClientLayer(FileSystemLayer):
    """A vnode layer forwarding operations to a remote NFS server."""

    layer_name = "nfs-client"

    def __init__(
        self,
        network: Network,
        client_addr: str,
        server_addr: str,
        service: str = "nfs",
        config: NfsClientConfig | None = None,
        telemetry: Telemetry | None = None,
        health=None,
    ):
        self.network = network
        self.client_addr = client_addr
        self.server_addr = server_addr
        self.service = service
        self.config = config or NfsClientConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        # stable per Telemetry hub — bound once to shorten the per-RPC path
        self._tracer = self.telemetry.tracer
        #: the client host's HealthPlane; an ambiguous non-idempotent
        #: timeout (executed? reply lost?) fires its anomaly recorder
        self.health: HealthPlane = health or HealthPlane(
            client_addr, clock=network.clock.now, telemetry=self.telemetry
        )
        self._attr_cache: dict[NfsHandle, tuple[float, FileAttributes]] = {}
        #: (directory handle, lookup op, name or Ficus handle) -> reply
        self._name_cache: dict[tuple[NfsHandle, str, object], tuple[float, LookupReply]] = {}
        #: RPC retransmissions sent
        self.retries = 0
        self.telemetry.metrics.add_source("nfs", lambda: {"retries": self.retries})

    @property
    def clock(self) -> VirtualClock:
        return self.network.clock

    # -- RPC plumbing ------------------------------------------------------

    @spanned(
        lambda self, op, *args, **kwargs: f"nfs.{op}",
        layer="nfs-client",
        host="client_addr",
        tags=lambda self, *args, **kwargs: {"server": self.server_addr},
    )
    def call(self, op: str, *args: object, ctx: OpContext = ROOT_CTX, **kwargs: object) -> object:
        """Issue one NFS RPC with retransmission.

        The operation context travels as the call's ``ctx`` keyword, the
        frozen value itself — credential, trace parentage and hints in one
        argument instead of per-purpose side channels; any other keyword
        argument of the operation crosses as a keyword too.  With tracing
        enabled, the whole call (including retransmissions) is one
        ``nfs-client`` span whose context replaces ``ctx.trace``, stitching
        client and server trees.
        """
        span_ctx = self._tracer.current_context()
        if span_ctx is not None:
            ctx = ctx.with_trace(span_ctx)
        return self._call_with_retries(op, args, kwargs, ctx)

    def _call_with_retries(
        self,
        op: str,
        args: tuple[object, ...],
        kwargs: dict[str, object],
        ctx: OpContext,
    ) -> object:
        """Retransmit with bounded exponential backoff — idempotent ops only.

        Two failure shapes surface from the transport and they demand
        different treatment:

        * :class:`HostUnreachable` (not its RpcTimeout subclass) is raised
          by the reachability check *before* dispatch — the server
          definitively did not execute, so any operation may retransmit.
        * :class:`RpcTimeout` is ambiguous: the request may have been lost
          (not executed) or the reply lost (executed).  Only idempotent
          operations may retransmit; replaying an id-minting operation
          after a lost reply would commit it twice.

        ServiceUnavailable (peer up, nothing exported) is a configuration
        error and is never retried.
        """
        may_replay_ambiguous = op not in NON_IDEMPOTENT_OPS
        last_error: Exception | None = None
        for attempt in range(RETRIES + 1):
            if attempt:
                # bounded exponential backoff between retransmissions
                self.clock.advance(min(BACKOFF_MAX, BACKOFF_BASE * 2 ** (attempt - 1)))
                self.retries += 1
                self._tracer.tag_current("retries", attempt)
            try:
                return self.network.rpc(
                    self.client_addr,
                    self.server_addr,
                    f"{self.service}.{op}",
                    *args,
                    ctx=ctx,
                    **kwargs,
                )
            except RpcTimeout as exc:
                if not may_replay_ambiguous:
                    # the most dangerous failure shape in the protocol:
                    # the server may or may not have minted fresh ids
                    self.health.anomaly("ambiguous_timeout", op=op, server=self.server_addr)
                    raise  # the server may already have executed this
                last_error = exc
            except HostUnreachable as exc:
                # definitively-not-executed transport error: anything may
                # retransmit (exact class: its RpcTimeout subclass is
                # handled above and application errors must propagate)
                if type(exc) is not HostUnreachable:
                    raise
                last_error = exc
        raise RpcTimeout(f"{op}: server {self.server_addr} unreachable") from last_error

    # -- caches ------------------------------------------------------------------

    def _cache_attrs(self, handle: NfsHandle, attrs: FileAttributes) -> None:
        if self.config.cache_ttl > 0:
            self._attr_cache[handle] = (self.clock.now(), attrs)

    def _cached_attrs(self, handle: NfsHandle) -> FileAttributes | None:
        entry = self._attr_cache.get(handle)
        if entry is None:
            return None
        when, attrs = entry
        if self.clock.now() - when > self.config.cache_ttl:
            del self._attr_cache[handle]
            return None
        return attrs

    def _cache_name(self, handle: NfsHandle, name, reply: LookupReply, op: str = "lookup") -> None:
        if self.config.cache_ttl > 0:
            self._name_cache[(handle, op, name)] = (self.clock.now(), reply)

    def _cached_name(self, handle: NfsHandle, name, op: str = "lookup") -> LookupReply | None:
        entry = self._name_cache.get((handle, op, name))
        if entry is None:
            return None
        when, reply = entry
        if self.clock.now() - when > self.config.cache_ttl:
            del self._name_cache[(handle, op, name)]
            return None
        return reply

    def invalidate_handle(self, handle: NfsHandle) -> None:
        self._attr_cache.pop(handle, None)
        stale = [key for key in self._name_cache if key[0] == handle]
        for key in stale:
            del self._name_cache[key]

    def note_stale(self, handle: NfsHandle) -> None:
        """The server said ESTALE: purge every cache trace of the handle.

        This covers both directions: attributes OF the handle, names
        looked up THROUGH it, and cached lookup replies that RESOLVED to
        it (an object removed at the server: a handle outlives a reboot).
        """
        self.invalidate_handle(handle)
        resolved_to = [
            key for key, (_, reply) in self._name_cache.items() if reply.handle == handle
        ]
        for key in resolved_to:
            del self._name_cache[key]

    def call_h(
        self, handle: NfsHandle, op: str, *args: object, ctx: OpContext = ROOT_CTX, **kwargs: object
    ) -> object:
        """Issue an RPC whose first argument is ``handle``; on ESTALE the
        caches are scrubbed before the error propagates, so the caller's
        retry re-lookups instead of replaying the dead handle."""
        try:
            return self.call(op, handle, *args, ctx=ctx, **kwargs)
        except StaleFileHandle:
            self.note_stale(handle)
            raise

    def flush_caches(self) -> None:
        """Drop all cached state (there is deliberately no *partial* knob,
        mirroring the paper's complaint about SunOS NFS)."""
        self._attr_cache.clear()
        self._name_cache.clear()

    # -- layer interface ---------------------------------------------------------

    def root(self) -> "NfsClientVnode":
        reply = self.call("root")
        assert isinstance(reply, LookupReply)
        self._cache_attrs(reply.handle, reply.attrs)
        return NfsClientVnode(self, reply.handle)


class NfsClientVnode(Vnode):
    """A vnode addressing a remote object via an NFS handle."""

    def __init__(self, layer: NfsClientLayer, handle: NfsHandle):
        self.layer = layer
        self.handle = handle

    def _wrap(self, reply: LookupReply) -> "NfsClientVnode":
        self.layer._cache_attrs(reply.handle, reply.attrs)
        return NfsClientVnode(self.layer, reply.handle)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NfsClientVnode)
            and other.layer is self.layer
            and other.handle == self.handle
        )

    def __hash__(self) -> int:
        return hash((id(self.layer), self.handle))

    # -- dropped operations (the NFS semantic gap, paper Section 2.2) --

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        """Accepted and DROPPED: the NFS protocol has no open call.

        "the vnode services open and close are not supported by the NFS
        definition, and so are ignored: a layer intending to receive an
        open will never get it if NFS is in between."
        """

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        """Accepted and DROPPED, exactly like :meth:`open`."""

    def inactive(self) -> None:
        self.layer.invalidate_handle(self.handle)

    # -- Ficus extensions: forwarded explicitly (unlike open/close) --

    def session_close(self, fh, ctx: OpContext = ROOT_CTX) -> AuxAttributes | None:
        return self.layer.call_h(self.handle, "session_close", fh, ctx=ctx)

    def getattrs_batch(self, fhs=None, ctx: OpContext = ROOT_CTX) -> AttrBatch:
        return self.layer.call_h(self.handle, "getattrs_batch", fhs, ctx=ctx)

    def sync_probe(self, fh=None, ctx: OpContext = ROOT_CTX) -> SyncProbe:
        return self.layer.call_h(self.handle, "sync_probe", fh, ctx=ctx)

    def read_blocks(self, fh, have: list[str], ctx: OpContext = ROOT_CTX) -> FileBlocks:
        reply = self.layer.call_h(self.handle, "read_blocks", fh, have, ctx=ctx)
        faults = self.layer.network.faults
        if faults.active:
            # block payloads can be corrupted in flight; the puller checks
            # each against the digest sent with it
            corrupt = faults.maybe_corrupt_block
            client, server = self.layer.client_addr, self.layer.server_addr
            reply = replace(
                reply,
                blocks={
                    index: (digest, corrupt(client, server, data))
                    for index, (digest, data) in reply.blocks.items()
                },
            )
        return reply

    # -- attributes --

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        cached = None if ctx.no_cache else self.layer._cached_attrs(self.handle)
        if cached is not None:
            return cached
        attrs = self.layer.call_h(self.handle, "getattr", ctx=ctx)
        assert isinstance(attrs, FileAttributes)
        self.layer._cache_attrs(self.handle, attrs)
        return attrs

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        fresh = self.layer.call_h(self.handle, "setattr", attrs, ctx=ctx)
        assert isinstance(fresh, FileAttributes)
        self.layer._cache_attrs(self.handle, fresh)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return unix_permits(self.getattr(ctx), ctx.cred, mode)

    # -- data --

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        data = self.layer.call_h(self.handle, "read", offset, length, ctx=ctx)
        assert isinstance(data, bytes)
        return data

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        """The reply carries the attributes the write left (NFSv3's post-op
        attributes), which replace the cached ones: a ``getattr`` after a
        write sends nothing."""
        written, attrs = self.layer.call_h(self.handle, "write", offset, data, ctx=ctx)
        assert isinstance(written, int) and isinstance(attrs, FileAttributes)
        self.layer._cache_attrs(self.handle, attrs)
        return written

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        """NFS writes in this simulation are write-through already."""

    # -- namespace --

    def _lookup(self, op: str, key, ctx: OpContext) -> Vnode:
        """One of the two lookups — by name or by Ficus file handle, a
        frozen value that crosses as it is — through the name cache."""
        cached = self.layer._cached_name(self.handle, key, op)
        if cached is not None:
            return NfsClientVnode(self.layer, cached.handle)
        reply = self.layer.call_h(self.handle, op, key, ctx=ctx)
        assert isinstance(reply, LookupReply)
        self.layer._cache_name(self.handle, key, reply, op)
        return self._wrap(reply)

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._lookup("lookup", name, ctx)

    def lookup_fh(self, fh, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._lookup("lookup_fh", fh, ctx)

    def insert(self, name: str, etype, *, ctx: OpContext = ROOT_CTX, **fields: object):
        entry = self.layer.call_h(self.handle, "insert", name, etype, ctx=ctx, **fields)
        self.layer.invalidate_handle(self.handle)
        return entry

    def remove_entry(self, eid, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.call_h(self.handle, "remove_entry", eid, ctx=ctx)
        self.layer.invalidate_handle(self.handle)

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        reply = self.layer.call_h(self.handle, "create", name, perm, ctx=ctx)
        assert isinstance(reply, LookupReply)
        self.layer.invalidate_handle(self.handle)
        self.layer._cache_name(self.handle, name, reply)
        return self._wrap(reply)

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.call_h(self.handle, "remove", name, ctx=ctx)
        self.layer.invalidate_handle(self.handle)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        if not isinstance(target, NfsClientVnode):
            raise StaleFileHandle("link target is not an NFS vnode")
        self.layer.call("link", self.handle, target.handle, name, ctx=ctx)
        self.layer.invalidate_handle(self.handle)
        self.layer.invalidate_handle(target.handle)

    def rename(
        self,
        src_name: str,
        dst_dir: Vnode,
        dst_name: str,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        if not isinstance(dst_dir, NfsClientVnode):
            raise StaleFileHandle("rename destination is not an NFS vnode")
        self.layer.call("rename", self.handle, src_name, dst_dir.handle, dst_name, ctx=ctx)
        self.layer.invalidate_handle(self.handle)
        self.layer.invalidate_handle(dst_dir.handle)

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        reply = self.layer.call_h(self.handle, "mkdir", name, perm, ctx=ctx)
        assert isinstance(reply, LookupReply)
        self.layer.invalidate_handle(self.handle)
        return self._wrap(reply)

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.call_h(self.handle, "rmdir", name, ctx=ctx)
        self.layer.invalidate_handle(self.handle)

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        return self.layer.call_h(self.handle, "readdir", ctx=ctx)

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        reply = self.layer.call_h(self.handle, "symlink", name, target, ctx=ctx)
        assert isinstance(reply, LookupReply)
        self.layer.invalidate_handle(self.handle)
        return self._wrap(reply)

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        text = self.layer.call_h(self.handle, "readlink", ctx=ctx)
        assert isinstance(text, str)
        return text

    def __repr__(self) -> str:
        return f"NfsClientVnode({self.layer.server_addr}, {self.handle.key})"
