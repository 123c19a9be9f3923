"""The NFS server: exports any vnode layer over the simulated network.

The server is stateless in the NFS sense: it holds no per-client open
state, every call is self-contained, and file handles remain valid across
"reboots" of the server process (handles embed fileid + generation and are
re-validated on every call).

Ficus uses this to place its logical and physical layers on different
hosts: "The Ficus replication service layers are able to use NFS for
transparent access to remote layers, without having to build a transport
service" (paper Section 2.2).

Every RPC carries the caller's :class:`~repro.vnode.context.OpContext` —
credential, trace parentage, hints — as its ``ctx`` keyword, and the server
threads that same value into the exported layer's vnode operations.  The
arguments and replies of the Ficus operations cross the same way: the
server decodes and encodes nothing.  That rests on one rule (ARCHITECTURE.md
"The vnode operations"): a layer replies only with objects it does not
keep, and no receiver mutates what it received.
"""

from __future__ import annotations

from repro.errors import StaleFileHandle
from repro.net import Network
from repro.nfs.protocol import LookupReply, NfsHandle
from repro.physical.wire import AttrBatch, BlockDigests, SyncProbe
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.ufs.inode import FileAttributes
from repro.vnode.interface import (
    ROOT_CTX,
    DirEntry,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
)


class NfsServer:
    """Exports one vnode layer as an RPC service.

    The exported layer should provide ``vnode_for(fileid)`` so that handles
    can be re-materialized statelessly; a small handle table is kept purely
    as a cache and can be dropped at any time (see :meth:`reboot`).
    """

    def __init__(
        self,
        network: Network,
        addr: str,
        exported: FileSystemLayer,
        service: str = "nfs",
        telemetry: Telemetry | None = None,
    ):
        self.network = network
        self.addr = addr
        self.exported = exported
        self.service = service
        self.telemetry = telemetry or NULL_TELEMETRY
        self._vnode_cache: dict[int, Vnode] = {}
        for op in (
            "root",
            "getattr",
            "setattr",
            "lookup",
            "read",
            "write",
            "truncate",
            "create",
            "remove",
            "link",
            "rename",
            "mkdir",
            "rmdir",
            "readdir",
            "symlink",
            "readlink",
            "session_open",
            "session_close",
            "getattrs_batch",
            "sync_probe",
            "block_digests",
            "read_blocks",
            "lookup_fh",
            "lookup_dir",
            "insert",
            "remove_entry",
            "set_policy",
        ):
            network.register_rpc(addr, f"{service}.{op}", self._make_handler(op))

    def _make_handler(self, op: str):
        """Wrap one RPC op: when this server traces, parent a server-side
        span on the operation context's trace."""
        inner = getattr(self, f"_serve_{op}")

        def handler(*args: object, ctx: OpContext = ROOT_CTX) -> object:
            telemetry = self.telemetry
            if ctx.trace is None or not telemetry.enabled:
                return inner(*args, ctx=ctx)
            with telemetry.tracer.span(
                f"nfs.{op}",
                layer="nfs-server",
                host=self.addr,
                parent=ctx.trace,
            ):
                return inner(*args, ctx=ctx)

        return handler

    # -- handle management -----------------------------------------------

    def _handle_for(self, vnode: Vnode) -> NfsHandle:
        attrs = vnode.getattr()
        self._vnode_cache[attrs.fileid] = vnode
        return NfsHandle(fileid=attrs.fileid, generation=attrs.generation)

    def _resolve(self, handle: NfsHandle) -> Vnode:
        """Re-materialize a vnode from a handle; ESTALE when it is gone."""
        vnode = self._vnode_cache.get(handle.fileid)
        if vnode is None:
            rematerialize = getattr(self.exported, "vnode_for", None)
            if rematerialize is None:
                raise StaleFileHandle(f"no vnode for fileid {handle.fileid}")
            try:
                vnode = rematerialize(handle.fileid)
            except Exception as exc:
                raise StaleFileHandle(str(exc)) from exc
            self._vnode_cache[handle.fileid] = vnode
        attrs = vnode.getattr()
        if attrs.generation != handle.generation:
            self._vnode_cache.pop(handle.fileid, None)
            raise StaleFileHandle(
                f"fileid {handle.fileid}: generation {handle.generation} superseded by {attrs.generation}"
            )
        return vnode

    def reboot(self) -> None:
        """Simulate a server restart: the handle cache vanishes.

        Statelessness means clients must not notice (their handles are
        re-materialized via ``vnode_for`` on the next call).
        """
        self._vnode_cache.clear()

    # -- RPC operation handlers ----------------------------------------------

    def _reply(self, child: Vnode, ctx: OpContext) -> LookupReply:
        """A vnode-valued reply: the child's handle plus its attributes."""
        return LookupReply(self._handle_for(child), child.getattr(ctx))

    def _serve_root(self, ctx: OpContext = ROOT_CTX) -> LookupReply:
        return self._reply(self.exported.root(), ctx)

    def _serve_getattr(self, handle: NfsHandle, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self._resolve(handle).getattr(ctx)

    def _serve_setattr(
        self, handle: NfsHandle, attrs: SetAttrs, ctx: OpContext = ROOT_CTX
    ) -> FileAttributes:
        vnode = self._resolve(handle)
        vnode.setattr(attrs, ctx)
        return vnode.getattr(ctx)

    def _serve_lookup(self, handle: NfsHandle, name: str, ctx: OpContext = ROOT_CTX) -> LookupReply:
        return self._reply(self._resolve(handle).lookup(name, ctx), ctx)

    def _serve_read(
        self, handle: NfsHandle, offset: int, length: int, ctx: OpContext = ROOT_CTX
    ) -> bytes:
        return self._resolve(handle).read(offset, length, ctx)

    def _serve_write(
        self, handle: NfsHandle, offset: int, data: bytes, ctx: OpContext = ROOT_CTX
    ) -> int:
        return self._resolve(handle).write(offset, data, ctx)

    def _serve_truncate(self, handle: NfsHandle, size: int, ctx: OpContext = ROOT_CTX) -> None:
        self._resolve(handle).truncate(size, ctx)

    def _serve_create(
        self, handle: NfsHandle, name: str, perm: int, ctx: OpContext = ROOT_CTX
    ) -> LookupReply:
        return self._reply(self._resolve(handle).create(name, perm, ctx), ctx)

    def _serve_remove(self, handle: NfsHandle, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self._resolve(handle).remove(name, ctx)

    def _serve_link(
        self, dir_handle: NfsHandle, target: NfsHandle, name: str, ctx: OpContext = ROOT_CTX
    ) -> None:
        self._resolve(dir_handle).link(self._resolve(target), name, ctx)

    def _serve_rename(
        self,
        src_dir: NfsHandle,
        src_name: str,
        dst_dir: NfsHandle,
        dst_name: str,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        self._resolve(src_dir).rename(src_name, self._resolve(dst_dir), dst_name, ctx)

    def _serve_mkdir(
        self, handle: NfsHandle, name: str, perm: int, ctx: OpContext = ROOT_CTX
    ) -> LookupReply:
        return self._reply(self._resolve(handle).mkdir(name, perm, ctx), ctx)

    def _serve_rmdir(self, handle: NfsHandle, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self._resolve(handle).rmdir(name, ctx)

    def _serve_readdir(self, handle: NfsHandle, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        return self._resolve(handle).readdir(ctx)

    def _serve_symlink(
        self, handle: NfsHandle, name: str, target: str, ctx: OpContext = ROOT_CTX
    ) -> LookupReply:
        return self._reply(self._resolve(handle).symlink(name, target, ctx), ctx)

    def _serve_readlink(self, handle: NfsHandle, ctx: OpContext = ROOT_CTX) -> str:
        return self._resolve(handle).readlink(ctx)

    # -- Ficus extensions ------------------------------------------------------

    def _serve_session_open(self, handle: NfsHandle, fh, ctx: OpContext = ROOT_CTX) -> None:
        self._resolve(handle).session_open(fh, ctx)

    def _serve_session_close(self, handle: NfsHandle, fh, ctx: OpContext = ROOT_CTX) -> bool:
        return self._resolve(handle).session_close(fh, ctx)

    def _serve_getattrs_batch(self, handle: NfsHandle, fhs, ctx: OpContext = ROOT_CTX) -> AttrBatch:
        return self._resolve(handle).getattrs_batch(fhs, ctx)

    def _serve_sync_probe(self, handle: NfsHandle, fh, ctx: OpContext = ROOT_CTX) -> SyncProbe:
        return self._resolve(handle).sync_probe(fh, ctx)

    def _serve_block_digests(self, handle: NfsHandle, fh, ctx: OpContext = ROOT_CTX) -> BlockDigests:
        return self._resolve(handle).block_digests(fh, ctx)

    def _serve_read_blocks(
        self, handle: NfsHandle, fh, indices: list[int], ctx: OpContext = ROOT_CTX
    ) -> dict[int, bytes]:
        return self._resolve(handle).read_blocks(fh, indices, ctx)

    # the five replica-addressed operations

    def _serve_lookup_fh(self, handle: NfsHandle, fh, ctx: OpContext = ROOT_CTX) -> LookupReply:
        return self._reply(self._resolve(handle).lookup_fh(fh, ctx), ctx)

    def _serve_lookup_dir(self, handle: NfsHandle, fh, ctx: OpContext = ROOT_CTX) -> LookupReply:
        return self._reply(self._resolve(handle).lookup_dir(fh, ctx), ctx)

    def _serve_insert(self, handle: NfsHandle, name: str, etype, fields, ctx: OpContext = ROOT_CTX):
        return self._resolve(handle).insert(name, etype, ctx=ctx, **fields)

    def _serve_remove_entry(self, handle: NfsHandle, eid, from_recon, ctx: OpContext = ROOT_CTX) -> None:
        self._resolve(handle).remove_entry(eid, from_recon, ctx)

    def _serve_set_policy(self, handle: NfsHandle, fh, tag: str, ctx: OpContext = ROOT_CTX) -> None:
        self._resolve(handle).set_policy(fh, tag, ctx)
