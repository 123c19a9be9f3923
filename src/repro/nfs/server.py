"""The NFS server: exports any vnode layer over the simulated network.

The server is stateless in the NFS sense: it holds no per-client open
state and no handle table, and every call is self-contained.  A handle is
the exported layer's own name for the object (``handle_for``), and each
call hands it back to that layer (``vnode_for``), which rebuilds the vnode
or answers ESTALE when the object is gone.  Nothing maps a handle to a
vnode, so a handle stays valid across a reboot of the server host.

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

So one rule serves every carried operation: resolve the handles, call the
exported vnode's operation of the same name, and answer a vnode with its
handle and attributes.
"""

from __future__ import annotations

import inspect

from repro.net import Network
from repro.nfs.protocol import CARRIED_OPERATIONS, LookupReply, NfsHandle
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.vnode.interface import ROOT_CTX, FileSystemLayer, OpContext, Vnode


class NfsServer:
    """Exports one vnode layer as an RPC service.

    The exported layer makes and resolves the handles
    (:meth:`FileSystemLayer.handle_for`, :meth:`FileSystemLayer.vnode_for`);
    the server keeps none of them.
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
        network.register_rpc(addr, f"{service}.root", self._traced("root", self._serve_root))
        for op in CARRIED_OPERATIONS:
            network.register_rpc(addr, f"{service}.{op}", self._traced(op, self._carry(op)))

    def _traced(self, op: str, inner):
        """Wrap one RPC op: when this server traces, parent a server-side
        span on the operation context's trace."""

        def handler(*args: object, ctx: OpContext = ROOT_CTX, **kwargs: object) -> object:
            telemetry = self.telemetry
            if ctx.trace is None or not telemetry.enabled:
                return inner(*args, ctx=ctx, **kwargs)
            with telemetry.tracer.span(
                f"nfs.{op}",
                layer="nfs-server",
                host=self.addr,
                parent=ctx.trace,
            ):
                return inner(*args, ctx=ctx, **kwargs)

        return handler

    # -- RPC operation handlers ----------------------------------------------

    def _reply(self, child: Vnode, ctx: OpContext) -> LookupReply:
        """A vnode-valued reply: the child's handle plus its attributes."""
        return LookupReply(NfsHandle(self.exported.handle_for(child)), child.getattr(ctx))

    def _serve_root(self, ctx: OpContext = ROOT_CTX) -> LookupReply:
        return self._reply(self.exported.root(), ctx)

    def _carry(self, op: str):
        """The handler of one carried operation, shaped once from the
        operation's signature in :class:`Vnode`.

        The first argument is the handle of the vnode addressed.  Every
        argument the interface types as a vnode (the ``link`` target, the
        ``rename`` destination) arrives as a handle and is resolved in
        place, and a vnode reply goes back as a :class:`LookupReply`.
        ``setattr`` answers with the fresh attributes and ``write`` with
        ``(written, attributes)`` (NFSv3's post-op attributes), so the
        client's attribute cache is refreshed in the same round trip.
        """
        signature = inspect.signature(getattr(Vnode, op))
        params = list(signature.parameters.values())[1:]  # after self
        handles_at = [i for i, p in enumerate(params) if _names_vnode(p.annotation)]
        replies_vnode = _names_vnode(signature.return_annotation)

        def serve(handle: NfsHandle, *args: object, ctx: OpContext = ROOT_CTX, **kwargs: object):
            vnode_for = self.exported.vnode_for
            vnode = vnode_for(handle.key)
            if handles_at:
                args = list(args)
                for i in handles_at:
                    args[i] = vnode_for(args[i].key)
            reply = getattr(vnode, op)(*args, ctx=ctx, **kwargs)
            if replies_vnode:
                return self._reply(reply, ctx)
            if op == "setattr":
                return vnode.getattr(ctx)
            if op == "write":
                return reply, vnode.getattr(ctx)
            return reply

        return serve


def _names_vnode(annotation: str) -> bool:
    """Whether an annotation of the interface names a vnode.  The interface
    postpones its annotations, so each is the string it was written as —
    a forward reference keeps its own quotes."""
    return annotation.strip("'\"") == "Vnode"
