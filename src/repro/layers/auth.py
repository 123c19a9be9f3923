"""A user-authentication vnode layer (paper Section 1's second example).

Enforces an access-control policy *above* whatever storage sits below —
without the storage layer knowing.  The policy is deliberately simple
(per-uid allow/deny plus read-only users); the point is architectural:
authentication slips into the stack as one more transparent layer.

A transparent layer can only classify what the interface lets it see,
which is why every request is an operation and none is a name.  Of the
Ficus extensions, ``insert``, ``remove_entry`` and ``set_policy`` are
checked as mutations and ``lookup_fh``/``lookup_dir`` as reads; the
session brackets and the attribute and sync planes pass unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PermissionDenied
from repro.vnode.interface import (
    ROOT_CTX,
    Credential,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
)
from repro.vnode.passthrough import NullLayer, PassthroughVnode


@dataclass
class AccessPolicy:
    """Who may do what through this layer."""

    #: uids allowed through at all (None = everyone)
    allowed_uids: set[int] | None = None
    #: uids restricted to read-only operations
    read_only_uids: set[int] = field(default_factory=set)
    #: uid 0 bypasses every check when True
    root_bypasses: bool = True

    def check(self, cred: Credential, mutating: bool) -> None:
        if self.root_bypasses and cred.uid == 0:
            return
        if self.allowed_uids is not None and cred.uid not in self.allowed_uids:
            raise PermissionDenied(f"uid {cred.uid} is not admitted by this layer")
        if mutating and cred.uid in self.read_only_uids:
            raise PermissionDenied(f"uid {cred.uid} is read-only through this layer")


class AuthLayer(NullLayer):
    """Pass-through layer that authenticates each credential."""

    layer_name = "auth"

    def __init__(self, lower: FileSystemLayer, policy: AccessPolicy, name: str = "auth"):
        super().__init__(lower, name=name)
        self.policy = policy
        self.denials = 0

    def wrap(self, lower: Vnode) -> "AuthVnode":
        return AuthVnode(self, lower)

    def check(self, cred: Credential, mutating: bool) -> None:
        try:
            self.policy.check(cred, mutating)
        except PermissionDenied:
            self.denials += 1
            raise


class AuthVnode(PassthroughVnode):
    """Checks the credential before forwarding each operation."""

    def __init__(self, layer: AuthLayer, lower: Vnode):
        super().__init__(layer, lower)
        self.layer: AuthLayer = layer

    # -- reads --

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        self.layer.check(ctx.cred, mutating=False)
        return super().read(offset, length, ctx)

    def getattr(self, ctx: OpContext = ROOT_CTX):
        self.layer.check(ctx.cred, mutating=False)
        return super().getattr(ctx)

    def readdir(self, ctx: OpContext = ROOT_CTX):
        self.layer.check(ctx.cred, mutating=False)
        return super().readdir(ctx)

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.check(ctx.cred, mutating=False)
        return super().lookup(name, ctx)

    def lookup_fh(self, fh, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.check(ctx.cred, mutating=False)
        return super().lookup_fh(fh, ctx)

    def lookup_dir(self, fh, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.check(ctx.cred, mutating=False)
        return super().lookup_dir(fh, ctx)

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        self.layer.check(ctx.cred, mutating=False)
        return super().readlink(ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        self.layer.check(ctx.cred, mutating=False)
        return super().access(mode, ctx)

    # -- mutations --

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        self.layer.check(ctx.cred, mutating=True)
        return super().write(offset, data, ctx)

    def truncate(self, size: int, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().truncate(size, ctx)

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().setattr(attrs, ctx)

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.check(ctx.cred, mutating=True)
        return super().create(name, perm, ctx)

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.check(ctx.cred, mutating=True)
        return super().mkdir(name, perm, ctx)

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().remove(name, ctx)

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().rmdir(name, ctx)

    def rename(self, src_name: str, dst_dir: Vnode, dst_name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().rename(src_name, dst_dir, dst_name, ctx)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().link(target, name, ctx)

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        self.layer.check(ctx.cred, mutating=True)
        return super().symlink(name, target, ctx)

    def insert(self, name: str, etype, *, ctx: OpContext = ROOT_CTX, **fields: object):
        self.layer.check(ctx.cred, mutating=True)
        return super().insert(name, etype, ctx=ctx, **fields)

    def remove_entry(self, eid, from_recon: bool = False, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().remove_entry(eid, from_recon, ctx)

    def set_policy(self, fh, tag: str, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.check(ctx.cred, mutating=True)
        super().set_policy(fh, tag, ctx)
