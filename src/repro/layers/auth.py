"""A user-authentication vnode layer (paper Section 1's second example).

Enforces an access-control policy *above* whatever storage sits below —
without the storage layer knowing.  The policy is deliberately simple
(per-uid allow/deny plus read-only users); the point is architectural:
authentication slips into the stack as one more transparent layer.

A transparent layer can only classify what the interface lets it see,
which is why every request is an operation and none is a name.  Of the
Ficus extensions, ``insert`` and ``remove_entry`` are checked as mutations
(a merge-policy tag is a ``setattr`` field, so it is one too).  The rest
are checked as reads: ``lookup_fh``, the attribute and sync planes, and
``session_close``, which ends a session and changes nothing.  Only the
operations that never reach a replica's data pass unchecked.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field

from repro.errors import PermissionDenied
from repro.vnode.interface import ROOT_CTX, Credential, FileSystemLayer, Vnode
from repro.vnode.passthrough import NullLayer, PassthroughVnode

#: operations checked as reads: a read-only uid may issue them
READS = ("read", "getattr", "readdir", "lookup", "lookup_fh", "readlink", "access")
READS += ("session_close", "getattrs_batch", "sync_probe", "read_blocks")

#: operations checked as mutations: a read-only uid is refused them
MUTATIONS = ("write", "setattr", "create", "mkdir", "remove", "rmdir", "rename", "link", "symlink")
MUTATIONS += ("insert", "remove_entry")


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

    layer: AuthLayer


def _checked(op: str, mutating: bool):
    """Check the caller's credential, then ``PassthroughVnode.<op>``.

    ``ctx`` may arrive by keyword or in its place among the positional
    arguments, so both are read.
    """
    forward = vars(PassthroughVnode)[op]
    at = list(inspect.signature(forward).parameters).index("ctx") - 1  # after self

    @functools.wraps(forward)
    def checked(self: AuthVnode, *args, **kwargs):
        ctx = kwargs.get("ctx", args[at] if len(args) > at else ROOT_CTX)
        self.layer.check(ctx.cred, mutating)
        return forward(self, *args, **kwargs)

    return checked


for _op in READS + MUTATIONS:
    setattr(AuthVnode, _op, _checked(_op, mutating=_op in MUTATIONS))
del _op
