"""NFS wire protocol types.

NFS "is essentially a host-to-host transport service with a vnode
interface" (paper Section 2.2) — but a *stateless* one.  The protocol
identifies files by opaque handles, each the exported layer's own name for
the object, and defines no open/close calls at all; those vnode operations
simply vanish at the client ("a layer intending to receive an open will
never get it if NFS is in between").

These are the protocol's own types.  Everything else a call carries — the
operation context, Ficus file handles, entry ids, attribute batches,
directory rows — is a value of the layers on either side and crosses as it
is; nothing is encoded for the hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.ufs.inode import FileAttributes
from repro.vnode.interface import Vnode

#: Vnode operations that the NFS protocol has no call for.  The client
#: accepts them and drops them on the floor — which is why an update
#: session opens with its first write (``OpContext.session``) and the
#: protocol grew an explicit ``session_close`` call (the original Ficus
#: smuggled open and close through ``lookup``, paper Section 2.3).
DROPPED_OPERATIONS = ("open", "close")

#: Vnode operations that never leave a host: the client answers them
#: itself (``access`` from its attributes, ``fsync`` because writes are
#: write-through, ``inactive`` by dropping its cache entries) or not at all.
LOCAL_OPERATIONS = ("ioctl", "select", "access", "fsync", "inactive", "bmap")

#: Every other vnode operation crosses the hop as one RPC of its name.
CARRIED_OPERATIONS = tuple(
    op for op in Vnode.OPERATIONS if op not in DROPPED_OPERATIONS + LOCAL_OPERATIONS
)


class NfsHandle(NamedTuple):
    """Opaque stateless file handle: what the exported layer's
    ``handle_for`` named the object by, handed back to its ``vnode_for``
    unread (:class:`~repro.vnode.interface.FileSystemLayer`).

    The key names the object, never a server-side table slot, so a handle
    outlives a server reboot; the layer refuses a key whose object is gone
    with ESTALE — UFS by the inode generation its key carries, so a
    deleted file's handle never addresses the file that reuses its inode.
    """

    key: tuple


@dataclass(frozen=True)
class LookupReply:
    """lookup returns the child handle plus its attributes (as NFS does,
    to prime the client attribute cache in one round trip)."""

    handle: NfsHandle
    attrs: FileAttributes
