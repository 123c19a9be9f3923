"""NFS wire protocol types.

NFS "is essentially a host-to-host transport service with a vnode
interface" (paper Section 2.2) — but a *stateless* one.  The protocol
identifies files by opaque handles (fileid + generation) and defines no
open/close calls at all; those vnode operations simply vanish at the
client ("a layer intending to receive an open will never get it if NFS is
in between").

These are the protocol's own types.  Everything else a call carries — the
operation context, Ficus file handles, entry ids, attribute batches,
directory rows — is a value of the layers on either side and crosses as it
is; nothing is encoded for the hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ufs.inode import FileAttributes

#: Vnode operations that the NFS protocol has no call for.  The client
#: accepts them and drops them on the floor — which is why the protocol
#: grew explicit ``session_open``/``session_close`` calls instead (the
#: original Ficus smuggled them through ``lookup``, paper Section 2.3).
DROPPED_OPERATIONS = ("open", "close")


@dataclass(frozen=True)
class NfsHandle:
    """Opaque stateless file handle: survives server reboot, detects reuse.

    ``generation`` guards against the classic stale-handle problem: if the
    object is deleted and its fileid reused, the old handle must fail with
    ESTALE rather than address the new object.
    """

    fileid: int
    generation: int


@dataclass(frozen=True)
class LookupReply:
    """lookup returns the child handle plus its attributes (as NFS does,
    to prime the client attribute cache in one round trip)."""

    handle: NfsHandle
    attrs: FileAttributes
