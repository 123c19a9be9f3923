"""The vnode interface (paper Section 2.1).

"The vnode interface is defined by a set of about two dozen services,
together with their calling syntax and parameters."  We reproduce that
contract: :class:`Vnode` declares the operations, and every layer — UFS,
NFS client, Ficus physical, Ficus logical — implements the *same* interface
above and below, which is what makes the layers stackable.

The symmetric-interface property is the whole point: a layer cannot tell
whether the layer beneath it is local UFS, another Ficus layer, or an NFS
hop to a different host.

Every operation takes an :class:`~repro.vnode.context.OpContext` carrying
identity, trace parentage, and cache-control flags; see that module.  The
interface also carries the operations the original SunOS set lacked but
Ficus needs (the paper smuggled its two through ``lookup`` names; our NFS
forwards them): ``session_open``/``session_close``, the attribute and sync
planes, and the replica-addressed directory operations ``lookup_fh``/
``lookup_dir``/``insert``/``remove_entry``/``set_policy``.  An operation's
arguments are data; ``lookup`` takes names and nothing else.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import NotSupported
from repro.ufs.inode import FileAttributes, FileType
from repro.vnode.context import ROOT_CRED, ROOT_CTX, Credential, OpContext

if TYPE_CHECKING:
    from repro.physical.wire import (
        AttrBatch,
        BlockDigests,
        DirectoryEntry,
        EntryId,
        EntryType,
        SyncProbe,
    )
    from repro.util import FicusFileHandle

__all__ = [
    "Credential",
    "ROOT_CRED",
    "OpContext",
    "ROOT_CTX",
    "DirEntry",
    "SetAttrs",
    "Vnode",
    "read_whole",
    "unix_permits",
    "FileSystemLayer",
]


@dataclass(frozen=True)
class DirEntry:
    """One readdir result row."""

    name: str
    fileid: int
    ftype: FileType


@dataclass
class SetAttrs:
    """Fields settable via setattr; ``None`` means "leave unchanged"."""

    perm: int | None = None
    uid: int | None = None
    size: int | None = None


class Vnode(abc.ABC):
    """One file-system object as seen through the vnode interface.

    Concrete layers subclass this.  The default implementation of every
    operation raises :class:`~repro.errors.NotSupported`, mirroring a vnode
    ops vector with missing entries; layers override what they support.
    """

    #: Operations comprising the interface ("about two dozen services").
    OPERATIONS = (
        "open",
        "close",
        "read",
        "write",
        "ioctl",
        "select",
        "getattr",
        "setattr",
        "access",
        "lookup",
        "create",
        "remove",
        "link",
        "rename",
        "mkdir",
        "rmdir",
        "readdir",
        "symlink",
        "readlink",
        "fsync",
        "inactive",
        "bmap",
        "truncate",
        "sync",
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
    )

    # -- object lifetime ----------------------------------------------------

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        """Prepare the object for I/O.  NFS famously drops this call."""
        raise NotSupported("open")

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        """Release the object.  NFS famously drops this call too."""
        raise NotSupported("close")

    def inactive(self) -> None:
        """Hint that no references remain (used for cache teardown)."""
        raise NotSupported("inactive")

    # -- data ----------------------------------------------------------------

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        raise NotSupported("read")

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        """Write bytes; returns the number written."""
        raise NotSupported("write")

    def truncate(self, size: int, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("truncate")

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("fsync")

    def ioctl(self, command: str, argument: object = None, ctx: OpContext = ROOT_CTX) -> object:
        raise NotSupported("ioctl")

    def select(self, which: str, ctx: OpContext = ROOT_CTX) -> bool:
        raise NotSupported("select")

    def bmap(self, file_block: int) -> int:
        raise NotSupported("bmap")

    def sync(self) -> None:
        raise NotSupported("sync")

    # -- attributes -------------------------------------------------------------

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        raise NotSupported("getattr")

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("setattr")

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        raise NotSupported("access")

    # -- namespace ---------------------------------------------------------------

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> "Vnode":
        raise NotSupported("lookup")

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> "Vnode":
        raise NotSupported("create")

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("remove")

    def link(self, target: "Vnode", name: str, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("link")

    def rename(
        self,
        src_name: str,
        dst_dir: "Vnode",
        dst_name: str,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        raise NotSupported("rename")

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> "Vnode":
        raise NotSupported("mkdir")

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("rmdir")

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        raise NotSupported("readdir")

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> "Vnode":
        raise NotSupported("symlink")

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        raise NotSupported("readlink")

    # -- Ficus extensions ----------------------------------------------------

    def session_open(self, fh: "EntryId", ctx: OpContext = ROOT_CTX) -> None:
        """Begin an update session on the replica holding ``fh``.

        Directory vnodes implement this for their children; the physical
        layer coalesces version-vector bumps per open session (one bump at
        session close instead of one per write).
        """
        raise NotSupported("session_open")

    def session_close(self, fh: "EntryId", ctx: OpContext = ROOT_CTX) -> bool:
        """End an update session; flushes the coalesced version bump.
        Returns True when the closing session updated the object."""
        raise NotSupported("session_close")

    def getattrs_batch(
        self,
        fhs: list["EntryId"] | None = None,
        ctx: OpContext = ROOT_CTX,
    ) -> "AttrBatch":
        """Fetch this directory's aux record plus its children's in one call.

        ``fhs=None`` means "all children stored here"; a list restricts the
        result.  This is the attribute plane: one RPC returns every version
        vector the logical layer needs for replica selection, replacing one
        RPC per file per replica per open.
        """
        raise NotSupported("getattrs_batch")

    def sync_probe(self, fh: "EntryId | None" = None, ctx: OpContext = ROOT_CTX) -> "SyncProbe":
        """Fetch the recon digest of a directory subtree in one call.

        ``fh=None`` means this directory; otherwise any directory of the
        same volume replica.  Reconciliation compares the remote digest
        against its own before descending, so a converged subtree costs
        one probe instead of a directory read plus an attribute batch per
        directory (Merkle-style anti-entropy pruning).
        """
        raise NotSupported("sync_probe")

    def block_digests(self, fh: "EntryId", ctx: OpContext = ROOT_CTX) -> "BlockDigests":
        """Content hashes of a stored file's fixed-size blocks.

        The reply carries the replica's version vector so the puller can
        detect an out-of-band change between its attribute fetch and this
        call and fall back to a whole-file copy.
        """
        raise NotSupported("block_digests")

    def read_blocks(
        self, fh: "EntryId", indices: list[int], ctx: OpContext = ROOT_CTX
    ) -> dict[int, bytes]:
        """Fetch selected fixed-size blocks of a stored file in one call."""
        raise NotSupported("read_blocks")

    def lookup_fh(self, fh: "FicusFileHandle", ctx: OpContext = ROOT_CTX) -> "Vnode":
        """The child this directory replica names, addressed by file handle."""
        raise NotSupported("lookup_fh")

    def lookup_dir(self, fh: "FicusFileHandle", ctx: OpContext = ROOT_CTX) -> "Vnode":
        """Any directory of the same volume replica, addressed by handle."""
        raise NotSupported("lookup_dir")

    def insert(
        self,
        name: str,
        etype: "EntryType",
        *,
        eid: "EntryId | None" = None,
        fh: "FicusFileHandle | None" = None,
        data: str = "",
        link_from: "FicusFileHandle | None" = None,
        from_recon: bool = False,
        merge_policy: str = "",
        ctx: OpContext = ROOT_CTX,
    ) -> "DirectoryEntry":
        """Insert a directory entry; the entry made is the reply.

        ``eid`` and ``fh`` left ``None`` are minted by the applying replica
        ("each volume replica assigns file identifiers to new files
        independently", Section 4.2).  ``link_from`` names the directory
        already holding the file's storage when this adds another name;
        ``from_recon`` publishes the entry without contents or a version
        bump; ``merge_policy`` is the new file's conflict-resolver tag.
        """
        raise NotSupported("insert")

    def remove_entry(
        self, eid: "EntryId", from_recon: bool = False, ctx: OpContext = ROOT_CTX
    ) -> None:
        """Tombstone the entry with id ``eid`` (idempotent)."""
        raise NotSupported("remove_entry")

    def set_policy(self, fh: "FicusFileHandle", tag: str, ctx: OpContext = ROOT_CTX) -> None:
        """Declare a child file's merge-policy tag; bumps its version vector
        so the tag propagates with the next reconciliation round."""
        raise NotSupported("set_policy")

    # -- conveniences shared by all layers -----------------------------------------

    @property
    def is_dir(self) -> bool:
        return self.getattr().ftype == FileType.DIRECTORY

    def read_all(self, ctx: OpContext = ROOT_CTX) -> bytes:
        """Read the entire contents (getattr + read)."""
        return self.read(0, self.getattr(ctx).size, ctx)

    def walk(self, path: str, ctx: OpContext = ROOT_CTX) -> "Vnode":
        """Resolve a slash-separated relative path via repeated lookup."""
        node: Vnode = self
        for part in path.split("/"):
            if part:
                node = node.lookup(part, ctx)
        return node


def read_whole(
    vnode: "Vnode", chunk: int = 1 << 20, ctx: OpContext = ROOT_CTX, offset: int = 0
) -> bytes:
    """Read a vnode from ``offset`` to EOF without trusting getattr's size.

    Through an NFS hop, getattr may serve a *cached, stale* size (the
    uncontrollable caching the paper complains about in Section 2.2), so
    ``read_all`` can truncate or over-read a file that just changed.
    Reading fixed-size chunks until a short read sidesteps the attribute
    cache entirely.  Use this for anything mutable read across layers —
    Ficus directory files, auxiliary attributes, file pulls.
    """
    pieces = []
    while True:
        data = vnode.read(offset, chunk, ctx)
        if not data:
            break
        pieces.append(data)
        offset += len(data)
        if len(data) < chunk:
            break
    return b"".join(pieces)


def unix_permits(attrs: FileAttributes, cred: Credential, mode: int) -> bool:
    """The classic Unix permission check: uid 0 may do anything, the owner
    is judged by the owner bits of ``attrs.perm``, everyone else by the
    other bits."""
    if cred.uid == 0:
        return True
    shift = 6 if cred.uid == attrs.uid else 0
    return (attrs.perm >> shift) & mode == mode


class FileSystemLayer(abc.ABC):
    """One layer in a vnode stack (a "virtual file system type").

    A layer exposes a root vnode; everything else is reached via lookup.
    A layer does not count its own operations: stack a
    :class:`~repro.layers.monitor.MonitorLayer` where the counts are wanted.
    """

    layer_name = "layer"

    @abc.abstractmethod
    def root(self) -> Vnode:
        """The root vnode of this layer."""

    def unmount(self) -> None:
        """Release resources (default: nothing to do)."""
