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
identity, trace parentage, and cache-control flags; see that module.  An
operation's arguments are data; ``lookup`` takes names and nothing else.

Twenty-two classic operations are joined by seven that the original
SunOS set lacked but Ficus needs (the paper smuggled its open and close
through ``lookup`` names; our NFS forwards the close).  A Ficus need that
an existing operation can carry rides it instead: truncation and a file's
merge-policy tag are ``setattr`` fields, a directory handle is looked up
by ``lookup_fh``, and an update session opens with its first update,
which carries ``OpContext.session``.  Each of the seven stays because
nothing classic can say it:

* ``session_close``: the NFS hop drops ``close`` on purpose (paper
  Sections 2.2-2.3), so the end of an update session needs a call of its
  own; its reply is the file's record, so the writer re-reads nothing.
* ``getattrs_batch``: no classic operation returns N attribute records in
  one reply.
* ``sync_probe``: it is addressed by handle from the volume root, so a
  probe costs no lookup RPC; folded into ``getattrs_batch`` it would cost
  one per probed directory.
* ``read_blocks``: a file pull is one call.  The puller sends the digests
  of the blocks it holds, and the reply carries the version vector the
  contents were read at, their size and every other block.  A classic
  ``read`` would need a ``lookup_fh`` first, an attribute fetch to learn
  the version it read, and the whole file.
* ``lookup_fh``: ``lookup`` takes names only.
* ``remove_entry``: a remove by name is unsafe to retransmit — after a
  collision repair ``name#<eid>`` becomes ``name``, so a replayed remove
  would delete the other entry.
* ``insert``: it carries the handle, link source, entry type and data,
  which no ``create`` has.
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
        AuxAttributes,
        DirectoryEntry,
        EntryId,
        EntryType,
        FileBlocks,
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
    """Fields settable via setattr; ``None`` means "leave unchanged".

    ``size`` truncates or extends the file, as ``va_size`` does in SunOS.
    ``policy`` is a Ficus file's conflict-resolver tag; only a physical
    file replica stores one, and setting it is an update of the file."""

    perm: int | None = None
    uid: int | None = None
    size: int | None = None
    policy: str | None = None


class Vnode(abc.ABC):
    """One file-system object as seen through the vnode interface.

    Concrete layers subclass this.  The default implementation of every
    operation raises :class:`~repro.errors.NotSupported`, mirroring a vnode
    ops vector with missing entries; layers override what they support.
    """

    #: Operations comprising the interface ("about two dozen services"):
    #: 22 classic, then the seven Ficus extensions (see the module docstring).
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
        "session_close",
        "getattrs_batch",
        "sync_probe",
        "read_blocks",
        "lookup_fh",
        "insert",
        "remove_entry",
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

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        raise NotSupported("fsync")

    def ioctl(self, command: str, argument: object = None, ctx: OpContext = ROOT_CTX) -> object:
        raise NotSupported("ioctl")

    def select(self, which: str, ctx: OpContext = ROOT_CTX) -> bool:
        raise NotSupported("select")

    def bmap(self, file_block: int) -> int:
        raise NotSupported("bmap")

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

    def session_close(self, fh: "EntryId", ctx: OpContext = ROOT_CTX) -> "AuxAttributes | None":
        """End the update session on the replica holding ``fh``, which its
        first update opened (``OpContext.session``).  Directory vnodes
        implement this for their children.  When a session was open, so it
        updated the object, the reply is the file's record as the session
        left it (the one ``getattrs_batch([fh])`` would list), and the
        writer keeps it in place of re-reading; otherwise ``None``."""
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

    def read_blocks(
        self, fh: "EntryId", have: list[str], ctx: OpContext = ROOT_CTX
    ) -> "FileBlocks":
        """A stored file in one call: its version vector, its size, and
        each fixed-size block whose digest differs from ``have[i]`` (or
        lies past its end), sent with its digest.  ``have`` lists the
        asker's own block digests, ``[]`` when it stores nothing."""
        raise NotSupported("read_blocks")

    def lookup_fh(self, fh: "FicusFileHandle", ctx: OpContext = ROOT_CTX) -> "Vnode":
        """An object addressed by Ficus file handle: the live child this
        directory replica names, or any directory of the same volume
        replica."""
        raise NotSupported("lookup_fh")

    def insert(
        self,
        name: str,
        etype: "EntryType",
        *,
        fh: "FicusFileHandle | None" = None,
        data: str = "",
        link_from: "FicusFileHandle | None" = None,
        merge_policy: str = "",
        ctx: OpContext = ROOT_CTX,
    ) -> "DirectoryEntry":
        """Insert a directory entry; the entry made is the reply.

        The applying replica mints the entry id, and the file handle when
        ``fh`` is ``None`` ("each volume replica assigns file identifiers
        to new files independently", Section 4.2).  ``link_from`` names the
        directory already holding the file's storage when this adds another
        name; ``merge_policy`` is the new file's conflict-resolver tag.
        """
        raise NotSupported("insert")

    def remove_entry(self, eid: "EntryId", ctx: OpContext = ROOT_CTX) -> None:
        """Tombstone the entry with id ``eid`` (idempotent)."""
        raise NotSupported("remove_entry")

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
    Ficus directory files, and the facade's reads to EOF.
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

    A layer an NFS server exports also names its vnodes: ``handle_for``
    gives a vnode's handle, a tuple the layer alone reads, and
    ``vnode_for`` rebuilds the vnode from it.  A handle names the object,
    not anything the layer keeps in memory, so it outlives the layer's
    instance; the two are layer methods, never vnode operations.
    """

    layer_name = "layer"

    @abc.abstractmethod
    def root(self) -> Vnode:
        """The root vnode of this layer."""

    def handle_for(self, vnode: Vnode) -> tuple:
        """The handle naming ``vnode``, one of this layer's."""
        raise NotSupported(f"{self.layer_name} cannot be exported")

    def vnode_for(self, handle: tuple) -> Vnode:
        """The vnode ``handle`` names; ``StaleFileHandle`` when its object
        is gone."""
        raise NotSupported(f"{self.layer_name} cannot be exported")

    def unmount(self) -> None:
        """Release resources (default: nothing to do)."""
