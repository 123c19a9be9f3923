"""UFS as a vnode layer — the storage bottom of every Ficus stack.

"Ficus can use the UFS as its underlying nonvolatile storage service"
(paper Section 2.1).  This module adapts :class:`repro.ufs.Ufs` to the
vnode interface, making it a drop-in bottom layer.
"""

from __future__ import annotations

from repro.errors import FicusError, PermissionDenied
from repro.ufs import ROOT_INO, FileType, Ufs
from repro.ufs.inode import FileAttributes
from repro.vnode.interface import (
    ROOT_CTX,
    DirEntry,
    FileSystemLayer,
    OpContext,
    SetAttrs,
    Vnode,
)


class UfsVnode(Vnode):
    """A vnode backed directly by a UFS inode."""

    def __init__(self, layer: "UfsLayer", ino: int):
        self.layer = layer
        self.ino = ino

    @property
    def fs(self) -> Ufs:
        return self.layer.fs

    @property
    def cache_epoch(self) -> int:
        """Coherence stamp for decoded-object caches layered above this
        storage bottom (see :attr:`BufferCache.epoch`).  Layers that keep
        decoded metadata (the replica store) walk down to this provider
        so "buffer cache went cold" also invalidates their caches."""
        return self.fs.cache.epoch

    @property
    def caches_enabled(self) -> bool:
        """Whether the storage bottom caches at all (see
        :attr:`BufferCache.caching_enabled`)."""
        return self.fs.cache.caching_enabled

    def _node(self, ino: int) -> "UfsVnode":
        return UfsVnode(self.layer, ino)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UfsVnode) and other.layer is self.layer and other.ino == self.ino

    def __hash__(self) -> int:
        return hash((id(self.layer), self.ino))

    # -- lifetime: UFS keeps no open state, but honours the calls -------------

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        """Nothing to prepare: an inode is always ready for I/O."""

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        """Nothing to release."""

    def inactive(self) -> None:
        """No per-vnode state to tear down."""

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        """Write-through buffer cache: everything is already on the device."""

    # -- data --

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        return self.fs.read_file(self.ino, offset, length)

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        self.fs.write_file(self.ino, offset, data)
        return len(data)

    def truncate(self, size: int, ctx: OpContext = ROOT_CTX) -> None:
        self.fs.truncate_file(self.ino, size)

    # -- attributes --

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self.fs.getattr(self.ino)

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        if attrs.size is not None:
            self.fs.truncate_file(self.ino, attrs.size)
        if attrs.perm is not None or attrs.uid is not None:
            self.fs.setattr(self.ino, perm=attrs.perm, uid=attrs.uid)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        """Classic Unix permission check against owner/other bits."""
        attrs = self.fs.getattr(self.ino)
        if ctx.cred.uid == 0:
            return True
        perm = attrs.perm
        shift = 6 if ctx.cred.uid == attrs.uid else 0
        return (perm >> shift) & mode == mode

    # -- namespace --

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._node(self.fs.lookup(self.ino, name))

    def create(self, name: str, perm: int = 0o644, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._node(self.fs.create(self.ino, name, perm=perm, uid=ctx.cred.uid))

    def remove(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.fs.unlink(self.ino, name)

    def link(self, target: Vnode, name: str, ctx: OpContext = ROOT_CTX) -> None:
        if not isinstance(target, UfsVnode) or target.layer is not self.layer:
            raise PermissionDenied("cross-layer hard link")
        self.fs.link(target.ino, self.ino, name)

    def rename(
        self,
        src_name: str,
        dst_dir: Vnode,
        dst_name: str,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        if not isinstance(dst_dir, UfsVnode) or dst_dir.layer is not self.layer:
            raise PermissionDenied("cross-layer rename")
        self.fs.rename(self.ino, src_name, dst_dir.ino, dst_name)

    def mkdir(self, name: str, perm: int = 0o755, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._node(self.fs.mkdir(self.ino, name, perm=perm, uid=ctx.cred.uid))

    def rmdir(self, name: str, ctx: OpContext = ROOT_CTX) -> None:
        self.fs.rmdir(self.ino, name)

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        out = []
        for name, ino in sorted(self.fs.readdir(self.ino).items()):
            try:
                ftype = self.fs.getattr(ino).ftype
            except FicusError:
                ftype = FileType.NONE
            out.append(DirEntry(name=name, fileid=ino, ftype=ftype))
        return out

    def symlink(self, name: str, target: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        return self._node(self.fs.symlink(self.ino, name, target, uid=ctx.cred.uid))

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        return self.fs.readlink(self.ino)

    def __repr__(self) -> str:
        return f"UfsVnode(ino={self.ino})"


class UfsLayer(FileSystemLayer):
    """The UFS file system as a stackable vnode layer."""

    layer_name = "ufs"

    def __init__(self, fs: Ufs):
        self.fs = fs

    def root(self) -> UfsVnode:
        return UfsVnode(self, ROOT_INO)

    def vnode_for(self, ino: int) -> UfsVnode:
        """Re-materialize a vnode from a stable inode number (NFS server use)."""
        self.fs.get_inode(ino)  # validates liveness
        return UfsVnode(self, ino)
