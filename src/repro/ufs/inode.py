"""In-memory inode representation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.ufs.layout import NDIRECT, pack_inode_slot, peek_slot_mode, unpack_inode_slot


class FileType(enum.IntEnum):
    """File types, encoded in the high bits of the mode word."""

    NONE = 0  # free inode slot
    REGULAR = 1
    DIRECTORY = 2
    SYMLINK = 3


_TYPE_SHIFT = 12
_PERM_MASK = 0o7777


def slot_is_free(block: bytes, offset: int) -> bool:
    """Whether the inode slot at ``offset`` of a raw table block is free,
    decided from its mode word alone (no :class:`Inode` is built)."""
    return peek_slot_mode(block, offset) >> _TYPE_SHIFT == FileType.NONE


@dataclass
class Inode:
    """One in-memory inode.  Mirrors the 128-byte on-disk slot exactly."""

    ino: int
    ftype: FileType = FileType.NONE
    perm: int = 0o644
    nlink: int = 0
    uid: int = 0
    size: int = 0
    atime: float = 0.0
    mtime: float = 0.0
    ctime: float = 0.0
    direct: list[int] = field(default_factory=lambda: [0] * NDIRECT)
    indirect: int = 0
    generation: int = 0

    @property
    def mode(self) -> int:
        return (int(self.ftype) << _TYPE_SHIFT) | (self.perm & _PERM_MASK)

    @property
    def is_dir(self) -> bool:
        return self.ftype == FileType.DIRECTORY

    @property
    def is_regular(self) -> bool:
        return self.ftype == FileType.REGULAR

    @property
    def is_free(self) -> bool:
        return self.ftype == FileType.NONE

    def clone(self) -> "Inode":
        """An independent copy (its own ``direct`` list)."""
        return Inode(
            self.ino,
            self.ftype,
            self.perm,
            self.nlink,
            self.uid,
            self.size,
            self.atime,
            self.mtime,
            self.ctime,
            self.direct[:],
            self.indirect,
            self.generation,
        )

    def pack(self) -> bytes:
        fields = (
            self.mode,
            self.nlink,
            self.uid,
            self.size,
            self.atime,
            self.mtime,
            self.ctime,
            *self.direct,
            self.indirect,
            self.generation,
        )
        return pack_inode_slot(fields)

    @classmethod
    def unpack(cls, ino: int, data: bytes) -> "Inode":
        fields = unpack_inode_slot(data)
        mode, nlink, uid, size, atime, mtime, ctime = fields[:7]
        direct = list(fields[7 : 7 + NDIRECT])
        indirect, generation = fields[7 + NDIRECT :]
        return cls(
            ino=ino,
            ftype=FileType(mode >> _TYPE_SHIFT),
            perm=mode & _PERM_MASK,
            nlink=nlink,
            uid=uid,
            size=size,
            atime=atime,
            mtime=mtime,
            ctime=ctime,
            direct=direct,
            indirect=indirect,
            generation=generation,
        )


@dataclass(frozen=True)
class FileAttributes:
    """The getattr result passed across the vnode interface.

    A plain value object (never a live inode) so that attributes can cross
    an NFS hop by copy, matching NFS's fattr.
    """

    ftype: FileType
    perm: int
    nlink: int
    uid: int
    size: int
    atime: float
    mtime: float
    ctime: float
    fileid: int
    generation: int = 0

    @classmethod
    def from_inode(cls, inode: Inode) -> "FileAttributes":
        return cls(
            ftype=inode.ftype,
            perm=inode.perm,
            nlink=inode.nlink,
            uid=inode.uid,
            size=inode.size,
            atime=inode.atime,
            mtime=inode.mtime,
            ctime=inode.ctime,
            fileid=inode.ino,
            generation=inode.generation,
        )
