"""On-disk layout of the simulated UFS.

The disk is divided into fixed regions, in the spirit of 4.2BSD (without
cylinder groups, which matter for seek locality we do not model):

    block 0                  superblock
    blocks 1 .. I            inode table   (INODES_PER_BLOCK slots per block)
    blocks I+1 .. B          free-block bitmap (1 bit per data block)
    blocks B+1 .. end        data blocks

Inodes are fixed 128-byte slots packed with :mod:`struct`, so every inode
read/write is one block I/O through the buffer cache — the unit the paper's
Section 6 accounting is stated in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.errors import InvalidArgument
from repro.storage import BlockDevice

#: Size of one on-disk inode slot.
INODE_SIZE = 128

#: Number of direct block pointers per inode (4.2BSD used 12).
NDIRECT = 12

#: Maximum length of one name component (classic UFS limit; the paper's
#: Section 2.3 note about 255 -> ~200 depends on this value).
MAX_NAME_LEN = 255

#: Reserved inode numbers. 0 = invalid, 1 = bad blocks (unused), 2 = root.
ROOT_INO = 2
FIRST_FREE_INO = 3

#: struct format of an inode slot:
#:   mode(u16) nlink(u16) uid(u32) size(u64) atime/mtime/ctime(f64 x3)
#:   direct pointers (u32 x NDIRECT) indirect(u32) generation(u32)
_INODE_FMT = f"<HHIQddd{NDIRECT}III"
_INODE_STRUCT = struct.Struct(_INODE_FMT)
assert _INODE_STRUCT.size <= INODE_SIZE
#: where a slot's three times lie: the bytes a time-only change touches
SLOT_TIMES = slice(struct.calcsize("<HHIQ"), struct.calcsize("<HHIQddd"))
assert _INODE_FMT.startswith("<HHIQddd")
#: the two words a table walk reads without unpacking the whole slot
_MODE_STRUCT = struct.Struct("<H")
_GENERATION_STRUCT = struct.Struct("<I")
_GENERATION_OFFSET = _INODE_STRUCT.size - _GENERATION_STRUCT.size

_SUPERBLOCK_MAGIC = b"UFSREPRO"
_SUPERBLOCK_FMT = "<8sIIIIIII"
_SUPERBLOCK_STRUCT = struct.Struct(_SUPERBLOCK_FMT)


@dataclass
class Superblock:
    """Filesystem geometry, stored in block 0."""

    block_size: int
    num_blocks: int
    num_inodes: int
    inode_table_start: int  # first block of the inode table
    bitmap_start: int  # first block of the free-block bitmap
    data_start: int  # first data block
    #: bytes reserved per inode slot.  The default packs several inodes
    #: per block (as 4.2BSD does); setting it to ``block_size`` isolates
    #: each inode in its own block, which makes "one inode fetch = one
    #: disk I/O" — the unit the paper's Section 6 accounting is stated in.
    inode_size: int = INODE_SIZE

    @property
    def inodes_per_block(self) -> int:
        return self.block_size // self.inode_size

    @property
    def pointers_per_block(self) -> int:
        return self.block_size // 4

    def inode_location(self, ino: int) -> tuple[int, int]:
        """Map an inode number to (block number, byte offset in block)."""
        if not 1 <= ino <= self.num_inodes:
            raise InvalidArgument(f"inode {ino} out of range [1,{self.num_inodes}]")
        index = ino - 1
        block = self.inode_table_start + index // self.inodes_per_block
        offset = (index % self.inodes_per_block) * self.inode_size
        return block, offset

    def bitmap_location(self, data_block: int) -> tuple[int, int, int]:
        """Map a data block number to (bitmap block, byte offset, bit)."""
        if not self.data_start <= data_block < self.num_blocks:
            raise InvalidArgument(f"block {data_block} is not a data block")
        index = data_block - self.data_start
        bits_per_block = self.block_size * 8
        block = self.bitmap_start + index // bits_per_block
        rem = index % bits_per_block
        return block, rem // 8, rem % 8

    def pack(self) -> bytes:
        raw = _SUPERBLOCK_STRUCT.pack(
            _SUPERBLOCK_MAGIC,
            self.block_size,
            self.num_blocks,
            self.num_inodes,
            self.inode_table_start,
            self.bitmap_start,
            self.data_start,
            self.inode_size,
        )
        return raw.ljust(self.block_size, b"\x00")

    @classmethod
    def unpack(cls, data: bytes) -> "Superblock":
        magic, block_size, num_blocks, num_inodes, it, bm, ds, isz = _SUPERBLOCK_STRUCT.unpack_from(
            data
        )
        if magic != _SUPERBLOCK_MAGIC:
            raise InvalidArgument("not a repro-UFS superblock")
        return cls(block_size, num_blocks, num_inodes, it, bm, ds, isz)

    @classmethod
    def compute(
        cls, device: BlockDevice, num_inodes: int, inode_size: int = INODE_SIZE
    ) -> "Superblock":
        """Lay out regions for a device, validating there is room for data."""
        block_size = device.block_size
        if not INODE_SIZE <= inode_size <= block_size:
            raise InvalidArgument(
                f"inode_size must be in [{INODE_SIZE}, {block_size}], got {inode_size}"
            )
        inodes_per_block = block_size // inode_size
        inode_blocks = (num_inodes + inodes_per_block - 1) // inodes_per_block
        inode_table_start = 1
        bitmap_start = inode_table_start + inode_blocks
        # Upper bound on data blocks; a slightly generous bitmap is harmless.
        remaining = device.num_blocks - bitmap_start
        bits_per_block = block_size * 8
        bitmap_blocks = max(1, (remaining + bits_per_block - 1) // bits_per_block)
        data_start = bitmap_start + bitmap_blocks
        if data_start >= device.num_blocks:
            raise InvalidArgument(
                f"device too small: {device.num_blocks} blocks cannot hold "
                f"{num_inodes} inodes plus bitmap"
            )
        return cls(
            block_size=block_size,
            num_blocks=device.num_blocks,
            num_inodes=num_inodes,
            inode_table_start=inode_table_start,
            bitmap_start=bitmap_start,
            data_start=data_start,
            inode_size=inode_size,
        )


def pack_inode_slot(fields: tuple) -> bytes:
    """Pack inode fields into a 128-byte slot (padded)."""
    return _INODE_STRUCT.pack(*fields).ljust(INODE_SIZE, b"\x00")


def unpack_inode_slot(data: bytes) -> tuple:
    """Unpack a 128-byte inode slot into its field tuple."""
    return _INODE_STRUCT.unpack_from(data)


def peek_slot_mode(block: bytes, offset: int) -> int:
    """The mode word of the inode slot at ``offset`` of a table block."""
    return _MODE_STRUCT.unpack_from(block, offset)[0]


def peek_slot_generation(block: bytes, offset: int) -> int:
    """The generation word of the inode slot at ``offset`` of a table block."""
    return _GENERATION_STRUCT.unpack_from(block, offset + _GENERATION_OFFSET)[0]
