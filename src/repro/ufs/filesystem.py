"""The simulated UFS: inode-based file system over a block device.

This is the bottom layer of the Ficus stack ("Ficus can use the UFS as its
underlying nonvolatile storage service, which means Ficus is not burdened
with the details of how best to physically organize disk storage" — paper
Section 2.1).  It provides the classic Unix objects: inodes, regular files
with direct + single-indirect block mapping, directories with ``.``/``..``
entries and hard links, and a path lookup that exercises the buffer cache
and name cache the paper's performance notes rely on.

Metadata costs O(1) in the size of the tables.  Allocation searches from
an in-memory lower bound (see :class:`Ufs`), peeking at raw table bytes
one block at a time; decoded inodes and decoded directories are handed
out as copies of an epoch-stamped master.  None of it changes what
reaches the device: every allocation is still the lowest free slot, so
the write sequence is the one a scan from the first slot would produce.

Two writes are never issued because they change nothing on the device:
``truncate_file`` to the size a file already has returns before touching
anything, and ``_put_inode`` skips the table-block write when the packed
slot equals the bytes the block already holds (the buffer cache is
write-through, so those bytes are durable).  Every other step of a
``write``/``truncate`` still writes through in call order.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.errors import (
    DirectoryNotEmpty,
    FicusError,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NoSpace,
    NotADirectory,
)
from repro.storage import BlockDevice
from repro.ufs.cache import BufferCache, NameCache
from repro.ufs.inode import FileAttributes, FileType, Inode, slot_is_free
from repro.ufs.layout import (
    INODE_SIZE,
    MAX_NAME_LEN,
    NDIRECT,
    ROOT_INO,
    Superblock,
    peek_slot_generation,
)
from repro.util import VirtualClock
from repro.util.codec import escape_value, unescape_value


def _encode_dirent(name: str, ino: int) -> str:
    return f"{escape_value(name)} {ino}"


def _decode_dirent(line: str) -> tuple[str, int]:
    raw, _, ino = line.rpartition(" ")
    return unescape_value(raw), int(ino)


class Ufs:
    """A mounted simulated Unix file system.

    Use :meth:`mkfs` to format a device and :meth:`mount` to attach to an
    already-formatted one (contents survive a simulated reboot).
    """

    def __init__(
        self,
        device: BlockDevice,
        superblock: Superblock,
        clock: VirtualClock | None = None,
        cache_blocks: int = 256,
        name_cache_size: int = 512,
    ):
        self.device = device
        self.sb = superblock
        self.clock = clock or VirtualClock()
        self.cache = BufferCache(device, capacity=cache_blocks)
        self.namecache = NameCache(capacity=name_cache_size)
        self._next_generation = 1
        # Decoded-inode cache: ino -> (buffer-cache epoch, master Inode).
        # Avoids re-unpacking the same inode block on every crossing; all
        # reads hand out CLONES (Inode is mutable) and every entry is
        # dropped when the buffer-cache epoch moves, so an invalidated
        # buffer cache also means cold decoded inodes (E3/E4 accounting).
        self._icache: dict[int, tuple[int, Inode]] = {}
        # Decoded-directory cache: ino -> (buffer-cache epoch, entries in
        # on-disk order).  Lives by _icache's rules: never filled at
        # capacity 0, readers get a copy, dropped before anything writes
        # or frees the inode's data (the write may raise half-way) and
        # refreshed by _write_dir_entries once its inode write has landed.
        self._dcache: dict[int, tuple[int, dict[str, int]]] = {}
        # Allocation bounds: no inode below _ino_floor and no data block
        # below _blk_floor is free.  A bound only says where the search
        # starts — whether a slot is free is always read off the table —
        # so it may be low but never high: it advances only after the
        # claiming write has landed, drops on every free, and starts at
        # the table's first slot on every mount.
        self._ino_floor = ROOT_INO
        self._blk_floor = superblock.data_start

    # -- construction -------------------------------------------------------

    @classmethod
    def mkfs(
        cls,
        device: BlockDevice,
        num_inodes: int = 1024,
        clock: VirtualClock | None = None,
        cache_blocks: int = 256,
        name_cache_size: int = 512,
        inode_size: int | None = None,
    ) -> "Ufs":
        """Format ``device`` and return the mounted file system.

        ``inode_size`` overrides the bytes reserved per inode slot; pass
        the block size to isolate every inode in its own block (used by
        the Section-6 I/O-accounting experiments).
        """
        sb = Superblock.compute(device, num_inodes, inode_size=inode_size or INODE_SIZE)
        device.write_block(0, sb.pack())
        zero = bytes(device.block_size)
        for blk in range(sb.inode_table_start, sb.data_start):
            device.write_block(blk, zero)
        fs = cls(device, sb, clock=clock, cache_blocks=cache_blocks, name_cache_size=name_cache_size)
        root = fs._alloc_inode(FileType.DIRECTORY, perm=0o755)
        assert root.ino == ROOT_INO, f"root allocated as {root.ino}"
        fs._write_dir_entries(root, {".": root.ino, "..": root.ino})
        root.nlink = 2
        fs._put_inode(root)
        return fs

    @classmethod
    def mount(
        cls,
        device: BlockDevice,
        clock: VirtualClock | None = None,
        cache_blocks: int = 256,
        name_cache_size: int = 512,
    ) -> "Ufs":
        """Attach to a previously formatted device (cold caches)."""
        sb = Superblock.unpack(device.read_block(0))
        fs = cls(device, sb, clock=clock, cache_blocks=cache_blocks, name_cache_size=name_cache_size)
        fs._next_generation = fs._scan_max_generation() + 1
        return fs

    def remount(self) -> "Ufs":
        """Simulate a reboot: same device, all caches cold."""
        return Ufs.mount(
            self.device,
            clock=self.clock,
            cache_blocks=self.cache.capacity,
            name_cache_size=self.namecache.capacity,
        )

    def _scan_max_generation(self) -> int:
        # Freed slots keep their generation, so scanning every slot (not
        # just allocated ones) yields the true high-water mark.
        return max(peek_slot_generation(block, offset) for _, block, offset in self._inode_slots())

    # -- inode table ----------------------------------------------------------

    def _inode_slots(self, start: int = 1) -> Iterator[tuple[int, bytes, int]]:
        """Walk the inode table from slot ``start``: ``(ino, table block,
        offset of the slot in it)``, one ``cache.read`` per table block.
        Callers peek at the raw slot; no :class:`Inode` is built and
        ``_icache`` is not touched."""
        sb = self.sb
        ino = start
        while ino <= sb.num_inodes:
            block, offset = sb.inode_location(ino)
            data = self.cache.read(block)
            while offset + sb.inode_size <= sb.block_size and ino <= sb.num_inodes:
                yield ino, data, offset
                ino += 1
                offset += sb.inode_size

    def _get_inode_raw(self, ino: int) -> Inode:
        if self.cache.capacity:
            entry = self._icache.get(ino)
            if entry is not None and entry[0] == self.cache.epoch:
                return entry[1].clone()
        block, offset = self.sb.inode_location(ino)
        data = self.cache.read(block)
        inode = Inode.unpack(ino, data[offset : offset + INODE_SIZE])
        if self.cache.capacity:
            self._icache[ino] = (self.cache.epoch, inode.clone())
        return inode

    def get_inode(self, ino: int) -> Inode:
        """Read an inode; raises FileNotFound for a free slot."""
        inode = self._get_inode_raw(ino)
        if inode.is_free:
            raise FileNotFound(f"inode {ino} is not allocated")
        return inode

    def _put_inode(self, inode: Inode) -> None:
        block, offset = self.sb.inode_location(inode.ino)
        data = self.cache.read(block)
        packed = inode.pack()
        # The cache is write-through, so a slot that already holds these
        # bytes is already durable: writing the block again changes
        # nothing a crash could observe.  (The virtual clock stands still
        # inside one operation, so its second write of an inode is
        # usually this one.)
        if data[offset : offset + len(packed)] != packed:
            try:
                self.cache.write(block, data[:offset] + packed + data[offset + len(packed) :])
            except BaseException:
                # The block write may not have landed (fault injection): the
                # decoded copy can no longer be trusted to match the device.
                self._icache.pop(inode.ino, None)
                raise
        if self.cache.capacity:
            self._icache[inode.ino] = (self.cache.epoch, inode.clone())

    def _alloc_inode(
        self, ftype: FileType, perm: int = 0o644, uid: int = 0, nlink: int = 0
    ) -> Inode:
        """Claim the lowest free slot and write the new inode once, with
        the link count its caller is about to give it (so no crash point
        leaves an allocated regular file with ``nlink == 0``)."""
        for ino, block, offset in self._inode_slots(self._ino_floor):
            if slot_is_free(block, offset):
                break
        else:
            raise NoSpace("out of inodes")
        now = self.clock.now()
        fresh = Inode(
            ino=ino,
            ftype=ftype,
            perm=perm,
            uid=uid,
            nlink=nlink,
            size=0,
            atime=now,
            mtime=now,
            ctime=now,
            generation=self._next_generation,
        )
        self._next_generation += 1
        self._put_inode(fresh)
        self._ino_floor = ino + 1
        return fresh

    def _free_inode(self, inode: Inode) -> None:
        self._truncate_blocks(inode, 0)
        self.namecache.purge_ino(inode.ino)
        self._ino_floor = min(self._ino_floor, inode.ino)
        # Keep the generation in the freed slot (as 4.2BSD does) so a
        # re-allocation of this ino gets a strictly larger generation and
        # stale NFS file handles can be detected after remount.
        self._put_inode(Inode(ino=inode.ino, ftype=FileType.NONE, generation=inode.generation))

    # -- free-block bitmap ------------------------------------------------------

    def _bitmap_scan(self, start: int, used: bool) -> Iterator[int]:
        """Data blocks from ``start`` up whose bitmap bit is set (``used``)
        or clear, ascending.  Each bitmap block is read once and searched
        as one integer, so the cost is per block passed and per block
        yielded, not per bit."""
        sb = self.sb
        bits_per_block = sb.block_size * 8
        index = start - sb.data_start
        total = sb.num_blocks - sb.data_start
        while index < total:
            bm_index, first_bit = divmod(index, bits_per_block)
            block_start = index - first_bit  # the data block bit 0 stands for
            word = int.from_bytes(self.cache.read(sb.bitmap_start + bm_index), "little")
            if not used:
                word = ~word
            # keep bits [first_bit, end of the device) of this bitmap block
            word &= (1 << min(bits_per_block, total - block_start)) - 1
            word >>= first_bit
            while word:
                lowest = word & -word
                yield sb.data_start + index + lowest.bit_length() - 1
                word ^= lowest
            index = block_start + bits_per_block

    def _alloc_block(self) -> int:
        blk = next(self._bitmap_scan(self._blk_floor, used=False), None)
        if blk is None:
            raise NoSpace("out of data blocks")
        bm_block, byte_off, bit = self.sb.bitmap_location(blk)
        buf = bytearray(self.cache.read(bm_block))
        buf[byte_off] |= 1 << bit
        self.cache.write(bm_block, bytes(buf))
        self._blk_floor = blk + 1
        return blk

    def _free_block(self, blk: int) -> None:
        self._blk_floor = min(self._blk_floor, blk)
        bm_block, byte_off, bit = self.sb.bitmap_location(blk)
        buf = bytearray(self.cache.read(bm_block))
        buf[byte_off] &= ~(1 << bit)
        self.cache.write(bm_block, bytes(buf))

    def block_allocated(self, blk: int) -> bool:
        bm_block, byte_off, bit = self.sb.bitmap_location(blk)
        data = self.cache.read(bm_block)
        return bool((data[byte_off] >> bit) & 1)

    # -- block mapping (direct + single indirect) --------------------------------

    def _max_file_blocks(self) -> int:
        return NDIRECT + self.sb.pointers_per_block

    def _read_indirect(self, inode: Inode) -> list[int]:
        if inode.indirect == 0:
            return [0] * self.sb.pointers_per_block
        data = self.cache.read(inode.indirect)
        return list(struct.unpack_from(f"<{self.sb.pointers_per_block}I", data))

    def _write_indirect(self, inode: Inode, ptrs: list[int]) -> None:
        if inode.indirect == 0:
            inode.indirect = self._alloc_block()
        raw = struct.pack(f"<{len(ptrs)}I", *ptrs)
        self.cache.write(inode.indirect, raw.ljust(self.sb.block_size, b"\x00"))

    def _bmap(self, inode: Inode, file_block: int, allocate: bool) -> int:
        """Map a file-relative block index to a device block (0 = hole)."""
        if file_block >= self._max_file_blocks():
            raise NoSpace(f"file block {file_block} exceeds max file size")
        if file_block < NDIRECT:
            blk = inode.direct[file_block]
            if blk == 0 and allocate:
                blk = self._alloc_block()
                inode.direct[file_block] = blk
            return blk
        ptrs = self._read_indirect(inode)
        idx = file_block - NDIRECT
        blk = ptrs[idx]
        if blk == 0 and allocate:
            blk = self._alloc_block()
            ptrs[idx] = blk
            self._write_indirect(inode, ptrs)
        return blk

    def _file_blocks(self, inode: Inode) -> list[int]:
        """All allocated device blocks of a file, in file order."""
        nblocks = (inode.size + self.sb.block_size - 1) // self.sb.block_size
        out = []
        ptrs = None
        for i in range(nblocks):
            if i < NDIRECT:
                out.append(inode.direct[i])
            else:
                if ptrs is None:
                    ptrs = self._read_indirect(inode)
                out.append(ptrs[i - NDIRECT])
        return out

    # -- file data I/O -------------------------------------------------------------

    def read_file(self, ino: int, offset: int = 0, length: int | None = None) -> bytes:
        """Read ``length`` bytes at ``offset`` (to EOF when length is None)."""
        inode = self.get_inode(ino)
        return self._read_inode_data(inode, offset, length)

    def _read_inode_data(self, inode: Inode, offset: int = 0, length: int | None = None) -> bytes:
        if offset < 0:
            raise InvalidArgument("negative offset")
        if offset >= inode.size:
            return b""
        end = inode.size if length is None else min(inode.size, offset + length)
        bs = self.sb.block_size
        chunks = []
        pos = offset
        while pos < end:
            fblock, in_off = divmod(pos, bs)
            blk = self._bmap(inode, fblock, allocate=False)
            take = min(bs - in_off, end - pos)
            if blk == 0:
                chunks.append(bytes(take))
            else:
                chunks.append(self.cache.read(blk)[in_off : in_off + take])
            pos += take
        inode.atime = self.clock.now()
        return b"".join(chunks)

    def write_file(self, ino: int, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, extending the file as needed."""
        inode = self.get_inode(ino)
        try:
            self._write_inode_data(inode, offset, data)
        except BaseException:
            # Persist whatever landed even when the write fails part-way
            # (NoSpace, injected crash): blocks already allocated must be
            # reachable from the inode or fsck would report them leaked.
            # A secondary failure of this best-effort write (the device
            # just crashed, after all) must not mask the original error.
            try:
                self._put_inode(inode)
            except FicusError:
                pass
            raise
        self._put_inode(inode)

    def _write_inode_data(self, inode: Inode, offset: int, data: bytes) -> None:
        if offset < 0:
            raise InvalidArgument("negative offset")
        # the write may half-land: a decoded directory is untrusted until
        # _write_dir_entries has seen its inode write go through
        self._dcache.pop(inode.ino, None)
        bs = self.sb.block_size
        pos = offset
        remaining = memoryview(bytes(data))
        while remaining:
            fblock, in_off = divmod(pos, bs)
            take = min(bs - in_off, len(remaining))
            blk = self._bmap(inode, fblock, allocate=True)
            if in_off == 0 and take == bs:
                block_data = bytes(remaining[:take])
            else:
                buf = bytearray(self.cache.read(blk))
                buf[in_off : in_off + take] = remaining[:take]
                block_data = bytes(buf)
            self.cache.write(blk, block_data)
            pos += take
            remaining = remaining[take:]
            # Grow size as blocks land so a mid-write failure (NoSpace,
            # injected crash) never leaves allocated blocks unaccounted.
            inode.size = max(inode.size, pos)
        inode.size = max(inode.size, offset + len(data))
        now = self.clock.now()
        inode.mtime = now
        inode.ctime = now

    def truncate_file(self, ino: int, size: int) -> None:
        """Shrink or zero-extend a file to ``size`` bytes.

        A file already that long is left untouched, times included (POSIX
        marks them only "if the file size is changed").
        """
        inode = self.get_inode(ino)
        if inode.size == size:
            return
        self._truncate_blocks(inode, size)
        inode.size = size
        now = self.clock.now()
        inode.mtime = now
        inode.ctime = now
        self._put_inode(inode)

    def _truncate_blocks(self, inode: Inode, size: int) -> None:
        self._dcache.pop(inode.ino, None)
        bs = self.sb.block_size
        keep = (size + bs - 1) // bs
        ptrs = self._read_indirect(inode) if inode.indirect else None
        nblocks = (inode.size + bs - 1) // bs
        for i in range(keep, nblocks):
            if i < NDIRECT:
                if inode.direct[i]:
                    self._free_block(inode.direct[i])
                    inode.direct[i] = 0
            elif ptrs is not None and ptrs[i - NDIRECT]:
                self._free_block(ptrs[i - NDIRECT])
                ptrs[i - NDIRECT] = 0
        if ptrs is not None:
            if keep <= NDIRECT and inode.indirect:
                self._free_block(inode.indirect)
                inode.indirect = 0
            else:
                self._write_indirect(inode, ptrs)
        # Zero the tail of the final kept block so old bytes never resurface.
        if size % bs and keep <= nblocks:
            last = self._bmap(inode, keep - 1, allocate=False)
            if last:
                buf = bytearray(self.cache.read(last))
                buf[size % bs :] = bytes(bs - size % bs)
                self.cache.write(last, bytes(buf))

    # -- directories ------------------------------------------------------------

    def _read_dir_entries(self, inode: Inode) -> dict[str, int]:
        if not inode.is_dir:
            raise NotADirectory(f"inode {inode.ino} is not a directory")
        if self.cache.capacity:
            cached = self._dcache.get(inode.ino)
            if cached is not None and cached[0] == self.cache.epoch:
                # as reading the data would: callers persist this inode
                inode.atime = self.clock.now()
                return dict(cached[1])
        raw = self._read_inode_data(inode)
        entries: dict[str, int] = {}
        if raw:
            for line in raw.decode("utf-8").split("\n"):
                if line:
                    name, ino = _decode_dirent(line)
                    entries[name] = ino
        if self.cache.capacity:
            self._dcache[inode.ino] = (self.cache.epoch, dict(entries))
        return entries

    def _write_dir_entries(self, inode: Inode, entries: dict[str, int]) -> None:
        """Rewrite a directory's entry records, in place where possible.

        Directory data is padded to whole blocks (the decoder skips blank
        lines), so an update that keeps the block count rewrites existing
        blocks in place with no inode change — a one-block directory is
        then updated by a SINGLE block write, which is the atomicity the
        shadow-commit rename relies on ("the shadow atomically replaces
        the original by changing a low-level directory reference").
        """
        ordered = sorted(entries.items())
        text = "\n".join(_encode_dirent(name, ino) for name, ino in ordered)
        data = text.encode("utf-8")
        bs = self.sb.block_size
        new_size = max(bs, ((len(data) + bs - 1) // bs) * bs)
        padded = data.ljust(new_size, b"\n")
        old_size = inode.size
        self._write_inode_data(inode, 0, padded)
        if new_size < old_size:
            # shrink AFTER the new prefix is durable; the inode write is
            # the commit point, block frees follow
            self._truncate_blocks(inode, new_size)
            inode.size = new_size
        now = self.clock.now()
        inode.mtime = now
        inode.ctime = now
        self._put_inode(inode)
        if self.cache.capacity:
            self._dcache[inode.ino] = (self.cache.epoch, dict(ordered))

    def readdir(self, dir_ino: int) -> dict[str, int]:
        """Return all entries of a directory, including ``.`` and ``..``."""
        return self._read_dir_entries(self.get_inode(dir_ino))

    def lookup(self, dir_ino: int, name: str) -> int:
        """Resolve one name component (through the DNLC)."""
        self._check_name(name)
        cached = self.namecache.lookup(dir_ino, name)
        if cached is not None:
            return cached
        entries = self._read_dir_entries(self.get_inode(dir_ino))
        if name not in entries:
            raise FileNotFound(f"{name!r} not found in directory {dir_ino}")
        ino = entries[name]
        self.namecache.enter(dir_ino, name, ino)
        return ino

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or name == "." * len(name) and len(name) > 2:
            raise InvalidArgument(f"bad name component {name!r}")
        if "/" in name or "\x00" in name:
            raise InvalidArgument(f"name {name!r} contains / or NUL")
        if len(name) > MAX_NAME_LEN:
            raise NameTooLong(f"name of {len(name)} chars exceeds {MAX_NAME_LEN}")

    def _add_entry(self, dir_inode: Inode, name: str, ino: int) -> None:
        entries = self._read_dir_entries(dir_inode)
        if name in entries:
            raise FileExists(f"{name!r} already exists in directory {dir_inode.ino}")
        entries[name] = ino
        self._write_dir_entries(dir_inode, entries)
        self.namecache.enter(dir_inode.ino, name, ino)

    def _remove_entry(self, dir_inode: Inode, name: str) -> int:
        entries = self._read_dir_entries(dir_inode)
        if name not in entries:
            raise FileNotFound(f"{name!r} not found in directory {dir_inode.ino}")
        ino = entries.pop(name)
        self._write_dir_entries(dir_inode, entries)
        self.namecache.remove(dir_inode.ino, name)
        return ino

    # -- namespace operations -------------------------------------------------

    def create(self, dir_ino: int, name: str, perm: int = 0o644, uid: int = 0) -> int:
        """Create an empty regular file; returns its inode number."""
        self._check_name(name)
        dir_inode = self.get_inode(dir_ino)
        inode = self._alloc_inode(FileType.REGULAR, perm=perm, uid=uid, nlink=1)
        try:
            self._add_entry(dir_inode, name, inode.ino)
        except FileExists:
            self._free_inode(inode)
            raise
        return inode.ino

    def mkdir(self, dir_ino: int, name: str, perm: int = 0o755, uid: int = 0) -> int:
        """Create a subdirectory with ``.`` and ``..``; returns its ino."""
        self._check_name(name)
        parent = self.get_inode(dir_ino)
        if not parent.is_dir:
            raise NotADirectory(f"inode {dir_ino} is not a directory")
        inode = self._alloc_inode(FileType.DIRECTORY, perm=perm, uid=uid)
        self._write_dir_entries(inode, {".": inode.ino, "..": dir_ino})
        inode = self.get_inode(inode.ino)
        inode.nlink = 2
        self._put_inode(inode)
        try:
            self._add_entry(parent, name, inode.ino)
        except FileExists:
            self._free_inode(inode)
            raise
        parent = self.get_inode(dir_ino)
        parent.nlink += 1
        self._put_inode(parent)
        return inode.ino

    def symlink(self, dir_ino: int, name: str, target: str, uid: int = 0) -> int:
        """Create a symbolic link whose data is ``target``."""
        self._check_name(name)
        dir_inode = self.get_inode(dir_ino)
        inode = self._alloc_inode(FileType.SYMLINK, perm=0o777, uid=uid, nlink=1)
        self._write_inode_data(inode, 0, target.encode("utf-8"))
        self._put_inode(inode)
        try:
            self._add_entry(dir_inode, name, inode.ino)
        except FileExists:
            self._free_inode(inode)
            raise
        return inode.ino

    def readlink(self, ino: int) -> str:
        inode = self.get_inode(ino)
        if inode.ftype != FileType.SYMLINK:
            raise InvalidArgument(f"inode {ino} is not a symlink")
        return self._read_inode_data(inode).decode("utf-8")

    def link(self, ino: int, dir_ino: int, name: str) -> None:
        """Create a hard link to an existing file (not a directory)."""
        self._check_name(name)
        inode = self.get_inode(ino)
        if inode.is_dir:
            raise IsADirectory("hard links to directories are not allowed")
        dir_inode = self.get_inode(dir_ino)
        if name in self._read_dir_entries(dir_inode):
            raise FileExists(f"{name!r} already exists in directory {dir_ino}")
        # the count before the name: a crash between the two leaves a count
        # one too high (a leak ``fsck`` reports), never a second name whose
        # inode an unlink of the first one frees
        inode.nlink += 1
        inode.ctime = self.clock.now()
        self._put_inode(inode)
        self._add_entry(dir_inode, name, ino)

    def unlink(self, dir_ino: int, name: str) -> None:
        """Remove a name; frees the inode when the last link goes."""
        dir_inode = self.get_inode(dir_ino)
        entries = self._read_dir_entries(dir_inode)
        if name not in entries:
            raise FileNotFound(f"{name!r} not found in directory {dir_ino}")
        inode = self.get_inode(entries[name])
        if inode.is_dir:
            raise IsADirectory(f"{name!r} is a directory; use rmdir")
        self._remove_entry(dir_inode, name)
        inode.nlink -= 1
        inode.ctime = self.clock.now()
        if inode.nlink <= 0:
            self._free_inode(inode)
        else:
            self._put_inode(inode)

    def rmdir(self, dir_ino: int, name: str) -> None:
        """Remove an empty subdirectory."""
        if name in (".", ".."):
            raise InvalidArgument(f"cannot rmdir {name!r}")
        parent = self.get_inode(dir_ino)
        target_ino = self.lookup(dir_ino, name)
        target = self.get_inode(target_ino)
        if not target.is_dir:
            raise NotADirectory(f"{name!r} is not a directory")
        entries = self._read_dir_entries(target)
        if set(entries) - {".", ".."}:
            raise DirectoryNotEmpty(f"directory {name!r} is not empty")
        self._remove_entry(parent, name)
        self.namecache.purge_dir(target_ino)
        self._free_inode(target)
        parent = self.get_inode(dir_ino)
        parent.nlink -= 1
        self._put_inode(parent)

    def rename(self, src_dir: int, src_name: str, dst_dir: int, dst_name: str) -> None:
        """Rename within the file system; replaces a non-directory target.

        A same-directory rename is applied as ONE directory rewrite (for a
        one-block directory, one block write): the atomic low-level
        reference change that the Ficus shadow commit depends on.  Any
        replaced target's inode is released only after the new directory
        state is durable.
        """
        self._check_name(dst_name)
        src_ino = self.lookup(src_dir, src_name)
        src_inode = self.get_inode(src_ino)
        replaced_ino: int | None = None
        dst_dinode = self.get_inode(dst_dir)
        dst_entries = self._read_dir_entries(dst_dinode)
        if dst_name in dst_entries and dst_entries[dst_name] != src_ino:
            existing = self.get_inode(dst_entries[dst_name])
            if existing.is_dir:
                raise IsADirectory(f"rename target {dst_name!r} is a directory")
            replaced_ino = existing.ino

        if src_dir == dst_dir:
            entries = self._read_dir_entries(self.get_inode(src_dir))
            del entries[src_name]
            entries[dst_name] = src_ino
            self._write_dir_entries(self.get_inode(src_dir), entries)
            self.namecache.remove(src_dir, src_name)
            self.namecache.enter(src_dir, dst_name, src_ino)
        else:
            # cross-directory: add the new name first so a crash between
            # the two writes leaves the file reachable (never lost)
            if dst_name in dst_entries:
                entries = dict(dst_entries)
                entries[dst_name] = src_ino
                self._write_dir_entries(self.get_inode(dst_dir), entries)
                self.namecache.enter(dst_dir, dst_name, src_ino)
            else:
                self._add_entry(self.get_inode(dst_dir), dst_name, src_ino)
            self._remove_entry(self.get_inode(src_dir), src_name)

        if replaced_ino is not None:
            replaced = self.get_inode(replaced_ino)
            replaced.nlink -= 1
            replaced.ctime = self.clock.now()
            if replaced.nlink <= 0:
                self._free_inode(replaced)
            else:
                self._put_inode(replaced)
        if src_inode.is_dir and src_dir != dst_dir:
            # fix .. and parent link counts
            entries = self._read_dir_entries(self.get_inode(src_ino))
            entries[".."] = dst_dir
            self._write_dir_entries(self.get_inode(src_ino), entries)
            old_parent = self.get_inode(src_dir)
            old_parent.nlink -= 1
            self._put_inode(old_parent)
            new_parent = self.get_inode(dst_dir)
            new_parent.nlink += 1
            self._put_inode(new_parent)

    # -- attributes & paths ---------------------------------------------------

    def getattr(self, ino: int) -> FileAttributes:
        return FileAttributes.from_inode(self.get_inode(ino))

    def setattr(self, ino: int, perm: int | None = None, uid: int | None = None) -> None:
        inode = self.get_inode(ino)
        if perm is not None:
            inode.perm = perm & 0o7777
        if uid is not None:
            inode.uid = uid
        inode.ctime = self.clock.now()
        self._put_inode(inode)

    def path_lookup(self, path: str, base: int = ROOT_INO) -> int:
        """Resolve a slash-separated path to an inode number."""
        ino = ROOT_INO if path.startswith("/") else base
        for part in path.split("/"):
            if part:
                ino = self.lookup(ino, part)
        return ino

    # -- convenience for higher layers ----------------------------------------

    def free_inode_count(self) -> int:
        return sum(slot_is_free(block, offset) for _, block, offset in self._inode_slots(ROOT_INO))

    def free_block_count(self) -> int:
        used = sum(1 for _ in self._bitmap_scan(self.sb.data_start, used=True))
        return self.sb.num_blocks - self.sb.data_start - used
