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

Every change is made inside an operation scope (:meth:`Ufs.operation`;
a call made outside any scope is a scope of its own).  The scope holds
block writes in one set keyed by block, answers reads from that set before
the buffer cache, and queues frees — a link-count decrement, an inode
slot, a bitmap bit — without applying them, so nothing an operation frees
is reused before the free is on the device.  At the scope's end, or at a
:meth:`Ufs.barrier`, the set goes to the device in FFS soft-update order,
each block once: file data and blocks allocated in the scope, then the
bitmap blocks, then existing indirect blocks, then the inode-table blocks,
then the data blocks of directories that existed before the scope, in
first-dirtied order; then the frees are applied and written, every inode
slot before any bitmap bit.  A directory already on the device that
changes its block count lands in between (see
:meth:`Ufs._write_dir_entries`), so every block a name can reach from the
device holds names.  So a block is named on the device only after it holds
its data and its bitmap bit is set, an inode only after it is written, and
nothing is freed while a name still reaches it.  Nothing is kept across
operations: no write-behind, no journal.  A call that runs out of space
(``NoSpace``) abandons the operation the way a failed landing does: what
it held since the last landing is dropped, never written, so the device
keeps what it held before — never a file or directory half resized.

Two writes are never issued because they change nothing on the device:
``truncate_file`` to the size a file already has returns before touching
anything, and ``_put_inode`` skips the table-block write when the packed
slot equals the bytes a read of the block sees — the held set's, which
the scope's end will write, else the device's own (the buffer cache holds
only what the device holds), so holding them again changes nothing a
crash could observe.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections.abc import Iterator

from repro.errors import (
    CrashInjected,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IOError_,
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


#: Encoded directory entries kept by :func:`_encode_dirent`.  A rewrite
#: encodes every entry of the directory, so the memo must hold the entries
#: of the directories being rewritten on every UFS of the process at once.
#: A ``replicated_churn`` run of the repo benchmark (three hosts creating,
#: renaming and unlinking) encodes under 3000 distinct (name, ino) pairs;
#: an entry is one short string.
DIRENT_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=DIRENT_MEMO_SIZE)
def _encode_dirent(name: str, ino: int) -> str:
    return f"{escape_value(name)} {ino}"


def _decode_dirent(line: str) -> tuple[str, int]:
    raw, _, ino = line.rpartition(" ")
    return unescape_value(raw), int(ino)


class _OperationScope:
    """The re-entrant ``with`` target of :meth:`Ufs.operation`."""

    __slots__ = ("fs", "depth")

    def __init__(self, fs: "Ufs"):
        self.fs = fs
        self.depth = 0

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if self.depth > 1:
            self.depth -= 1
            return
        try:
            # normal or by exception, the set goes out (a call that ran out
            # of space has already dropped it: see Ufs._no_space)
            self.fs.barrier()
        except BaseException:
            # a device that failed under the original error fails this too:
            # the original stands; any other error gives way to the device's
            if exc_type is None or not issubclass(exc_type, (CrashInjected, IOError_)):
                raise
        finally:
            self.depth = 0


def _scoped(method):
    """Run a ``Ufs`` mutation inside an operation scope: its own, unless
    the caller opened one."""

    @functools.wraps(method)
    def scoped(self, *args, **kwargs):
        if self._scope.depth:
            return method(self, *args, **kwargs)
        with self._scope:
            return method(self, *args, **kwargs)

    return scoped


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
        # -- the operation scope (its held blocks are the buffer cache's):
        # since the last landing, the data blocks and inodes allocated, the
        # existing indirect and directory blocks rewritten; and the frees
        # it queued: (ino, every link or one) and data blocks whose bitmap
        # bit is to clear
        self._scope = _OperationScope(self)
        self._fresh: set[int] = set()
        self._born: set[int] = set()
        self._pointers: set[int] = set()
        self._dir_data: set[int] = set()
        self._unrefs: list[tuple[int, bool]] = []
        self._freed: list[int] = []

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
        with fs.operation():
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

    # -- the operation scope ---------------------------------------------------

    def operation(self) -> _OperationScope:
        """``with fs.operation():`` — every block the calls inside write is
        held and goes to the device once, in order, at the outermost exit
        (or at a :meth:`barrier`); see the module docstring."""
        return self._scope

    def barrier(self) -> None:
        """Put everything held on the device now, in order, and apply the
        queued frees (nothing held outside a scope: a no-op).  A failure
        part-way — the device crashed — drops what is still held, with
        every cache that may describe it, and is raised."""
        if not (self.cache.held or self._unrefs or self._freed):
            return
        try:
            self._land()
            if self._unrefs:
                unrefs, self._unrefs = self._unrefs, []
                for ino, outright in unrefs:
                    self._release(ino, outright)
                self._land()
            if self._freed:
                freed, self._freed = self._freed, []
                for blk in freed:
                    self._clear_bit(blk)
                self._land()
        except BaseException:
            self._drop_held()
            raise

    def _drop_held(self) -> None:
        """Forget everything held and queued since the last landing: the
        held set, the caches (decoded ones by the epoch) and the bounds may
        describe writes that will never land, so start again from the
        device."""
        self._fresh.clear()
        self._born.clear()
        self._pointers.clear()
        self._dir_data.clear()
        self._unrefs.clear()
        self._freed.clear()
        self.cache.held.clear()
        self.cache.invalidate_all()
        self.namecache.invalidate_all()
        self._ino_floor = ROOT_INO
        self._blk_floor = self.sb.data_start

    def _no_space(self, what: str) -> NoSpace:
        """Abandon the open operation for want of space: nothing it has
        held since the last landing reaches the device — half a resize
        would land a file or directory emptied — so the caller sees exactly
        what the device held before it.  Returns the error to raise."""
        self._drop_held()
        return NoSpace(what)

    def _land(self) -> None:
        """Write the held set in soft-update order, each block once."""
        held = self.cache.held
        if not held:
            return
        sb = self.sb
        data, bitmap, pointers, table, dirs = [], [], [], [], []
        for blk in held:
            if blk >= sb.data_start:
                if blk in self._dir_data:
                    dirs.append(blk)
                elif blk in self._pointers:
                    pointers.append(blk)
                else:
                    data.append(blk)
            elif blk >= sb.bitmap_start:
                bitmap.append(blk)
            else:
                table.append(blk)
        self._fresh.clear()
        self._born.clear()
        self._pointers.clear()
        self._dir_data.clear()
        self.cache.land(itertools.chain(data, bitmap, pointers, table, dirs))

    def _hold(self, blk: int, data: bytes) -> None:
        """Write a block: into the held set, for :meth:`_land` to write."""
        assert self._scope.depth, "UFS writes are made inside an operation"
        self.cache.held[blk] = data

    # -- inode table ----------------------------------------------------------

    def _inode_slots(self, start: int = 1) -> Iterator[tuple[int, bytes, int]]:
        """Walk the inode table from slot ``start``: ``(ino, table block,
        offset of the slot in it)``, one block read per table block.
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
        # A slot that already reads as these bytes is either held — the
        # scope's end writes it — or on the device (the buffer cache holds
        # only what the device holds): holding it again changes nothing a
        # crash could observe.  (The virtual clock stands still inside one
        # operation, so its second write of an inode is usually this one.)
        if data[offset : offset + len(packed)] != packed:
            self._hold(block, data[:offset] + packed + data[offset + len(packed) :])
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
            raise self._no_space("out of inodes")
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
        self._born.add(ino)
        self._ino_floor = ino + 1
        return fresh

    def _unref(self, ino: int, outright: bool = False) -> None:
        """Queue a link-count decrement (``outright``: the inode's free):
        applied once the names that reached the inode are on the device."""
        self._unrefs.append((ino, outright))

    def _release(self, ino: int, outright: bool) -> None:
        """Apply one queued free: drop a link, and free the inode — its
        blocks queued in turn — when none is left."""
        inode = self._get_inode_raw(ino)
        if inode.is_free:
            return
        inode.nlink = 0 if outright else inode.nlink - 1
        inode.ctime = self.clock.now()
        if inode.nlink > 0:
            self._put_inode(inode)
            return
        # every path here has already dropped the inode's names from the
        # name cache (removed, overwritten, or never entered)
        self._truncate_blocks(inode, 0)
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
            raise self._no_space("out of data blocks")
        bm_block, byte_off, bit = self.sb.bitmap_location(blk)
        buf = bytearray(self.cache.read(bm_block))
        buf[byte_off] |= 1 << bit
        self._hold(bm_block, bytes(buf))
        self._fresh.add(blk)
        self._blk_floor = blk + 1
        return blk

    def _free_block(self, blk: int) -> None:
        """Queue a block's free: its bit clears after the inode that stops
        pointing at it is on the device."""
        self._freed.append(blk)

    def _clear_bit(self, blk: int) -> None:
        self._blk_floor = min(self._blk_floor, blk)
        bm_block, byte_off, bit = self.sb.bitmap_location(blk)
        buf = bytearray(self.cache.read(bm_block))
        buf[byte_off] &= ~(1 << bit)
        self._hold(bm_block, bytes(buf))

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
        elif inode.indirect not in self._fresh:
            # a pointer it gains names a block whose bit lands before it
            self._pointers.add(inode.indirect)
        raw = struct.pack(f"<{len(ptrs)}I", *ptrs)
        self._hold(inode.indirect, raw.ljust(self.sb.block_size, b"\x00"))

    def _bmap(self, inode: Inode, file_block: int, allocate: bool) -> int:
        """Map a file-relative block index to a device block (0 = hole)."""
        if file_block >= self._max_file_blocks():
            raise self._no_space(f"file block {file_block} exceeds max file size")
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

    @_scoped
    def write_file(self, ino: int, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, extending the file as needed."""
        inode = self.get_inode(ino)
        self._write_inode_data(inode, offset, data)
        self._put_inode(inode)

    def _write_inode_data(self, inode: Inode, offset: int, data: bytes) -> None:
        if offset < 0:
            raise InvalidArgument("negative offset")
        # the write may stop half-way: a decoded directory is untrusted
        # until _write_dir_entries has seen it through
        self._dcache.pop(inode.ino, None)
        bs = self.sb.block_size
        pos = offset
        remaining = memoryview(bytes(data))
        while remaining:
            fblock, in_off = divmod(pos, bs)
            take = min(bs - in_off, len(remaining))
            blk = self._bmap(inode, fblock, allocate=False)
            fresh = not blk
            if fresh:
                blk = self._bmap(inode, fblock, allocate=True)
            if in_off == 0 and take == bs:
                block_data = bytes(remaining[:take])
            else:
                # a block just allocated starts from zeros: what it held
                # before belonged to a file that freed it
                buf = bytearray(bs) if fresh else bytearray(self.cache.read(blk))
                buf[in_off : in_off + take] = remaining[:take]
                block_data = bytes(buf)
            self._hold(blk, block_data)
            if inode.is_dir and blk not in self._fresh:
                self._dir_data.add(blk)
            pos += take
            remaining = remaining[take:]
        inode.size = max(inode.size, offset + len(data))
        now = self.clock.now()
        inode.mtime = now
        inode.ctime = now

    @_scoped
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
                self._hold(last, bytes(buf))

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
        then updated by a SINGLE block write, so a same-directory rename is
        atomic.  No entry straddles two blocks, so any mix of old and new
        blocks reads as whole entries.

        A directory already named on the device changes its block count in
        a landing of its own: it grows by blank blocks, landed with the
        inode that names them before any entry goes into them, and it
        shrinks once its entries have landed, so every name stays reachable
        at every crash point.  A directory born since the last landing is
        reached only by a name that lands after it, and needs neither.
        """
        ordered = sorted(entries.items())
        bs = self.sb.block_size
        data = "\n".join(_encode_dirent(name, ino) for name, ino in ordered).encode("utf-8")
        if len(data) > bs:
            data = self._pack_dirents(ordered)
        new_size = max(bs, ((len(data) + bs - 1) // bs) * bs)
        padded = data.ljust(new_size, b"\n")
        old_size = inode.size
        settled = inode.ino not in self._born
        if settled and new_size > old_size:
            self._write_inode_data(inode, old_size, b"\n" * (new_size - old_size))
            self._put_inode(inode)
            self._land()
        self._write_inode_data(inode, 0, padded)
        if new_size < old_size:
            if settled:
                self._land()
            # the inode write is the commit point; the blocks it stops
            # naming are freed after it
            self._truncate_blocks(inode, new_size)
            inode.size = new_size
        now = self.clock.now()
        inode.mtime = now
        inode.ctime = now
        self._put_inode(inode)
        if self.cache.capacity:
            self._dcache[inode.ino] = (self.cache.epoch, dict(ordered))

    def _pack_dirents(self, ordered: list[tuple[str, int]]) -> bytes:
        """Entry lines of a directory longer than a block, each block padded
        ahead of a line that would straddle its end."""
        bs = self.sb.block_size
        blocks, block = [], b""
        for name, ino in ordered:
            line = _encode_dirent(name, ino).encode("utf-8") + b"\n"
            if block and len(block) + len(line) > bs:
                blocks.append(block.ljust(bs, b"\n"))
                block = b""
            block += line
        blocks.append(block)
        return b"".join(blocks)

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

    @_scoped
    def create(self, dir_ino: int, name: str, perm: int = 0o644, uid: int = 0) -> int:
        """Create an empty regular file; returns its inode number."""
        self._check_name(name)
        dir_inode = self.get_inode(dir_ino)
        inode = self._alloc_inode(FileType.REGULAR, perm=perm, uid=uid, nlink=1)
        try:
            self._add_entry(dir_inode, name, inode.ino)
        except FileExists:
            self._unref(inode.ino, outright=True)
            raise
        return inode.ino

    @_scoped
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
            self._unref(inode.ino, outright=True)
            raise
        parent = self.get_inode(dir_ino)
        parent.nlink += 1
        self._put_inode(parent)
        return inode.ino

    @_scoped
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
            self._unref(inode.ino, outright=True)
            raise
        return inode.ino

    def readlink(self, ino: int) -> str:
        inode = self.get_inode(ino)
        if inode.ftype != FileType.SYMLINK:
            raise InvalidArgument(f"inode {ino} is not a symlink")
        return self._read_inode_data(inode).decode("utf-8")

    @_scoped
    def link(self, ino: int, dir_ino: int, name: str) -> None:
        """Create a hard link to an existing file (not a directory)."""
        self._check_name(name)
        inode = self.get_inode(ino)
        if inode.is_dir:
            raise IsADirectory("hard links to directories are not allowed")
        dir_inode = self.get_inode(dir_ino)
        if name in self._read_dir_entries(dir_inode):
            raise FileExists(f"{name!r} already exists in directory {dir_ino}")
        # the count before the name (the inode table goes out before the
        # directory block): a crash between the two leaves a count one too
        # high (a leak ``fsck`` reports), never a second name whose inode an
        # unlink of the first one frees
        inode.nlink += 1
        inode.ctime = self.clock.now()
        self._put_inode(inode)
        self._add_entry(dir_inode, name, ino)

    @_scoped
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
        self._unref(inode.ino)

    @_scoped
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
        self._unref(target_ino, outright=True)
        self._unref(dir_ino)  # its ``..``

    @_scoped
    def rename(self, src_dir: int, src_name: str, dst_dir: int, dst_name: str) -> None:
        """Rename within the file system; replaces a non-directory target.

        A same-directory rename is applied as ONE directory rewrite (for a
        one-block directory, one block write), so it is atomic.  Any
        replaced target's inode is released only after the new directory
        state is on the device (a queued free).
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
            # cross-directory: add the new name first (directory blocks go
            # out in first-dirtied order) so a crash between the two writes
            # leaves the file reachable (never lost)
            if dst_name in dst_entries:
                entries = dict(dst_entries)
                entries[dst_name] = src_ino
                self._write_dir_entries(self.get_inode(dst_dir), entries)
                self.namecache.enter(dst_dir, dst_name, src_ino)
            else:
                self._add_entry(self.get_inode(dst_dir), dst_name, src_ino)
            self._remove_entry(self.get_inode(src_dir), src_name)

        if replaced_ino is not None:
            self._unref(replaced_ino)
        if src_inode.is_dir and src_dir != dst_dir:
            # fix .. and parent link counts
            entries = self._read_dir_entries(self.get_inode(src_ino))
            entries[".."] = dst_dir
            self._write_dir_entries(self.get_inode(src_ino), entries)
            self.namecache.remove(src_ino, "..")
            self._unref(src_dir)
            new_parent = self.get_inode(dst_dir)
            new_parent.nlink += 1
            self._put_inode(new_parent)

    # -- attributes & paths ---------------------------------------------------

    def getattr(self, ino: int) -> FileAttributes:
        return FileAttributes.from_inode(self.get_inode(ino))

    @_scoped
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
