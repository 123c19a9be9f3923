"""The UFS allocator picks the lowest free slot and writes what it always wrote.

``Ufs._alloc_inode`` / ``_alloc_block`` search from an in-memory lower
bound instead of from the first slot.  Two oracles hold that to the
from-slot-0 scan it replaced, both reading the device directly
(``BlockDevice.raw_block``) so neither shares code with the allocator:

* a hypothesis state machine: every inode and block an operation
  allocates is the lowest one free on disk at the moment it is taken,
  under remounts, cold caches and injected crashes, with ``fsck`` clean
  after every step of a history no crash has torn;
* a golden image: a fixed script ends with the device bytes and the
  device-write count recorded at the commit *before* the bounds existed.
"""

import copy
import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import CrashInjected, FicusError, NoSpace
from repro.physical.wire import AuxAttributes
from repro.storage import BlockDevice
from repro.ufs import ROOT_INO, Ufs, fsck
from repro.ufs.inode import Inode
from repro.ufs.layout import unpack_inode_slot
from repro.util import VirtualClock

# -- brute-force readers of the on-disk tables -----------------------------------


def free_inodes(fs: Ufs) -> list[int]:
    """Every free inode number, ascending, read from the raw device."""
    out = []
    for ino in range(ROOT_INO, fs.sb.num_inodes + 1):
        block, offset = fs.sb.inode_location(ino)
        mode = unpack_inode_slot(fs.device.raw_block(block)[offset:])[0]
        if mode >> 12 == 0:
            out.append(ino)
    return out


def free_blocks(fs: Ufs) -> list[int]:
    """Every free data block, ascending, read from the raw device."""
    bits = b"".join(fs.device.raw_block(b) for b in range(fs.sb.bitmap_start, fs.sb.data_start))
    return [
        fs.sb.data_start + i
        for i in range(fs.sb.num_blocks - fs.sb.data_start)
        if not (bits[i >> 3] >> (i & 7)) & 1
    ]


def watch_allocations(fs: Ufs) -> Ufs:
    """Wrap both allocators of ``fs``: each call must return the lowest
    slot that is free on the device at that moment, or raise ``NoSpace``
    only when none is."""

    def checked(allocate, scan):
        def call(*args, **kwargs):
            lowest = scan(fs)[:1]
            try:
                got = allocate(*args, **kwargs)
            except NoSpace:
                assert not lowest, f"NoSpace with {lowest} free"
                raise
            assert [getattr(got, "ino", got)] == lowest
            return got

        return call

    fs._alloc_inode = checked(fs._alloc_inode, free_inodes)
    fs._alloc_block = checked(fs._alloc_block, free_blocks)
    return fs


# -- (i) lowest-free under every interleaving --------------------------------------

names = st.sampled_from([f"n{i}" for i in range(5)])
dirs = st.sampled_from(["", "d0", "d1"])
sizes = st.sampled_from([0, 1, 100, 700, 3200, 5000])


class AllocMachine(RuleBasedStateMachine):
    """One small ``Ufs`` driven through namespace and data operations,
    remounts, cold caches and injected crashes.

    Two geometries, so both walks cross their block boundaries: 512-byte
    blocks hold four inode slots each; 128-byte blocks hold 1 024 bitmap
    bits each, and ballast files fill the first bitmap block so that the
    machine allocates on both sides of it.
    """

    #: every rule but ``recover`` needs a device that has not crashed
    alive = precondition(lambda self: not self.crashed)

    def __init__(self):
        super().__init__()
        self.crashed = False
        self.torn = False
        self.ballast = []

    @initialize(small_blocks=st.booleans())
    def mkfs(self, small_blocks):
        if small_blocks:
            fs = Ufs.mkfs(BlockDevice(2600, block_size=128), num_inodes=40, cache_blocks=16)
            # two holders, so that every directory stays within one block
            # and a torn rewrite cannot splice two generations of dirents
            for holder in ("ballast0", "ballast1"):
                fs.mkdir(ROOT_INO, holder)
            for i in range(23):
                holder = f"ballast{i % 2}"
                ino = fs.create(fs.lookup(ROOT_INO, holder), f"b{i}")
                fs.write_file(ino, 0, b"b" * (44 * 128))
                self.ballast.append((holder, f"b{i}"))
        else:
            fs = Ufs.mkfs(BlockDevice(300, block_size=512), num_inodes=40, cache_blocks=16)
        self.fs = watch_allocations(fs)

    def _dir(self, name: str) -> int:
        return self.fs.lookup(ROOT_INO, name) if name else ROOT_INO

    def _step(self, op) -> None:
        try:
            op()
        except CrashInjected:
            self.crashed = self.torn = True
        except FicusError:
            pass

    # -- operations --

    @alive
    @rule(parent=dirs, name=names)
    def create(self, parent, name):
        self._step(lambda: self.fs.create(self._dir(parent), name))

    @alive
    @rule(name=st.sampled_from(["d0", "d1"]))
    def mkdir(self, name):
        self._step(lambda: self.fs.mkdir(ROOT_INO, name))

    @alive
    @rule(parent=dirs, name=names, offset=sizes, size=sizes)
    def write(self, parent, name, offset, size):
        self._step(
            lambda: self.fs.write_file(
                self.fs.lookup(self._dir(parent), name), offset, bytes([size % 251]) * size
            )
        )

    @alive
    @rule(parent=dirs, name=names, size=sizes)
    def rewrite(self, parent, name, size):
        # truncate(0) + write in one step: frees, then re-allocates
        def replace():
            ino = self.fs.lookup(self._dir(parent), name)
            self.fs.truncate_file(ino, 0)
            self.fs.write_file(ino, 0, b"r" * size)

        self._step(replace)

    @alive
    @rule(parent=dirs, name=names, size=sizes)
    def truncate(self, parent, name, size):
        self._step(lambda: self.fs.truncate_file(self.fs.lookup(self._dir(parent), name), size))

    @alive
    @rule(parent=dirs, name=names)
    def overwrite_same_size(self, parent, name):
        # what the store's in-place record replace does; the clock never
        # moves here, so a second one in a row also skips the inode write
        def overwrite():
            ino = self.fs.lookup(self._dir(parent), name)
            self.fs.write_file(ino, 0, b"o" * self.fs.getattr(ino).size)

        self._step(overwrite)

    @alive
    @rule(parent=dirs, name=names)
    def truncate_to_current_size(self, parent, name):
        # returns before touching anything, so not even a planned crash fires
        def truncate():
            ino = self.fs.lookup(self._dir(parent), name)
            writes = self.fs.device.counters.writes
            self.fs.truncate_file(ino, self.fs.getattr(ino).size)
            assert self.fs.device.counters.writes == writes

        self._step(truncate)

    @alive
    @rule(parent=dirs, name=names)
    def unlink(self, parent, name):
        self._step(lambda: self.fs.unlink(self._dir(parent), name))

    @precondition(lambda self: not self.crashed and self.ballast)
    @rule()
    def drop_ballast(self):
        holder, name = self.ballast.pop(0)
        self._step(lambda: self.fs.unlink(self._dir(holder), name))

    @alive
    @rule(name=st.sampled_from(["d0", "d1"]))
    def rmdir(self, name):
        self._step(lambda: self.fs.rmdir(ROOT_INO, name))

    @alive
    @rule(src_dir=dirs, src=names, dst_dir=dirs, dst=names)
    def rename(self, src_dir, src, dst_dir, dst):
        self._step(lambda: self.fs.rename(self._dir(src_dir), src, self._dir(dst_dir), dst))

    @alive
    @rule(src_dir=dirs, src=names, dst_dir=dirs, dst=names)
    def link(self, src_dir, src, dst_dir, dst):
        self._step(
            lambda: self.fs.link(self.fs.lookup(self._dir(src_dir), src), self._dir(dst_dir), dst)
        )

    # -- the environment --

    @alive
    @rule()
    def remount(self):
        self.fs = watch_allocations(self.fs.remount())

    @alive
    @rule()
    def cold_cache(self):
        self.fs.cache.invalidate_all()

    @alive
    @rule(writes=st.integers(min_value=0, max_value=12))
    def plan_crash(self, writes):
        self.fs.device.plan_crash_after_writes(writes)

    @precondition(lambda self: self.crashed)
    @rule(reboot=st.booleans())
    def recover(self, reboot):
        # E7's crash sweep recovers the device and keeps using the same
        # mounted Ufs, so what it holds in memory must survive a torn op
        self.fs.device.recover()
        if reboot:
            self.fs = watch_allocations(self.fs.remount())
        self.crashed = False

    @invariant()
    def fsck_clean_after_completed_steps(self):
        # UFS has no journal: a torn op may leak a block or an inode (the
        # Ficus layer's recovery sweep repairs what it owns), so structure
        # is only required of histories whose every step completed
        if not self.torn:
            report = fsck(self.fs)
            assert report.clean, report.problems


TestAllocMachine = AllocMachine.TestCase
TestAllocMachine.settings = settings(
    max_examples=30,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def test_bounds_survive_a_crash_at_every_write_without_a_remount():
    """E7's sweep recovers the device and keeps the mounted ``Ufs``: a
    bound that moved for a write that never landed would make the next
    allocation skip a free slot."""
    crash_point = 0
    while True:
        fs = watch_allocations(Ufs.mkfs(BlockDevice(64, block_size=256), num_inodes=16))
        fs.device.plan_crash_after_writes(crash_point)
        try:
            ino = fs.create(ROOT_INO, "f")
            fs.write_file(ino, 0, b"x" * 4000)  # into the indirect block
            fs.unlink(ROOT_INO, "f")
            completed = True
        except CrashInjected:
            completed = False
        fs.device.recover()
        fs.write_file(fs.create(ROOT_INO, "g"), 0, b"y" * 4000)
        if completed:
            break
        crash_point += 1
    assert crash_point > 30  # the sweep really covered the sequence


# -- (ii) the golden image ----------------------------------------------------------

#: sha256 over every device block after :func:`golden_script` — recorded
#: at the commit before the allocation bounds, ``Inode.clone`` and the
#: decoded directory (45596cc), and never re-recorded since.
GOLDEN_SHA256 = "678cf40334f8110e9b0e88d9ab54f2ee6b909328782b84a1579be3496a603848"
#: ``device.counters.writes`` after the same script: 10 332 at 45596cc,
#: re-recorded when ``_put_inode`` stopped writing a byte-identical slot
#: and ``truncate_file`` a file already that long.  The image above did
#: not move, which is the byte-level proof that the 28 writes that went
#: were redundant: the same final disk from fewer writes.  10 304 → 10 254
#: when ``_alloc_inode`` took the link count: ``create`` and ``symlink``
#: write the new inode once, not once with ``nlink == 0`` and again at 1.
GOLDEN_WRITES = 10254


def golden_script() -> Ufs:
    """~200 fixed operations that allocate, free and re-allocate across
    inode-table and bitmap block boundaries (256-byte blocks: 2 inodes and
    2 048 bitmap bits per block), with remounts and cold caches between."""
    clock = VirtualClock()
    fs = Ufs.mkfs(BlockDevice(4800, block_size=256), num_inodes=96, clock=clock, cache_blocks=32)
    state = 12345

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return (state >> 8) % n

    dirs = [ROOT_INO] + [fs.mkdir(ROOT_INO, f"dir{i}") for i in range(3)]
    files: list[tuple[int, str]] = []
    # fill past the first bitmap block (2 048 bits) with maximum-size files
    for i in range(30):
        clock.advance(1.0)
        parent = dirs[i % len(dirs)]
        ino = fs.create(parent, f"big{i}")
        fs.write_file(ino, 0, bytes([i]) * (76 * 256))
        files.append((parent, f"big{i}"))
    for step in range(170):
        clock.advance(0.5)
        kind = draw(10)
        parent, name = files[draw(len(files))]
        if kind == 0:
            fs.unlink(parent, name)
            files.remove((parent, name))
        elif kind == 1:
            fs.truncate_file(fs.lookup(parent, name), draw(5000))
        elif kind in (2, 3):
            fs.write_file(fs.lookup(parent, name), draw(9000), bytes([step]) * draw(6000))
        elif kind == 4:
            target = (dirs[draw(len(dirs))], f"moved{step}")
            fs.rename(parent, name, *target)
            files[files.index((parent, name))] = target
        elif kind == 5:
            target = (dirs[draw(len(dirs))], f"link{step}")
            fs.link(fs.lookup(parent, name), *target)
            files.append(target)
        elif kind == 6:
            # replace an existing name: the displaced inode is freed
            other = files[draw(len(files))]
            if other != (parent, name) and fs.lookup(*other) != fs.lookup(parent, name):
                fs.rename(parent, name, *other)
                files.remove((parent, name))
        elif kind == 7:
            where = dirs[draw(len(dirs))]
            sub = fs.mkdir(where, f"sub{step}")
            fs.symlink(sub, "up", "../" + name)
            if draw(2):
                fs.unlink(sub, "up")
                fs.rmdir(where, f"sub{step}")
        elif kind == 8:
            fs = fs.remount() if draw(2) else fs
            fs.cache.invalidate_all()
        else:
            target = (dirs[draw(len(dirs))], f"new{step}")
            ino = fs.create(*target)
            fs.write_file(ino, 0, bytes([step]) * draw(4000))
            files.append(target)
    assert fsck(fs).clean
    return fs


@pytest.fixture(scope="module")
def golden() -> Ufs:
    return golden_script()


def test_golden_image_is_the_parents(golden):
    digest = hashlib.sha256()
    for blk in range(golden.device.num_blocks):
        digest.update(golden.device.raw_block(blk))
    assert (digest.hexdigest(), golden.device.counters.writes) == (GOLDEN_SHA256, GOLDEN_WRITES)


# -- the other users of the two table walks -------------------------------------------


def test_counts_and_fsck_read_the_tables_as_the_brute_force_readers_do(golden):
    fs = Ufs.mount(copy.deepcopy(golden.device))  # this test scribbles on the bitmap
    assert fs.free_inode_count() == len(free_inodes(fs))
    assert fs.free_block_count() == len(free_blocks(fs))
    # leak one block in each bitmap block: pass 2 must name exactly those
    leaked = [free_blocks(fs)[0], fs.sb.data_start + 2048 + 700, fs.sb.num_blocks - 1]
    for blk in leaked:
        bm_block, byte_off, bit = fs.sb.bitmap_location(blk)
        raw = bytearray(fs.device.raw_block(bm_block))
        raw[byte_off] |= 1 << bit
        fs.device.write_block(bm_block, bytes(raw))
    fs.cache.invalidate_all()
    assert fsck(fs).problems == [
        f"block {blk} marked used in bitmap but unreferenced" for blk in leaked
    ]
    assert fs.free_block_count() == len(free_blocks(fs))


def test_mount_decodes_no_inode(golden):
    fs = golden.remount()
    assert fs._icache == {}
    assert fs._next_generation == golden._next_generation


@pytest.mark.parametrize(
    "record",
    [Inode(ino=7), AuxAttributes(fh=None, etype=None)],
    ids=["Inode", "AuxAttributes"],
)
def test_clone_carries_every_field(record):
    """``clone`` spells the fields out positionally (that is what makes it
    cheap), so a field added later must be added there too."""
    for spec in dataclasses.fields(record):
        setattr(record, spec.name, [spec.name])
    clone = record.clone()
    assert clone == record
    assert all(getattr(clone, spec.name) == [spec.name] for spec in dataclasses.fields(record))
    if isinstance(record, Inode):
        assert clone.direct is not record.direct
