"""Unit tests for the UFS substrate."""

import itertools

import pytest

from repro.errors import (
    CrashInjected,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NoSpace,
    NotADirectory,
)
from repro.storage import BlockDevice
from repro.ufs import MAX_NAME_LEN, ROOT_INO, FileType, Ufs, fsck
from repro.ufs.inode import Inode
from repro.ufs.layout import INODE_SIZE, NDIRECT
from repro.util import VirtualClock


@pytest.fixture
def fs():
    return Ufs.mkfs(BlockDevice(4096), num_inodes=256)


class TestFiles:
    def test_create_and_read_empty(self, fs):
        ino = fs.create(ROOT_INO, "f")
        assert fs.read_file(ino) == b""
        assert fs.getattr(ino).ftype == FileType.REGULAR

    def test_write_and_read_back(self, fs):
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 0, b"hello")
        assert fs.read_file(ino) == b"hello"

    def test_write_at_offset_creates_hole(self, fs):
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 10000, b"tail")
        data = fs.read_file(ino)
        assert len(data) == 10004
        assert data[:10000] == bytes(10000)
        assert data[-4:] == b"tail"

    def test_overwrite_middle(self, fs):
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 0, b"a" * 100)
        fs.write_file(ino, 50, b"B" * 10)
        data = fs.read_file(ino)
        assert data[49:61] == b"a" + b"B" * 10 + b"a"

    def test_partial_read(self, fs):
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 0, b"0123456789")
        assert fs.read_file(ino, 3, 4) == b"3456"
        assert fs.read_file(ino, 8, 100) == b"89"
        assert fs.read_file(ino, 100, 5) == b""

    def test_large_file_uses_indirect_blocks(self, fs):
        ino = fs.create(ROOT_INO, "f")
        big = bytes(range(256)) * 300  # ~75 KB > 12 direct 4K blocks
        fs.write_file(ino, 0, big)
        assert fs.read_file(ino) == big
        assert fs.get_inode(ino).indirect != 0
        assert fsck(fs).clean

    def test_file_size_limit_enforced(self, fs):
        ino = fs.create(ROOT_INO, "f")
        max_blocks = 12 + fs.sb.pointers_per_block
        with pytest.raises(NoSpace):
            fs.write_file(ino, max_blocks * fs.sb.block_size, b"x")

    def test_truncate_shrinks_and_frees(self, fs):
        ino = fs.create(ROOT_INO, "f")
        free_before = fs.free_block_count()
        fs.write_file(ino, 0, b"z" * 100000)
        fs.truncate_file(ino, 10)
        assert fs.read_file(ino) == b"z" * 10
        assert fs.free_block_count() == free_before - 1
        assert fsck(fs).clean

    def test_truncate_then_extend_reads_zeros(self, fs):
        """Old bytes must never resurface past a truncation point."""
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 0, b"secret-data!")
        fs.truncate_file(ino, 6)
        fs.write_file(ino, 12, b"new")
        assert fs.read_file(ino) == b"secret" + bytes(6) + b"new"

    def test_a_fresh_block_never_shows_a_previous_owners_bytes(self, fs):
        """A short write into a block just allocated starts from zeros, so
        growing the file past it reads zeros, not the freed file's data."""
        old = fs.create(ROOT_INO, "old")
        fs.write_file(old, 0, b"S" * 4096)
        fs.unlink(ROOT_INO, "old")
        ino = fs.create(ROOT_INO, "new")
        fs.write_file(ino, 0, b"hi")
        fs.truncate_file(ino, 4096)
        assert fs.read_file(ino) == b"hi" + bytes(4094)

    def test_duplicate_create_rejected_without_leak(self, fs):
        fs.create(ROOT_INO, "f")
        free = fs.free_inode_count()
        with pytest.raises(FileExists):
            fs.create(ROOT_INO, "f")
        assert fs.free_inode_count() == free

    def test_atomic_contents_replace(self, fs):
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 0, b"long old contents" * 10)
        fs.truncate_file(ino, 0)
        fs.write_file(ino, 0, b"new")
        assert fs.read_file(ino) == b"new"


class TestDirectories:
    def test_mkdir_has_dot_entries(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        entries = fs.readdir(d)
        assert entries["."] == d
        assert entries[".."] == ROOT_INO

    def test_nested_path_lookup(self, fs):
        a = fs.mkdir(ROOT_INO, "a")
        b = fs.mkdir(a, "b")
        f = fs.create(b, "c.txt")
        assert fs.path_lookup("/a/b/c.txt") == f
        assert fs.path_lookup("b/c.txt", base=a) == f

    def test_lookup_missing_raises(self, fs):
        with pytest.raises(FileNotFound):
            fs.lookup(ROOT_INO, "ghost")

    def test_lookup_through_file_raises(self, fs):
        f = fs.create(ROOT_INO, "f")
        with pytest.raises(NotADirectory):
            fs.lookup(f, "x")

    def test_rmdir_only_when_empty(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        fs.create(d, "f")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir(ROOT_INO, "d")
        fs.unlink(d, "f")
        fs.rmdir(ROOT_INO, "d")
        with pytest.raises(FileNotFound):
            fs.lookup(ROOT_INO, "d")
        assert fsck(fs).clean

    def test_rmdir_dot_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.rmdir(ROOT_INO, ".")

    def test_nlink_accounting_for_subdirs(self, fs):
        assert fs.get_inode(ROOT_INO).nlink == 2
        fs.mkdir(ROOT_INO, "d1")
        fs.mkdir(ROOT_INO, "d2")
        assert fs.get_inode(ROOT_INO).nlink == 4

    def test_name_too_long(self, fs):
        with pytest.raises(NameTooLong):
            fs.create(ROOT_INO, "x" * (MAX_NAME_LEN + 1))
        fs.create(ROOT_INO, "x" * MAX_NAME_LEN)  # exactly at the limit is fine

    def test_names_with_odd_characters(self, fs):
        for name in ["a b", "a=b", "café", "a\\b", ".hidden"]:
            ino = fs.create(ROOT_INO, name)
            assert fs.lookup(ROOT_INO, name) == ino

    def test_slash_and_nul_rejected(self, fs):
        with pytest.raises(InvalidArgument):
            fs.create(ROOT_INO, "a/b")
        with pytest.raises(InvalidArgument):
            fs.create(ROOT_INO, "a\x00b")


class TestLinks:
    def test_hard_link_shares_data(self, fs):
        ino = fs.create(ROOT_INO, "orig")
        fs.write_file(ino, 0, b"shared")
        fs.link(ino, ROOT_INO, "alias")
        assert fs.path_lookup("/alias") == ino
        assert fs.get_inode(ino).nlink == 2

    def test_unlink_keeps_data_until_last_link(self, fs):
        ino = fs.create(ROOT_INO, "orig")
        fs.write_file(ino, 0, b"d")
        fs.link(ino, ROOT_INO, "alias")
        fs.unlink(ROOT_INO, "orig")
        assert fs.read_file(ino) == b"d"
        fs.unlink(ROOT_INO, "alias")
        with pytest.raises(FileNotFound):
            fs.get_inode(ino)
        assert fsck(fs).clean

    def test_link_to_directory_rejected(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        with pytest.raises(IsADirectory):
            fs.link(d, ROOT_INO, "dlink")

    def test_unlink_directory_rejected(self, fs):
        fs.mkdir(ROOT_INO, "d")
        with pytest.raises(IsADirectory):
            fs.unlink(ROOT_INO, "d")

    def test_symlink_round_trip(self, fs):
        s = fs.symlink(ROOT_INO, "lnk", "/a/b/c")
        assert fs.readlink(s) == "/a/b/c"
        assert fs.getattr(s).ftype == FileType.SYMLINK

    def test_readlink_on_regular_file_rejected(self, fs):
        f = fs.create(ROOT_INO, "f")
        with pytest.raises(InvalidArgument):
            fs.readlink(f)


class TestRename:
    def test_simple_rename(self, fs):
        ino = fs.create(ROOT_INO, "old")
        fs.rename(ROOT_INO, "old", ROOT_INO, "new")
        assert fs.path_lookup("/new") == ino
        with pytest.raises(FileNotFound):
            fs.lookup(ROOT_INO, "old")

    def test_rename_across_directories_fixes_dotdot(self, fs):
        a = fs.mkdir(ROOT_INO, "a")
        b = fs.mkdir(ROOT_INO, "b")
        d = fs.mkdir(a, "d")
        fs.rename(a, "d", b, "d")
        assert fs.readdir(d)[".."] == b
        assert fs.get_inode(a).nlink == 2
        assert fs.get_inode(b).nlink == 3
        assert fsck(fs).clean

    def test_rename_replaces_file_target(self, fs):
        src = fs.create(ROOT_INO, "src")
        fs.write_file(src, 0, b"src")
        dst = fs.create(ROOT_INO, "dst")
        fs.write_file(dst, 0, b"dst")
        fs.rename(ROOT_INO, "src", ROOT_INO, "dst")
        assert fs.read_file(fs.path_lookup("/dst")) == b"src"
        with pytest.raises(FileNotFound):
            fs.get_inode(dst)
        assert fsck(fs).clean

    def test_rename_onto_directory_rejected(self, fs):
        fs.create(ROOT_INO, "f")
        fs.mkdir(ROOT_INO, "d")
        with pytest.raises(IsADirectory):
            fs.rename(ROOT_INO, "f", ROOT_INO, "d")

    def test_a_directory_never_moves_into_its_own_subtree(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        sub = fs.mkdir(d, "sub")
        for into in (d, sub):
            with pytest.raises(InvalidArgument):
                fs.rename(ROOT_INO, "d", into, "x")
        assert fs.readdir(ROOT_INO)["d"] == d and fs.readdir(sub)[".."] == d
        fs.rename(d, "sub", ROOT_INO, "up")  # out of it is fine
        assert fs.readdir(sub)[".."] == ROOT_INO and fsck(fs).clean

    def test_dot_and_dotdot_are_never_renamed(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        fs.create(d, "f")
        for args in ((d, ".", d, "x"), (d, "..", d, "y"), (d, "f", d, "."), (d, "f", ROOT_INO, "..")):
            with pytest.raises(InvalidArgument):
                fs.rename(*args)
        assert sorted(fs.readdir(d)) == [".", "..", "f"] and fsck(fs).clean

    def test_a_rename_onto_another_name_of_the_same_file_changes_nothing(self, fs):
        ino = fs.create(ROOT_INO, "a")
        fs.link(ino, ROOT_INO, "b")
        for dst in ("b", "a"):
            fs.rename(ROOT_INO, "a", ROOT_INO, dst)
            assert fs.readdir(ROOT_INO)["a"] == fs.readdir(ROOT_INO)["b"] == ino
        assert fsck(fs).clean


class TestPersistence:
    def test_remount_preserves_everything(self, fs):
        a = fs.mkdir(ROOT_INO, "a")
        f = fs.create(a, "f")
        fs.write_file(f, 0, b"persisted" * 100)
        fs2 = fs.remount()
        assert fs2.read_file(fs2.path_lookup("/a/f")) == b"persisted" * 100
        assert fsck(fs2).clean

    def test_generation_numbers_advance_across_remount(self, fs):
        f1 = fs.create(ROOT_INO, "f1")
        gen1 = fs.get_inode(f1).generation
        fs.unlink(ROOT_INO, "f1")
        fs2 = fs.remount()
        f2 = fs2.create(ROOT_INO, "f2")
        assert fs2.get_inode(f2).generation > gen1


class TestCaching:
    def test_warm_reopen_costs_zero_ios(self):
        """Paper Section 6: opening a recently accessed file involves no
        overhead not already incurred by the normal Unix file system —
        here, zero device I/Os for a fully warm cache."""
        dev = BlockDevice(4096)
        fs = Ufs.mkfs(dev, num_inodes=128)
        d = fs.mkdir(ROOT_INO, "d")
        f = fs.create(d, "f")
        fs.write_file(f, 0, b"data")
        fs.read_file(fs.path_lookup("/d/f"))  # warm everything
        snap = dev.counters.snapshot()
        fs.read_file(fs.path_lookup("/d/f"))
        assert dev.counters.delta_since(snap).total == 0

    def test_cold_lookup_reads_disk(self):
        dev = BlockDevice(4096)
        fs = Ufs.mkfs(dev, num_inodes=128)
        d = fs.mkdir(ROOT_INO, "d")
        fs.create(d, "f")
        fs.cache.invalidate_all()
        fs.namecache.invalidate_all()
        snap = dev.counters.snapshot()
        fs.path_lookup("/d/f")
        assert dev.counters.delta_since(snap).reads > 0

    def test_namecache_invalidated_on_unlink(self, fs):
        f = fs.create(ROOT_INO, "f")
        assert fs.lookup(ROOT_INO, "f") == f
        fs.unlink(ROOT_INO, "f")
        with pytest.raises(FileNotFound):
            fs.lookup(ROOT_INO, "f")

    def test_zero_capacity_caches_still_correct(self):
        dev = BlockDevice(4096)
        fs = Ufs.mkfs(dev, num_inodes=64, cache_blocks=0, name_cache_size=0)
        f = fs.create(ROOT_INO, "f")
        fs.write_file(f, 0, b"no caching")
        assert fs.read_file(fs.path_lookup("/f")) == b"no caching"


class TestLazyTimes:
    """A change of an inode's times alone writes no inode-table block: the
    block's next real change carries them, every read sees them, and they
    are exactly as durable as a held block."""

    @staticmethod
    def settled(cache_blocks: int = 256) -> tuple[Ufs, VirtualClock, int]:
        """A file of 100 bytes whose inode landed at time 1.0; the clock is
        then at 2.0."""
        clock = VirtualClock()
        fs = Ufs.mkfs(BlockDevice(512), num_inodes=32, clock=clock, cache_blocks=cache_blocks)
        clock.advance(1.0)
        ino = fs.create(ROOT_INO, "f")
        fs.write_file(ino, 0, b"a" * 100)
        clock.advance(1.0)
        return fs, clock, ino

    @staticmethod
    def table_writes(fs: Ufs) -> list[int]:
        written: list[int] = []
        write_block = fs.device.write_block

        def record(blockno: int, data: bytes) -> None:
            write_block(blockno, data)
            if fs.sb.inode_table_start <= blockno < fs.sb.bitmap_start:
                written.append(blockno)

        fs.device.write_block = record
        return written

    @staticmethod
    def device_times(fs: Ufs, ino: int) -> tuple[float, float]:
        """(mtime, ctime) of the inode's slot as the device holds it."""
        block, offset = fs.sb.inode_location(ino)
        inode = Inode.unpack(ino, fs.device.raw_block(block)[offset : offset + INODE_SIZE])
        return inode.mtime, inode.ctime

    @pytest.mark.parametrize("cache_blocks", [256, 0])
    def test_a_same_size_write_writes_no_table_block_and_stat_sees_its_time(self, cache_blocks):
        fs, clock, ino = self.settled(cache_blocks)
        written = self.table_writes(fs)
        fs.write_file(ino, 0, b"b" * 100)
        assert written == []
        assert self.device_times(fs, ino) == (1.0, 1.0)
        attrs = fs.getattr(ino)
        assert (attrs.mtime, attrs.ctime) == (2.0, 2.0)
        # a cold buffer cache forgets no time (at capacity 0 nothing is cached)
        fs.cache.invalidate_all()
        attrs = fs.getattr(ino)
        assert (attrs.mtime, attrs.ctime, attrs.size) == (2.0, 2.0, 100)
        assert fs.read_file(ino) == b"b" * 100

    def test_a_neighbours_real_change_carries_the_time(self):
        fs, clock, ino = self.settled()
        fs.write_file(ino, 0, b"b" * 100)
        neighbour = fs.create(ROOT_INO, "g")
        assert fs.sb.inode_location(neighbour)[0] == fs.sb.inode_location(ino)[0]
        assert self.device_times(fs, ino) == (2.0, 2.0)
        clock.advance(1.0)
        # and a time-only change to a block already held goes into its image
        with fs.operation():
            fs.setattr(neighbour, perm=0o600)
            fs.write_file(ino, 0, b"c" * 100)
        assert self.device_times(fs, ino) == (3.0, 3.0)

    def test_a_remount_rolls_the_time_back_to_the_last_landing(self):
        fs, clock, ino = self.settled()
        fs.write_file(ino, 0, b"b" * 100)
        fs = fs.remount()
        attrs = fs.getattr(ino)
        assert (attrs.mtime, attrs.ctime) == (1.0, 1.0)
        assert fs.read_file(ino) == b"b" * 100
        assert fsck(fs).clean

    def test_no_space_leaves_no_time_from_the_abandoned_operation(self):
        fs, clock, ino = self.settled()
        big = fs.create(ROOT_INO, "big")
        with pytest.raises(NoSpace):
            with fs.operation():
                fs.write_file(ino, 0, b"b" * 100)
                fs.write_file(big, 0, bytes(fs.sb.block_size * fs.sb.num_blocks))
        attrs = fs.getattr(ino)
        assert (attrs.mtime, attrs.ctime) == (1.0, 1.0)
        assert fs.read_file(ino) == b"a" * 100
        assert fsck(fs).clean

    def test_a_read_writes_nothing_and_atime_is_the_birth_time(self):
        fs, clock, ino = self.settled()
        d = fs.mkdir(ROOT_INO, "d")
        clock.advance(1.0)
        writes = fs.device.counters.writes
        fs.read_file(ino)
        fs.readdir(d)
        fs.readdir(d)  # the decoded directory's path
        assert fs.device.counters.writes == writes
        fs.create(d, "x")  # reads d's entries, then rewrites them
        attrs = fs.getattr(d)
        assert (attrs.atime, attrs.mtime) == (2.0, 3.0)
        assert fs.getattr(ino).atime == 1.0


class TestSpaceExhaustion:
    def test_out_of_inodes(self):
        fs = Ufs.mkfs(BlockDevice(4096), num_inodes=4)
        fs.create(ROOT_INO, "a")
        fs.create(ROOT_INO, "b")
        with pytest.raises(NoSpace):
            fs.create(ROOT_INO, "c")  # inodes 1,2 reserved; 3,4 used

    def test_out_of_blocks(self):
        fs = Ufs.mkfs(BlockDevice(16), num_inodes=8)
        ino = fs.create(ROOT_INO, "big")
        with pytest.raises(NoSpace):
            fs.write_file(ino, 0, bytes(fs.sb.block_size * 100))

    def test_fsck_clean_after_enospc(self):
        fs = Ufs.mkfs(BlockDevice(16), num_inodes=8)
        ino = fs.create(ROOT_INO, "big")
        try:
            fs.write_file(ino, 0, bytes(fs.sb.block_size * 100))
        except NoSpace:
            pass
        # the call ran out of space: none of its writes landed, so the file
        # is as it was and block accounting agrees
        assert fs.read_file(ino) == b""
        assert fsck(fs).clean


def crash_sweep(prepare, operation):
    """Run ``operation`` on a fresh file system crashed after each of its
    device writes in turn: yields ``(remounted fs, what prepare returned,
    completed)`` per crash point, the last one the run that completed."""
    for crash_point in itertools.count():
        device = BlockDevice(512)
        fs = Ufs.mkfs(device, num_inodes=128)
        state = prepare(fs)
        device.plan_crash_after_writes(crash_point)
        try:
            operation(fs, state)
        except CrashInjected:
            pass
        completed = not device.failed
        device.recover()
        yield Ufs.mount(device), state, completed
        if completed:
            return


def only_leaks(fs: Ufs) -> bool:
    """``fsck`` finds nothing but leaks: no name of a free inode, no block
    in use but free, none claimed twice."""
    return all(any(leak in p for leak in ("unreachable", "unreferenced", "nlink")) for p in fsck(fs).problems)


def link_names(fs: Ufs, count: int) -> tuple[int, list[str]]:
    """A directory ``/d`` of ``count`` 197-byte lines, 20 to a 4 KiB block
    (hard links to one file)."""
    d = fs.mkdir(ROOT_INO, "d")
    target = fs.create(ROOT_INO, "target")
    names = [f"m{i:02d}" + "m" * 190 for i in range(count)]
    for name in names:
        fs.link(target, d, name)
    return d, names


def names_by_block(fs: Ufs, directory: int) -> list[set[str]]:
    """The names each block of a directory holds on the device."""
    return [
        {line.rpartition(" ")[0] for line in fs.device.raw_block(blk).decode().split("\n") if line}
        for blk in fs._file_blocks(fs.get_inode(directory))
    ]


class TestDirectoryBlocks:
    """An entry keeps its block for life: a change of a name writes the one
    block holding it, and every other name stays in its block."""

    def test_an_add_a_remove_and_a_rename_each_write_one_directory_block(self, fs):
        d, names = link_names(fs, 50)
        assert fs.get_inode(d).size == 3 * fs.sb.block_size
        written = TestOperationScope.recording(fs.device)
        steps = [
            lambda: fs.create(d, "new"),
            lambda: fs.unlink(d, names[30]),
            lambda: fs.rename(d, names[45], d, "r" + names[45][1:]),
            lambda: fs.rename(d, "new", d, "renamed"),
        ]
        for step in steps:
            before = names_by_block(fs, d)
            written.clear()
            step()
            blocks = fs._file_blocks(fs.get_inode(d))
            assert len([blk for blk in written if blk in blocks]) == 1
            after = names_by_block(fs, d)
            assert sum(old != new for old, new in zip(before, after)) == 1
        assert names_by_block(fs, d)[0] >= {".", "..", "renamed"} and fsck(fs).clean

    def test_an_add_reads_only_the_block_it_writes(self, fs):
        """Room is found from the decoded blocks: an add to a 12-block
        directory whose only room is its last block reads that block and
        no other directory block."""
        d, names = link_names(fs, 225)
        blocks = fs._file_blocks(fs.get_inode(d))
        assert len(blocks) == 12 and len(names_by_block(fs, d)[-1]) == 5
        read, real = [], fs.cache.read
        fs.cache.read = lambda blockno: read.append(blockno) or real(blockno)
        fs.create(d, "n" * 193)
        assert [blk for blk in read if blk in blocks] == [blocks[-1]]
        assert "n" * 193 in names_by_block(fs, d)[-1] and fsck(fs).clean

    def test_only_trailing_empty_blocks_are_freed(self, fs):
        d, names = link_names(fs, 50)
        for name in names[20:40]:  # the middle block goes blank and stays
            fs.unlink(d, name)
        assert fs.get_inode(d).size == 3 * fs.sb.block_size and not names_by_block(fs, d)[1]
        for name in names[40:]:  # the last one empties: both trailing blocks go
            fs.unlink(d, name)
        assert fs.get_inode(d).size == fs.sb.block_size
        assert set(fs.readdir(d)) == {".", ".."} | set(names[:20]) and fsck(fs).clean
        fs.create(d, "n" * 200)  # block 0 is full: a fresh block again
        assert fs.get_inode(d).size == 2 * fs.sb.block_size and fsck(fs).clean


class TestCrashOrdering:
    def test_an_add_into_a_two_block_directory_keeps_every_other_name(self):
        """25 names over two blocks gain one long name that sorts before all
        of them: at every crash point every other name is still there (a
        sorted rewrite pushed a name into the next block, and a crash
        between the two block writes lost it)."""

        def prepare(fs):
            d, names = link_names(fs, 25)
            assert fs.get_inode(d).size == 2 * fs.sb.block_size
            return d, names

        points = 0
        for fs, (d, names), completed in crash_sweep(prepare, lambda fs, state: fs.create(state[0], "a" * 250)):
            entries = fs.readdir(d)
            assert set(names) <= set(entries), points
            assert only_leaks(fs), points
            points += 1
        assert "a" * 250 in entries and fsck(fs).clean and points > 1

    def test_a_rename_moving_a_line_to_another_block_shows_one_name_or_both(self):
        """A same-directory rename whose longer line no longer fits the full
        block of the old name: the new name's block is written first, so
        at every crash point the file has one name or both, never neither."""
        long_name = "g" * 200

        def prepare(fs):
            d = fs.mkdir(ROOT_INO, "d")
            moved = fs.create(d, "f")
            target = fs.create(ROOT_INO, "target")
            for i in range(25):
                fs.link(target, d, f"m{i:02d}" + "m" * 190)
            assert "f" in names_by_block(fs, d)[0] and fs.get_inode(d).size == 2 * fs.sb.block_size
            return d, moved

        points, seen = 0, set()
        for fs, (d, moved), completed in crash_sweep(prepare, lambda fs, state: fs.rename(state[0], "f", state[0], long_name)):
            entries = fs.readdir(d)
            names = {name for name in ("f", long_name) if entries.get(name) == moved}
            assert names, points
            seen.add(frozenset(names))
            assert len(entries) - len(names) == 27, points
            assert only_leaks(fs), points
            points += 1
        assert names == {long_name} and names_by_block(fs, d)[1] >= {long_name} and fsck(fs).clean
        assert {"f", long_name} in seen

    def test_an_unlink_shrinking_a_directory_keeps_every_other_name(self):
        """A directory of two blocks goes back to one: the last name of its
        trailing block goes with the inode that stops naming the block, and
        every other name stays where it is at every crash point."""

        def prepare(fs):
            d = fs.mkdir(ROOT_INO, "d")
            target = fs.create(ROOT_INO, "target")
            names = []
            while fs.get_inode(d).size <= fs.sb.block_size:
                names.append(f"{len(names):02d}" + "n" * 200)
                fs.link(target, d, names[-1])
            return d, names

        points = 0
        for fs, (d, names), completed in crash_sweep(prepare, lambda fs, state: fs.unlink(state[0], state[1][-1])):
            entries = fs.readdir(d)
            assert set(entries) - {".", "..", names[-1]} == set(names[:-1]), points
            assert only_leaks(fs), points
            points += 1
        assert names[-1] not in entries and fs.get_inode(d).size == fs.sb.block_size and fsck(fs).clean
        assert points > 3

    def test_an_append_past_an_indirect_block_never_reuses_a_free_block(self):
        """The indirect block gains its pointer after the bitmap takes the
        block: remount at every crash point, write past the end again, and
        nothing is in use but free, nor claimed twice."""
        bs = 4096

        def prepare(fs):
            ino = fs.create(ROOT_INO, "big")
            fs.write_file(ino, 0, bytes(bs * (NDIRECT + 1)))
            return ino

        points = 0
        for fs, ino, completed in crash_sweep(prepare, lambda fs, ino: fs.write_file(ino, (NDIRECT + 1) * bs, b"x" * bs)):
            size = fs.get_inode(ino).size
            fs.write_file(ino, size, b"y" * bs)
            other = fs.create(ROOT_INO, "other")
            fs.write_file(other, 0, b"z" * bs)
            assert only_leaks(fs), points
            assert fs.read_file(ino, size) == b"y" * bs and fs.read_file(other) == b"z" * bs
            points += 1
        assert completed and fsck(fs).clean and size == (NDIRECT + 2) * bs

    def test_a_group_growing_a_directory_names_only_written_inodes(self):
        """One operation creates files whose inodes span two inode-table
        blocks in a directory that grows a block on the way (a grouped pull
        into a full directory): no crash point leaves a name of a free
        inode, and every older name stays."""

        def prepare(fs):
            # the group's first inodes share the directory's table block
            d = fs.mkdir(ROOT_INO, "d")
            while fs.create(ROOT_INO, f"f{fs.free_inode_count()}") < fs.sb.inodes_per_block - 4:
                pass
            pad = fs.create(ROOT_INO, "pad")
            names = []
            while fs.get_inode(d).size <= fs.sb.block_size:
                names.append(f"p{len(names):02d}" + "p" * 200)
                fs.link(pad, d, names[-1])
            fs.unlink(d, names.pop())
            return d, names

        def group(fs, state):
            with fs.operation():
                for i in range(40):
                    fs.create(state[0], f"x{i:02d}")

        points = 0
        for fs, (d, names), completed in crash_sweep(prepare, group):
            entries = fs.readdir(d)
            assert set(names) <= set(entries), points
            assert only_leaks(fs), points
            points += 1
        assert len(entries) == 2 + len(names) + 40 and fs.get_inode(d).size == 2 * fs.sb.block_size
        assert fsck(fs).clean

    def test_a_crashed_link_never_leaves_a_name_an_unlink_can_orphan(self):
        """``link`` writes the count before the name.  Crash it after each
        device write, remount, unlink the *first* name: a second name that
        reached the disk must still reach a live inode holding the data."""
        for crash_point in itertools.count():
            device = BlockDevice(512)
            fs = Ufs.mkfs(device, num_inodes=32)
            ino = fs.create(ROOT_INO, "first")
            fs.write_file(ino, 0, b"payload")
            other = fs.mkdir(ROOT_INO, "other")
            device.plan_crash_after_writes(crash_point)
            try:
                fs.link(ino, other, "second")
            except CrashInjected:
                pass
            completed = not device.failed
            device.recover()
            fs = Ufs.mount(device)
            fs.unlink(ROOT_INO, "first")
            if "second" in fs.readdir(fs.lookup(ROOT_INO, "other")):
                assert fs.read_file(fs.path_lookup("/other/second")) == b"payload"
            assert not any("free inode" in problem for problem in fsck(fs).problems)
            if completed:
                assert fsck(fs).clean
                break


class TestOperationScope:
    """``Ufs.operation``: an operation's blocks go to the device once each,
    in soft-update order, at its end; its frees after its names."""

    @staticmethod
    def recording(device: BlockDevice) -> list[int]:
        written: list[int] = []
        write_block = device.write_block

        def record(blockno: int, data: bytes) -> None:
            write_block(blockno, data)
            written.append(blockno)

        device.write_block = record
        return written

    @staticmethod
    def kind(fs: Ufs, blockno: int, directory: int) -> str:
        if blockno >= fs.sb.data_start:
            return "dir" if blockno in fs._file_blocks(fs.get_inode(directory)) else "data"
        return "bitmap" if blockno >= fs.sb.bitmap_start else "inode"

    def test_an_operation_writes_each_block_once_in_order(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        written = self.recording(fs.device)
        with fs.operation():
            for name in "abcd":
                fs.write_file(fs.create(d, name), 0, b"x" * 2048)
            assert written == []  # held until the end
        assert len(written) == len(set(written))
        kinds = [self.kind(fs, blockno, d) for blockno in written]
        # four data blocks, then the bitmap, the inode table, the directory
        assert kinds == ["data"] * 4 + ["bitmap", "inode", "dir"]
        assert sorted(fs.readdir(d)) == [".", "..", "a", "b", "c", "d"]
        assert fsck(fs).clean

    def test_a_crash_inside_an_operation_leaves_old_or_new(self):
        """A replace by rename-over inside one operation, crashed after every
        device write: the name reads the old contents or the new, and the
        only findings are leaks."""
        outcomes = []
        for crash_point in itertools.count():
            device = BlockDevice(512)
            fs = Ufs.mkfs(device, num_inodes=32)
            fs.write_file(fs.create(ROOT_INO, "f"), 0, b"old" * 2000)
            device.plan_crash_after_writes(crash_point)
            try:
                with fs.operation():
                    fs.write_file(fs.create(ROOT_INO, "f.new"), 0, b"new" * 2000)
                    fs.rename(ROOT_INO, "f.new", ROOT_INO, "f")
            except CrashInjected:
                pass
            completed = not device.failed
            device.recover()
            fs = Ufs.mount(device)
            assert sorted(fs.readdir(ROOT_INO)) == [".", "..", "f"]
            outcomes.append(fs.read_file(fs.lookup(ROOT_INO, "f"))[:3].decode())
            assert all("unreachable" in p or "unreferenced" in p for p in fsck(fs).problems), crash_point
            if completed:
                assert fsck(fs).clean
                break
        # old up to the one directory-block write, new from it on
        assert outcomes == sorted(outcomes, key="old new".split().index) and outcomes[0] == "old"
        assert outcomes[-1] == "new" and crash_point > 3

    def test_nothing_an_operation_frees_is_reused_inside_it(self, fs):
        ino = fs.create(ROOT_INO, "gone")
        fs.write_file(ino, 0, b"x" * 100)
        blocks = fs._file_blocks(fs.get_inode(ino))
        free_inodes, free_blocks = fs.free_inode_count(), fs.free_block_count()
        with fs.operation():
            fs.unlink(ROOT_INO, "gone")
            other = fs.create(ROOT_INO, "other")
            fs.write_file(other, 0, b"y" * 100)
            assert other != ino and not set(fs._file_blocks(fs.get_inode(other))) & set(blocks)
        # and once the operation is over, the frees are applied
        assert (fs.free_inode_count(), fs.free_block_count()) == (free_inodes, free_blocks)
        assert fsck(fs).clean
