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
from repro.ufs.layout import NDIRECT


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


class TestCrashOrdering:
    def test_an_unlink_shrinking_a_directory_keeps_every_other_name(self):
        """A directory of two blocks goes back to one: its rewritten block
        reaches the device before the inode that stops naming the other."""

        def prepare(fs):
            d = fs.mkdir(ROOT_INO, "d")
            target = fs.create(ROOT_INO, "target")
            names = []
            while fs.get_inode(d).size <= fs.sb.block_size:
                names.append(f"{len(names):02d}" + "n" * 200)
                fs.link(target, d, names[-1])
            return d, names

        points = 0
        for fs, (d, names), completed in crash_sweep(prepare, lambda fs, state: fs.unlink(state[0], state[1][0])):
            entries = fs.readdir(d)
            assert set(entries) - {".", "..", names[0]} == set(names[1:]), points
            assert only_leaks(fs), points
            points += 1
        assert names[0] not in entries and fs.get_inode(d).size == fs.sb.block_size and fsck(fs).clean
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
