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
        # partial writes may have landed; block accounting must still agree
        assert fsck(fs).clean


class TestCrashOrdering:
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
