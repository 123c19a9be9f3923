"""Dedicated tests for the UFS caches (buffer cache + DNLC), and for the
hash a file handle caches for every dict and set it keys."""

import pytest

from repro.errors import FileExists, InvalidArgument
from repro.storage import BlockDevice
from repro.ufs import ROOT_INO, BufferCache, NameCache, Ufs
from repro.util import FicusFileHandle, VolumeId
from repro.util.ids import FileId


@pytest.fixture
def device():
    return BlockDevice(64, block_size=512)


class TestBufferCache:
    def test_hit_avoids_device(self, device):
        cache = BufferCache(device, capacity=4)
        cache.read(1)
        before = device.counters.reads
        cache.read(1)
        assert device.counters.reads == before
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_order(self, device):
        cache = BufferCache(device, capacity=2)
        cache.read(1)
        cache.read(2)
        cache.read(1)  # 1 becomes most recent
        cache.read(3)  # evicts 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_write_through_and_cached(self, device):
        cache = BufferCache(device, capacity=4)
        cache.write(5, b"w" * 512)
        assert device.raw_block(5) == b"w" * 512  # on the device already
        before = device.counters.reads
        assert cache.read(5) == b"w" * 512
        assert device.counters.reads == before  # served from cache

    def test_invalidate_single_block(self, device):
        cache = BufferCache(device, capacity=4)
        cache.read(1)
        cache.invalidate(1)
        before = device.counters.reads
        cache.read(1)
        assert device.counters.reads == before + 1

    def test_zero_capacity_never_caches(self, device):
        cache = BufferCache(device, capacity=0)
        cache.read(1)
        cache.read(1)
        assert cache.stats.hits == 0
        assert len(cache) == 0

    def test_negative_capacity_rejected(self, device):
        with pytest.raises(InvalidArgument):
            BufferCache(device, capacity=-1)

    def test_hit_rate(self, device):
        cache = BufferCache(device, capacity=8)
        cache.read(1)
        cache.read(1)
        cache.read(1)
        cache.read(2)
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestNameCache:
    def test_basic_enter_and_lookup(self):
        dnlc = NameCache(capacity=4)
        dnlc.enter(2, "etc", 7)
        assert dnlc.lookup(2, "etc") == 7
        assert dnlc.lookup(2, "missing") is None
        assert dnlc.stats.hits == 1 and dnlc.stats.misses == 1

    def test_lru_eviction(self):
        dnlc = NameCache(capacity=2)
        dnlc.enter(1, "a", 10)
        dnlc.enter(1, "b", 11)
        dnlc.lookup(1, "a")  # refresh a
        dnlc.enter(1, "c", 12)  # evicts b
        assert dnlc.lookup(1, "a") == 10
        assert dnlc.lookup(1, "b") is None
        assert dnlc.lookup(1, "c") == 12

    def test_purge_dir_drops_only_that_directory(self):
        dnlc = NameCache()
        dnlc.enter(1, "x", 10)
        dnlc.enter(2, "x", 20)
        dnlc.purge_dir(1)
        assert dnlc.lookup(1, "x") is None
        assert dnlc.lookup(2, "x") == 20

    def test_remove_single_entry(self):
        dnlc = NameCache()
        dnlc.enter(1, "a", 10)
        dnlc.remove(1, "a")
        assert dnlc.lookup(1, "a") is None

    def test_zero_capacity(self):
        dnlc = NameCache(capacity=0)
        dnlc.enter(1, "a", 10)
        assert dnlc.lookup(1, "a") is None


class TestFreedInodeLeavesNoName:
    """No inode is freed while the name cache still resolves a name to it:
    every path that frees one has already removed, overwritten or never
    entered its names, so a free need not scan the cache."""

    @pytest.fixture
    def fs(self):
        return Ufs.mkfs(BlockDevice(4096), num_inodes=256)

    @staticmethod
    def names_of(fs, ino):
        return [key for key, value in fs.namecache._lru.items() if value == ino]

    @staticmethod
    def warm(fs, *paths):
        """Look every path up, so its names are in the cache."""
        for path in paths:
            fs.path_lookup(path)

    def test_unlink_of_the_last_link(self, fs):
        ino = fs.create(ROOT_INO, "f")
        self.warm(fs, "/f")
        fs.unlink(ROOT_INO, "f")
        assert self.names_of(fs, ino) == []

    def test_last_unlink_of_a_hard_linked_file(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        ino = fs.create(ROOT_INO, "f")
        fs.link(ino, d, "alias")
        self.warm(fs, "/f", "/d/alias")
        fs.unlink(ROOT_INO, "f")
        assert self.names_of(fs, ino) == [(d, "alias")]
        fs.unlink(d, "alias")
        assert self.names_of(fs, ino) == []

    def test_rename_over_a_file_in_one_directory(self, fs):
        fs.create(ROOT_INO, "new")
        old = fs.create(ROOT_INO, "old")
        self.warm(fs, "/new", "/old")
        fs.rename(ROOT_INO, "new", ROOT_INO, "old")
        assert self.names_of(fs, old) == []

    def test_rename_over_a_file_across_directories(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        fs.create(ROOT_INO, "new")
        old = fs.create(d, "old")
        self.warm(fs, "/new", "/d/old")
        fs.rename(ROOT_INO, "new", d, "old")
        assert self.names_of(fs, old) == []

    def test_rmdir(self, fs):
        d = fs.mkdir(ROOT_INO, "d")
        self.warm(fs, "/d", "/d/.", "/d/..")
        fs.rmdir(ROOT_INO, "d")
        assert self.names_of(fs, d) == []

    def test_rmdir_of_a_former_parent(self, fs):
        """A directory moved out of ``old`` names its new parent as ``..``,
        so the ``..`` the cache held must follow it."""
        old = fs.mkdir(ROOT_INO, "old")
        new = fs.mkdir(ROOT_INO, "new")
        fs.mkdir(old, "child")
        self.warm(fs, "/old/child/..")
        fs.rename(old, "child", new, "child")
        assert fs.path_lookup("/new/child/..") == new
        fs.rmdir(ROOT_INO, "old")
        assert self.names_of(fs, old) == []

    def test_create_that_collides(self, fs):
        fs.create(ROOT_INO, "f")
        self.warm(fs, "/f")
        floor = fs._ino_floor
        with pytest.raises(FileExists):
            fs.create(ROOT_INO, "f")
        # the ino the failed create claimed and freed
        assert fs._ino_floor == floor
        assert self.names_of(fs, floor) == []


class TestFileHandleHash:
    def test_hash_is_the_generated_one(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), 5)
        assert hash(fh) == hash((fh.volume, fh.file_id, fh.replica_id))
        assert hash(fh.logical) == hash((fh.volume, fh.file_id, None))

    def test_equal_handles_built_apart_hash_equal(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4), 5)
        hash(fh)
        apart = FicusFileHandle.from_hex(fh.to_hex())
        assert apart == fh and apart is not fh
        assert hash(apart) == hash(fh)
        assert hash(fh.at_replica(6).logical) == hash(fh.logical)
        assert {fh: 1}[apart] == 1
