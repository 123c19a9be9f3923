"""Dedicated tests for the UFS caches (buffer cache + DNLC), and for the
hash a file handle caches for every dict and set it keys."""

import pytest

from repro.errors import FileExists, FileNotFound, InvalidArgument
from repro.net import Network
from repro.nfs import NfsClientLayer, NfsServer
from repro.physical import EntryType, FicusPhysicalLayer
from repro.physical.store import ReplicaStore
from repro.storage import BlockDevice
from repro.ufs import ROOT_INO, BufferCache, NameCache, Ufs
from repro.ufs.cache import NEGATIVE
from repro.util import FicusFileHandle, VolumeId, VolumeReplicaId
from repro.util.ids import FileId
from repro.vnode import UfsLayer
from repro.vv import VersionVector

VR = VolumeReplicaId(VolumeId(1, 1), 1)


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

    def test_a_miss_is_an_entry_and_a_hit(self):
        dnlc = NameCache()
        dnlc.enter(1, "gone", NEGATIVE)
        assert dnlc.lookup(1, "gone") == NEGATIVE
        assert dnlc.stats.hits == 1 and dnlc.stats.misses == 0


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


def count_scans(monkeypatch) -> list:
    """Count every decode-or-walk of a directory's blocks, the scan a name
    lookup the DNLC cannot answer makes."""
    scans = []
    real = Ufs._dir_blocks

    def counted(self, inode):
        scans.append(inode.ino)
        return real(self, inode)

    monkeypatch.setattr(Ufs, "_dir_blocks", counted)
    return scans


def new_store() -> ReplicaStore:
    return ReplicaStore.create(UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64)).root(), VR)


class TestMissRemembered:
    """A name looked for and not found is scanned for once: the DNLC keeps
    the miss, and the replica store asks the DNLC."""

    def test_a_second_stored_file_for_a_missing_file_makes_no_scan(self, monkeypatch):
        store = new_store()
        root = store.root_handle()
        missing = FicusFileHandle(VR.volume, store.new_file_id())
        scans = count_scans(monkeypatch)
        assert store.stored_file(root, missing) is None
        assert scans, "the first look scans the directory"
        scans.clear()
        assert store.stored_file(root, missing) is None
        assert scans == []

    def test_a_second_lookup_fh_of_an_unstored_directory_over_nfs_makes_no_scan(self, monkeypatch):
        net = Network()
        net.add_host("server")
        net.add_host("client")
        phys = FicusPhysicalLayer(UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256, clock=net.clock)), "server")
        store = phys.create_volume_replica(VR)
        NfsServer(net, "server", phys)
        root = NfsClientLayer(net, "client", "server").root().lookup(VR.to_hex())
        elsewhere = FicusFileHandle(VR.volume, FileId(9, 9))  # a directory another replica stores
        assert not store.has_directory(elsewhere)
        with pytest.raises(FileNotFound):
            root.lookup_fh(elsewhere)
        scans = count_scans(monkeypatch)
        sent = net.stats.rpcs_sent
        with pytest.raises(FileNotFound):
            root.lookup_fh(elsewhere)
        assert net.stats.rpcs_sent == sent + 1  # the RPC still goes
        assert scans == []


#: each makes the name ``n`` in directory ``d`` (prepared by ``TestMissNeverHidesAName.fs``)
MAKE_A_NAME = {
    "create": lambda fs, d, src: fs.create(d, "n"),
    "mkdir": lambda fs, d, src: fs.mkdir(d, "n"),
    "symlink": lambda fs, d, src: fs.symlink(d, "n", "target"),
    "link": lambda fs, d, src: fs.link(fs.lookup(src, "f"), d, "n"),
    "rename in one block": lambda fs, d, src: fs.rename(d, "old", d, "n"),
    "rename across directories": lambda fs, d, src: fs.rename(src, "f", d, "n"),
}

def link_from_elsewhere(store: ReplicaStore, root: FicusFileHandle, fh: FicusFileHandle) -> None:
    sub = FicusFileHandle(VR.volume, store.new_file_id())
    store.create_directory_storage(sub, EntryType.DIRECTORY, parent=root)
    store.create_file_storage(sub, fh)
    store.link_file_storage(store.stored_file(sub, fh), root, fh)


#: each gives the store the file ``fh`` in directory ``root``
STORE_A_FILE = {
    "create_file_storage": lambda store, root, fh: store.create_file_storage(root, fh),
    "link_file_storage": link_from_elsewhere,
    "install": lambda store, root, fh: store.install(
        root, fh, b"pulled", VersionVector({2: 1}), "", stored=store.stored_file(root, fh)
    ),
}


class TestMissNeverHidesAName:
    """A remembered miss is entered over, never around: every path that
    makes a name puts it in the DNLC, so the next lookup finds it."""

    @pytest.fixture
    def fs(self):
        fs = Ufs.mkfs(BlockDevice(4096), num_inodes=256)
        fs.create(fs.mkdir(ROOT_INO, "src"), "f")
        fs.create(fs.mkdir(ROOT_INO, "d"), "old")
        return fs

    @pytest.mark.parametrize("make", MAKE_A_NAME.values(), ids=MAKE_A_NAME.keys())
    def test_ufs(self, fs, make):
        d, src = fs.lookup(ROOT_INO, "d"), fs.lookup(ROOT_INO, "src")
        with pytest.raises(FileNotFound):
            fs.lookup(d, "n")
        assert fs.namecache._lru[(d, "n")] == NEGATIVE
        make(fs, d, src)
        assert fs.lookup(d, "n") == fs.readdir(d)["n"] == Ufs.mount(fs.device).lookup(d, "n")

    @pytest.mark.parametrize("store_it", STORE_A_FILE.values(), ids=STORE_A_FILE.keys())
    def test_store(self, store_it):
        store = new_store()
        root = store.root_handle()
        fh = FicusFileHandle(VR.volume, store.new_file_id())
        assert store.stored_file(root, fh) is None
        store_it(store, root, fh)
        assert store.stored_file(root, fh) is not None
        cold = ReplicaStore.attach(UfsLayer(Ufs.mount(store.lower_root.fs.device)).root(), VR)
        assert store.stored_file(root, fh).ino == cold.stored_file(root, fh).ino


class TestFileHandleHash:
    def test_hash_is_the_generated_one(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        assert hash(fh) == hash((fh.volume, fh.file_id))

    def test_equal_handles_built_apart_hash_equal(self):
        fh = FicusFileHandle(VolumeId(1, 2), FileId(3, 4))
        hash(fh)
        apart = FicusFileHandle.from_hex(fh.to_hex())
        assert apart == fh and apart is not fh
        assert hash(apart) == hash(fh)
        assert {fh: 1}[apart] == 1
