"""E7 (Section 3.2 + footnote 5): the single-file atomic commit service.

"A shadow file replica is used to hold the new version until it is
completely propagated, and then the shadow atomically replaces the
original...  If a crash occurs before the shadow substitution, the
original replica is retained during recovery and the shadow discarded."

Here the low-level reference the commit changes is the file's inode: a
version is written into the file's own inode (``ReplicaStore.install``),
over its one block when it keeps the stored length and fits one, else into
new blocks that the inode write commits.  No shadow file is made.

Footnote 5 concedes a cost: "it can have a significant effect if the
client is updating a few points in a large file.  To avoid alteration of
the UFS, rewriting the entire file is necessary."  The sweep below shows
exactly that: above one block, commit cost grows with file size even for
a 16-byte point update.
"""

import itertools

import pytest

from repro.errors import CrashInjected
from repro.physical import EntryType, FicusPhysicalLayer
from repro.storage import BlockDevice
from repro.ufs import Ufs, fsck
from repro.util import FicusFileHandle, VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer
from repro.vv import VersionVector

VOL = VolumeId(1, 1)
VR = VolumeReplicaId(VOL, 1)
SIZES = [1 << 10, 16 << 10, 128 << 10, 1 << 20]


def make_world(disk_blocks: int = 1 << 16):
    device = BlockDevice(disk_blocks)
    ufs_layer = UfsLayer(Ufs.mkfs(device, num_inodes=256))
    phys = FicusPhysicalLayer(ufs_layer, "host")
    store = phys.create_volume_replica(VR)
    root = phys.root().lookup(VR.to_hex())
    return device, ufs_layer, store, root


def insert_file(store, root, name, size):
    fh = FicusFileHandle(VOL, store.new_file_id())
    root.insert(name, EntryType.FILE, fh=fh)
    vnode = root.lookup_fh(fh)
    vnode.write(0, b"a" * size)
    return fh, vnode


def point_update_via_install(store, root, fh, contents: bytes) -> int:
    """Propagation-style point update: the whole file installed as a new
    version.

    Returns the number of device writes it cost.
    """
    device = store.lower_root.layer.fs.device
    snap = device.counters.snapshot()
    patched = contents[:100] + b"PATCHED!" + contents[108:]
    store.install(store.root_handle(), fh, patched, VersionVector({1: 2}), "")
    return device.counters.delta_since(snap).writes


class TestShape:
    def test_commit_cost_scales_with_file_size_not_update_size(self, capsys):
        rows = []
        for size in SIZES:
            device, _, store, root = make_world()
            fh, vnode = insert_file(store, root, "f", size)
            contents = vnode.read_all()
            writes = point_update_via_install(store, root, fh, contents)
            rows.append((size, writes))
        with capsys.disabled():
            print("\n[E7] device writes for a 16-byte point update via the atomic commit:")
            for size, writes in rows:
                print(f"  file {size >> 10:>6} KiB -> {writes:>5} writes")
        # whole-file rewrite: cost grows roughly linearly with file size
        assert rows[-1][1] > rows[0][1] * 10

    def test_crash_before_substitution_preserves_original(self):
        """A crash at every write of the install before its substitution:
        the original is retained.  A version of the stored length in one
        block is written over that block, so its one data write is the
        substitution: only a crash before it retains the original, and
        there is nothing for recovery to drop."""
        retained = 0
        for crash_point in itertools.count():
            device, ufs_layer, store, root = make_world()
            fh, _ = insert_file(store, root, "f", 4096)
            device.plan_crash_after_writes(crash_point)
            try:
                store.install(store.root_handle(), fh, b"b" * 4096, VersionVector({1: 2}), "")
                break
            except CrashInjected:
                device.recover()
            if root.lookup("f").read_all() != b"a" * 4096:
                break  # past the substitution: the new version
            retained += 1
            assert fsck(ufs_layer.fs).clean  # no block changed hands
        # the crash before the data write: no block of the new version is
        # written anywhere but over the old one
        assert retained == 1

    def test_crash_at_any_point_never_mixes_versions(self):
        """Sweep the crash point across the whole commit sequence: after
        recovery the file is exactly the old or exactly the new version."""
        old, new = b"o" * 8192, b"n" * 8192
        crash_point = 0
        seen_new = False
        while True:
            device, ufs_layer, store, root = make_world()
            fh, _ = insert_file(store, root, "f", 0)
            store.file_vnode(store.root_handle(), fh).write(0, old)
            device.plan_crash_after_writes(crash_point)
            try:
                store.install(store.root_handle(), fh, new, VersionVector({1: 2}), "")
                completed = True
            except CrashInjected:
                completed = False
            device.recover()
            data = store.file_vnode(store.root_handle(), fh).read_all()
            assert data in (old, new), f"mixed state at crash point {crash_point}"
            if data == new:
                seen_new = True
            if completed:
                break
            crash_point += 1
        assert seen_new
        assert crash_point >= 1  # we actually exercised intermediate points


@pytest.mark.parametrize("size", SIZES)
def test_bench_install(benchmark, size):
    device, _, store, root = make_world()
    fh, vnode = insert_file(store, root, "f", size)
    contents = vnode.read_all()

    def run():
        store.install(store.root_handle(), fh, contents, VersionVector({1: 2}), "")

    benchmark(run)


def test_bench_in_place_point_write(benchmark):
    """The comparison point: an in-place 16-byte write (no commit)."""
    device, _, store, root = make_world()
    fh, vnode = insert_file(store, root, "f", 1 << 20)
    benchmark(vnode.write, 100, b"PATCHED!PATCHED!")
