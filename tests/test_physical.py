"""Tests for the Ficus physical layer."""

import itertools

import pytest

from repro.errors import (
    CrashInjected,
    FileNotFound,
    InvalidArgument,
    NoSpace,
    NotSupported,
)
from repro.net import Network
from repro.nfs import NfsClientLayer, NfsServer
from repro.physical import (
    EntryId,
    EntryType,
    FicusPhysicalLayer,
    ReplicaNotStored,
    count_name_collisions,
    effective_entries,
)
from repro.physical.check import ficus_fsck
from repro.physical.store import ReplicaStore, entries_fold, file_component
from repro.physical.table import SLOTS_PER_BLOCK, AttrTable, encode_run
from repro.physical.wire import (
    AUX_SLOT_SIZE,
    EMPTY_DIGEST,
    FDIR_NAME,
    STORE_BLOCK_SIZE,
    DirectoryEntry,
    content_digest,
    decode_directory,
    encode_directory,
)
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.ufs import FileType, Ufs, fsck
from repro.util import FicusFileHandle, VolumeId, VolumeReplicaId
from repro.vnode import SetAttrs, UfsLayer
from repro.vnode.interface import read_whole
from repro.vv import VersionVector

VOL = VolumeId(1, 1)
VR = VolumeReplicaId(VOL, 1)
QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
PAYLOAD = bytes(range(256)) * 8


def make_world(disk_blocks: int = 8192):
    device = BlockDevice(disk_blocks)
    ufs = UfsLayer(Ufs.mkfs(device, num_inodes=512))
    phys = FicusPhysicalLayer(ufs, "hostA")
    store = phys.create_volume_replica(VR)
    root = phys.root().lookup(VR.to_hex())
    return device, ufs, phys, store, root


@pytest.fixture
def world():
    return make_world()


def insert_file(store, root, name, contents=b""):
    fh = root.insert(name, EntryType.FILE).fh
    vnode = root.lookup_fh(fh)
    if contents:
        vnode.write(0, contents)
    return fh, vnode


def full_disk_with_a_file(contents: bytes):
    """A one-replica store on a 256-block disk holding ``f`` (``contents``)
    and a file ``filler`` grown a block at a time until no block is left:
    (device, UFS layer, store, root, handle of ``f``)."""
    device, ufs, _, store, root = make_world(disk_blocks=256)
    fh, _ = insert_file(store, root, "f", contents)
    fill_the_disk(root)
    return device, ufs, store, root, fh


def fill_the_disk(root, name: str = "filler") -> None:
    """Grow a new file a block at a time until the disk is full."""
    _, filler = insert_file(None, root, name)
    block = bytes(STORE_BLOCK_SIZE)
    with pytest.raises(NoSpace):
        for offset in itertools.count(0, STORE_BLOCK_SIZE):
            filler.write(offset, block)


def insert_dir(store, parent, name):
    fh = parent.insert(name, EntryType.DIRECTORY).fh
    return fh, parent.lookup_fh(fh)


class TestBasicOperations:
    def test_create_and_read(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "f", b"data")
        assert root.lookup("f").read_all() == b"data"

    def test_write_bumps_version_vector(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f")
        assert store.read_record(fh).vv == VersionVector()
        vnode.write(0, b"x")
        assert store.read_record(fh).vv == VersionVector({1: 1})
        vnode.write(0, b"y")
        assert store.read_record(fh).vv == VersionVector({1: 2})

    def test_truncate_bumps_version_vector(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"0123456789")
        before = store.read_record(fh).vv
        vnode.setattr(SetAttrs(size=3))
        assert store.read_record(fh).vv.strictly_dominates(before)
        assert vnode.read_all() == b"012"

    def test_a_policy_setattr_is_one_update_of_the_file(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"data")
        vnode.setattr(SetAttrs(policy="lww"))
        aux = store.read_record(fh)
        assert (aux.merge_policy, aux.vv) == ("lww", VersionVector({1: 2}))
        assert vnode.read_all() == b"data"


    def test_nested_directories(self, world):
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "a")
        d.lookup_fh(d.insert("f", EntryType.FILE).fh).write(0, b"deep")
        assert root.lookup("a").lookup("f").read_all() == b"deep"

    def test_symlink(self, world):
        _, _, _, store, root = world
        lnk = root.lookup_fh(root.insert("l", EntryType.SYMLINK).fh)
        lnk.write(0, b"/target/path")
        assert root.lookup("l").readlink() == "/target/path"
        assert root.lookup("l").getattr().ftype == FileType.SYMLINK

    def test_remove_tombstones_entry(self, world):
        _, _, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"x")
        eid = store.read_entries(store.root_handle())[0].eid
        root.remove_entry(eid)
        with pytest.raises(FileNotFound):
            root.lookup("f")
        tombs = [e for e in store.read_entries(store.root_handle()) if not e.live]
        assert len(tombs) == 1

    def test_remove_frees_file_storage(self, world):
        _, ufs, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"big" * 1000)
        eid = store.read_entries(store.root_handle())[0].eid
        free_before = ufs.fs.free_block_count()
        root.remove_entry(eid)
        assert ufs.fs.free_block_count() > free_before
        assert fsck(ufs.fs).clean

    def test_insert_idempotent_by_entry_id(self, world):
        _, _, _, store, root = world
        fh = FicusFileHandle(VOL, store.new_file_id())
        eid = store.new_entry_id()
        first = root.apply_insert("f", EntryType.FILE, eid=eid, fh=fh)
        assert root.apply_insert("f", EntryType.FILE, eid=eid, fh=fh) == first  # a repeated recon
        assert len(store.read_entries(store.root_handle())) == 1

    def test_remove_idempotent(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "f")
        eid = store.read_entries(store.root_handle())[0].eid
        root.remove_entry(eid)
        root.remove_entry(eid)  # retry: no error, still dead
        assert not store.read_entries(store.root_handle())[0].live

    def test_plain_create_rejected(self, world):
        _, _, _, _, root = world
        with pytest.raises(NotSupported):
            root.create("plain-name")

    def test_rename_not_supported(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "f")
        with pytest.raises(NotSupported):
            root.rename("f", root, "g")

    def test_dir_write_rejected(self, world):
        _, _, _, _, root = world
        with pytest.raises(InvalidArgument):
            root.write(0, b"raw bytes")

    def test_readdir_hides_tombstones_and_metadata(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "keep")
        insert_file(store, root, "kill")
        eid = next(e.eid for e in store.read_entries(store.root_handle()) if e.name == "kill")
        root.remove_entry(eid)
        names = [e.name for e in root.readdir()]
        assert names == ["keep"]


class TestMultipleNames:
    def test_hard_link_within_directory(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "orig", b"shared")
        root.insert("alias", EntryType.FILE, fh=fh, link_from=store.root_handle())
        assert root.lookup("alias").read_all() == b"shared"
        vnode.write(0, b"SHARED")
        assert root.lookup("alias").read_all() == b"SHARED"

    def test_hard_link_across_directories(self, world):
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "d")
        fh, vnode = insert_file(store, root, "orig", b"x")
        d.insert("other", EntryType.FILE, fh=fh, link_from=store.root_handle())
        vnode.write(0, b"y")
        assert root.lookup("d").lookup("other").read_all() == b"y"
        # the file has one record, whichever directory names it
        assert root.lookup("d").getattrs_batch([fh]).child(fh).vv == root.getattrs_batch([fh]).child(fh).vv

    def test_directory_with_two_names(self, world):
        """Ficus directories form a DAG: 'unlike Unix, Ficus directories
        may have more than one name' (paper Section 2.5)."""
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "name1")
        root.insert("name2", EntryType.DIRECTORY, fh=dfh)
        d.lookup_fh(d.insert("f", EntryType.FILE).fh).write(0, b"dag")
        assert root.lookup("name1").lookup("f").read_all() == b"dag"
        assert root.lookup("name2").lookup("f").read_all() == b"dag"
        assert store.read_record(dfh).refs == 2

    def test_removing_one_dir_name_keeps_storage(self, world):
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "name1")
        root.insert("name2", EntryType.DIRECTORY, fh=dfh)
        eid = next(e.eid for e in store.read_entries(store.root_handle()) if e.name == "name1")
        root.remove_entry(eid)
        assert root.lookup("name2").getattr().ftype == FileType.DIRECTORY
        assert store.read_record(dfh).refs == 1

    def test_removing_last_dir_name_reclaims_empty_dir(self, world):
        _, _, _, store, root = world
        dfh, _ = insert_dir(store, root, "d")
        eid = store.read_entries(store.root_handle())[0].eid
        root.remove_entry(eid)
        assert not store.has_directory(dfh)


class TestNameCollisionRepair:
    def _entry(self, eid_rep, eid_seq, name, unique, status="live"):
        return DirectoryEntry(
            eid=EntryId(eid_rep, eid_seq),
            name=name,
            fh=FicusFileHandle(VOL, __import__("repro.util", fromlist=["FileId"]).FileId(1, unique)),
            etype=EntryType.FILE,
            status=status,
        )

    def test_no_collision_plain_names(self):
        entries = [self._entry(1, 1, "a", 1), self._entry(1, 2, "b", 2)]
        assert set(effective_entries(entries)) == {"a", "b"}
        assert count_name_collisions(entries) == 0

    def test_collision_gets_deterministic_suffix(self):
        entries = [self._entry(2, 5, "a", 1), self._entry(1, 3, "a", 2)]
        view = effective_entries(entries)
        # lowest eid (1:3) keeps the plain name
        assert view["a"].eid == EntryId(1, 3)
        assert "a#2:5" in view
        assert count_name_collisions(entries) == 1

    def test_repair_is_order_independent(self):
        """Both replicas must compute the same repaired view regardless of
        entry order in the directory file."""
        entries = [self._entry(2, 5, "a", 1), self._entry(1, 3, "a", 2), self._entry(3, 1, "a", 3)]
        forward = effective_entries(entries)
        backward = effective_entries(list(reversed(entries)))
        assert forward.keys() == backward.keys()
        assert {k: v.eid for k, v in forward.items()} == {k: v.eid for k, v in backward.items()}

    def test_tombstones_do_not_collide(self):
        entries = [self._entry(1, 1, "a", 1, status="dead"), self._entry(2, 2, "a", 2)]
        view = effective_entries(entries)
        assert view["a"].eid == EntryId(2, 2)
        assert len(view) == 1


class TestSessionOps:
    def test_session_coalesces_updates(self, world):
        """One open/close session = one version-vector update, however many
        writes happen inside (the information NFS drops, recovered)."""
        _, _, phys, store, root = world
        fh, vnode = insert_file(store, root, "f")
        root.session_open(fh)
        vnode.write(0, b"a")
        vnode.write(1, b"b")
        vnode.write(2, b"c")
        root.session_close(fh)
        assert store.read_record(fh).vv == VersionVector({1: 1})
        assert phys.session_coalesced_updates == 3

    def test_nested_sessions_bump_once(self, world):
        """A session is open or not: a replayed open is a no-op and the
        first close ends the session (the logical layer counts its own
        opens and brackets once); a replayed close answers False."""
        _, _, phys, store, root = world
        fh, vnode = insert_file(store, root, "f")
        root.session_open(fh)
        root.session_open(fh)
        vnode.write(0, b"x")
        assert root.session_close(fh) is True
        assert not phys.has_open_session(store, fh)
        assert root.session_close(fh) is False
        assert store.read_record(fh).vv == VersionVector({1: 1})

    def test_clean_session_no_bump(self, world):
        _, _, _, store, root = world
        fh, _ = insert_file(store, root, "f")
        root.session_open(fh)
        root.session_close(fh)
        assert store.read_record(fh).vv == VersionVector()

    def test_local_open_close_vnode_calls_also_work(self, world):
        """When no NFS hop intervenes the plain vnode open/close arrive."""
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f")
        vnode.open()
        vnode.write(0, b"xyz")
        vnode.write(3, b"pqr")
        vnode.close()
        assert store.read_record(fh).vv == VersionVector({1: 1})


class TestUpdateNotification:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "junk",
            42,
            {},
            {"kind": "new-version"},
            {"kind": "new-version", "volrep": "0.0.1", "parent": "x", "fh": "y", "src": "a"},
            ("new-version", "a"),
        ],
    )
    def test_a_datagram_that_is_no_notification_is_ignored(self, payload):
        """Both receivers take an UpdateNotification or nothing: any other
        datagram (the retired dict form included) raises nothing and
        touches neither the new-version cache, the attribute cache nor the
        flight ring."""
        quiet = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
        system = FicusSystem(["a", "b"], daemon_config=quiet)
        b = system.host("b")
        b.fs().write_file("/f", b"x")  # b's attribute cache holds batches

        def observed():
            ring = sum(1 for entry in b.logical.health.recorder.ring if entry[1] == "notification.recv")
            return b.physical.new_version_cache_size, b.logical.attr_cache.stats.invalidations, ring

        before = observed()
        assert system.network.multicast("a", ["b"], payload) == 1
        assert observed() == before


class TestShadowCommit:
    """Section 3.2's single-file atomic commit.  The paper's shadow "atomically
    replaces the original by changing a low-level directory reference"; here
    the reference is the file's inode: the new version is written into the
    file's own inode, and the inode write commits it."""

    def test_shadow_then_commit_replaces_atomically(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"old version")
        ino = vnode.getattr().fileid
        vv = VersionVector({2: 9})
        store.install(store.root_handle(), fh, b"new version", vv, "")
        assert root.lookup("f").read_all() == b"new version"
        assert store.read_record(fh).vv == vv
        # the file's own inode, and no other name made beside it
        assert store.file_vnode(store.root_handle(), fh).getattr().fileid == ino
        assert store._unix_names(store.root_handle()) == [fh.logical.to_hex()]

    def test_abort_discards_shadow(self):
        """A version whose install runs out of space is discarded whole:
        its held blocks never land, the original and its vector stay, and
        the install goes through once there is room."""
        device, ufs, store, root, fh = full_disk_with_a_file(PAYLOAD)
        vv = store.read_record(fh).vv
        grown = PAYLOAD * 5  # three blocks where the original has one
        with pytest.raises(NoSpace):
            store.install(store.root_handle(), fh, grown, VersionVector({2: 9}), "")
        assert root.lookup("f").read_all() == PAYLOAD and store.read_record(fh).vv == vv
        assert fsck(ufs.fs).clean
        root.lookup("filler").setattr(SetAttrs(size=0))
        store.install(store.root_handle(), fh, grown, VersionVector({2: 9}), "")
        assert root.lookup("f").read_all() == grown and store.read_record(fh).vv == VersionVector({2: 9})

    def test_crash_before_commit_preserves_original(self):
        """'If a crash occurs before the shadow substitution, the original
        replica is retained during recovery and the shadow discarded.'

        The install is one operation: the new version's blocks and their
        bitmap bits are written before the one inode write that names them
        in the original's place, so they never reach the device under a
        name — a crash before the commit leaves them as blocks taken and
        unreferenced, a leak UFS ``fsck`` reports, with nothing for
        recovery to drop."""
        original, new = b"the original survives", b"partial new conten"
        outcomes = []
        for crash_point in itertools.count():
            device, ufs, _, store, root = make_world()
            fh, _ = insert_file(store, root, "f", original)
            device.plan_crash_after_writes(crash_point)
            try:
                store.install(store.root_handle(), fh, new, VersionVector({1: 9}), "")
                break
            except CrashInjected:
                device.recover()
            holds = root.lookup("f").read_all()
            assert holds in (original, new)
            leaks = all("unreferenced" in p for p in fsck(ufs.fs).problems)
            outcomes.append((holds == original, leaks))
        kept = [kept for kept, _ in outcomes]
        # the original whole up to the inode write, the new version after
        # it, and nothing worse than a leak
        assert kept[0] and not kept[-1] and kept == sorted(kept, reverse=True)
        assert all(leaks for _, leaks in outcomes)

    def test_setvv_overwrites_version(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"x")
        vv = VersionVector({1: 5, 2: 5})
        aux = store.read_record(fh)
        aux.vv = vv
        store.write_record(fh, aux)
        assert store.read_record(fh).vv == vv

    def test_mergevv_merges_directory_version(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "f")  # bumps dir vv to {1:1}
        aux = store.read_record(store.root_handle())
        aux.vv = aux.vv.merge(VersionVector({7: 3}))
        store.write_record(store.root_handle(), aux)
        assert store.read_record(store.root_handle()).vv == VersionVector({1: 1, 7: 3})



class TestOutOfSpace:
    """A ``NoSpace`` raised inside an operation lands nothing the operation
    held since its last barrier: the UFS drops the held set as a failed
    landing does, and the store drops what it staged unless its flush had
    begun.  Each replace that runs out of blocks leaves the old data."""

    @staticmethod
    def reattached(device):
        """The replica as the device holds it: remounted and re-attached."""
        ufs = Ufs.mount(device)
        return ReplicaStore.attach(UfsLayer(ufs).root(), VR), ufs

    def test_an_entry_list_that_cannot_grow_keeps_every_name(self):
        device, _, _, store, root = make_world(disk_blocks=256)
        names = [f"{i:02d}-" + "x" * 68 for i in range(27)]
        for name in names[:-1]:
            root.insert(name, EntryType.FILE)
        fill_the_disk(root, names[-1])
        assert store._unix_child(store.root_handle(), FDIR_NAME).getattr().size == 2 * STORE_BLOCK_SIZE
        # a list of two blocks is replaced by truncate(0) + write: the new
        # blocks cannot be had, and the truncation must not land without them
        with pytest.raises(NoSpace):
            root.insert("one-more", EntryType.FILE)
        store, ufs = self.reattached(device)
        live = [entry.name for entry in store.read_entries(store.root_handle()) if entry.live]
        assert sorted(live) == names
        assert fsck(ufs).clean

    def test_an_install_that_grows_a_file_keeps_the_old_version(self):
        device, _, store, _, fh = full_disk_with_a_file(PAYLOAD)
        vv = store.read_record(fh).vv
        with pytest.raises(NoSpace):
            store.install(store.root_handle(), fh, PAYLOAD * 5, VersionVector({2: 9}), "")
        store, ufs = self.reattached(device)
        assert store.file_vnode(store.root_handle(), fh).read_all() == PAYLOAD
        assert store.read_record(fh).vv == vv
        assert fsck(ufs).clean

    def test_an_operation_that_runs_out_of_space_installs_nothing(self):
        # two installs in one operation, as a pull group makes them: the
        # first fits in place, the second — a file new here — finds no
        # block; neither version lands, so neither record may
        device, _, store, _, f = full_disk_with_a_file(PAYLOAD)
        vv = store.read_record(f).vv
        g = FicusFileHandle(VOL, store.new_file_id())
        with pytest.raises(NoSpace):
            with store.operation():
                store.install(store.root_handle(), f, PAYLOAD[::-1], VersionVector({2: 9}), "")
                store.install(store.root_handle(), g, PAYLOAD, VersionVector({2: 1}), "")
        store, _ = self.reattached(device)
        assert store.file_vnode(store.root_handle(), f).read_all() == PAYLOAD
        assert store.read_record(f).vv == vv and not store.has_record(g)

    def test_an_install_of_a_file_new_here_leaves_nothing(self):
        device, _, store, _, _ = full_disk_with_a_file(PAYLOAD)
        fh = FicusFileHandle(VOL, store.new_file_id())
        with pytest.raises(NoSpace):
            store.install(store.root_handle(), fh, PAYLOAD, VersionVector({2: 1}), "")
        store, ufs = self.reattached(device)
        assert not store.has_file(store.root_handle(), fh) and not store.has_record(fh)
        assert fsck(ufs).clean

class TestOperationScope:
    """``ReplicaStore.operation``: a directory's ``.fdir`` and its record in
    the attribute table are staged inside it and written once, at the
    outermost exit."""

    @staticmethod
    def grow_dir_vv(store, replica):
        aux = store.read_record(store.root_handle())
        aux.vv = aux.vv.merge(VersionVector({replica: 1}))
        store.write_record(store.root_handle(), aux)

    def test_nesting_flushes_once_at_the_outermost_exit(self, world):
        device, _, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"x")
        before = device.counters.writes
        with store.operation():
            with store.operation():
                self.grow_dir_vv(store, 7)
                entries = store.read_entries(store.root_handle())
                store.write_entries(store.root_handle(), entries[:0])
            assert device.counters.writes == before and not store.flushed(store.root_handle())
            assert store.read_entries(store.root_handle()) == []  # the staged list
            store.write_entries(store.root_handle(), entries)  # and back: nothing to write
            self.grow_dir_vv(store, 8)
        assert store.flushed()
        # one in-place write of the record's table block (its data block
        # alone: the clock has not moved), no .fdir write: the list is the
        # one first read
        assert device.counters.writes == before + 1
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_record(store.root_handle()).vv == VersionVector({1: 1, 7: 1, 8: 1})
        assert [e.fh for e in fresh.read_entries(store.root_handle())] == [fh]

    def test_an_exception_inside_still_flushes_what_was_staged(self, world):
        _, _, _, store, _ = world
        with pytest.raises(RuntimeError):
            with store.operation():
                self.grow_dir_vv(store, 7)
                raise RuntimeError("the operation failed half way")
        assert store.flushed()
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_record(store.root_handle()).vv == VersionVector({7: 1})

    def test_a_flush_that_raises_drops_the_decoded_copy(self, world):
        device, _, _, store, _ = world
        old = store.read_record(store.root_handle())
        device.plan_crash_after_writes(0)  # at the in-place write of the table block
        with pytest.raises(CrashInjected):
            with store.operation():
                self.grow_dir_vv(store, 7)
        assert store.flushed() and not store._record_cache
        device.recover()
        assert store.read_record(store.root_handle()) == old  # from the device, not from memory

    def test_pending_reads_are_served_with_no_cache_at_all(self):
        device = BlockDevice(8192)
        phys = FicusPhysicalLayer(UfsLayer(Ufs.mkfs(device, num_inodes=512, cache_blocks=0)), "hostA")
        store = phys.create_volume_replica(VR)
        root = phys.root().lookup(VR.to_hex())
        insert_file(store, root, "f", b"x")
        assert not store._entries_cache and not store._record_cache
        with store.operation():
            entry = store.read_entries(store.root_handle())[0]
            before = device.counters.writes
            store.write_entries(store.root_handle(), [entry.killed()])
            assert [e.live for e in store.read_entries(store.root_handle())] == [False]
            # the digest is the staged list's, and computing it writes nothing
            vv = store.read_record(store.root_handle()).vv
            assert store.directory_digest(store.root_handle()) == content_digest(
                vv.encode(), entry.killed().fold_component(), EMPTY_DIGEST
            )
            assert device.counters.writes == before
        assert device.counters.writes > before
        assert [e.live for e in store.read_entries(store.root_handle())] == [False]

    def test_a_byte_identical_record_is_not_written(self, world):
        device, _, _, store, root = world
        insert_file(store, root, "f", b"x")
        before = device.counters.writes
        digest = store.directory_digest(store.root_handle())
        store.write_record(store.root_handle(), store.read_record(store.root_handle()))
        store.write_entries(store.root_handle(), store.read_entries(store.root_handle()))
        assert store.directory_digest(store.root_handle()) == digest
        assert device.counters.writes == before

    def test_a_tombstone_and_an_insert_of_one_file_keep_its_storage(self, world):
        _, ufs, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"kept")
        ino = vnode.getattr().fileid
        (entry,) = store.read_entries(store.root_handle())
        with store.operation():
            root.apply_remove(entry.eid, from_recon=True)
            root.apply_insert("g", EntryType.FILE, eid=EntryId(2, 1), fh=fh, from_recon=True)
        renamed = root.lookup("g")
        assert renamed.read_all() == b"kept" and renamed.getattr().fileid == ino
        assert ficus_fsck(store).clean and fsck(ufs.fs).clean
        # the file the free was asked for is still in its directory's digest
        root_fh = store.root_handle()
        assert store.directory_digest(root_fh) == content_digest(
            store.read_record(root_fh).vv.encode(),
            entries_fold(store.read_entries(root_fh)),
            file_component(fh, store.read_record(fh).vv),
        )

    def test_a_digest_follows_every_name_of_a_hard_linked_file(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        fs = system.host("alpha").fs()
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.write_file("/a/f", b"one")
        fs.link("/a/f", "/b/f")
        system.reconcile_everything()
        (store,) = system.host("alpha").physical.stores.values()
        (peer,) = system.host("beta").physical.stores.values()
        dirs = {e.name: e.fh for e in store.read_entries(store.root_handle())}
        before = store.directory_digest(dirs["b"])
        assert peer.directory_digest(dirs["b"]) == before
        fs.write_file("/a/f", b"two")  # through the other name
        assert store.directory_digest(dirs["b"]) != before
        system.reconcile_everything()
        assert peer.subtree_digest(peer.root_handle()) == store.subtree_digest(store.root_handle())

    def test_a_tombstone_alone_frees_after_the_flush(self, world):
        _, _, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"gone")
        (entry,) = store.read_entries(store.root_handle())
        with store.operation():
            root.apply_remove(entry.eid)
            assert store.has_file(store.root_handle(), fh)  # asked for, not yet done
        assert not store.has_file(store.root_handle(), fh)
        assert ficus_fsck(store).clean

    def test_serving_a_directory_with_staged_records_is_an_assertion(self, world):
        _, _, _, store, root = world
        with store.operation():
            self.grow_dir_vv(store, 7)
            for serve in (lambda: root.read(0, 10), root.getattr, root.getattrs_batch, root.sync_probe):
                with pytest.raises(AssertionError):
                    serve()


class TestAttributeTable:
    """Every file's and directory's record in one table per volume replica."""

    def test_no_record_file_is_made_anywhere(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        fs = system.host("alpha").fs()
        fs.makedirs("/d/e")
        fs.write_file("/d/f", b"x")
        fs.link("/d/f", "/d/e/l")
        fs.rename("/d/f", "/g")
        fs.set_merge_policy("/g", "lww")
        fs.symlink("/g", "/s")
        system.reconcile_everything()
        for host in ("alpha", "beta"):
            ufs = system.host(host).ufs
            names, pending = [], [2]
            while pending:
                for name, ino in ufs.readdir(pending.pop()).items():
                    if name not in (".", ".."):
                        names.append(name)
                        if ufs.get_inode(ino).is_dir:
                            pending.append(ino)
            assert ".attr" in names and ".fdir" in names
            assert not [name for name in names if name.endswith(".aux") or name == ".faux"], host

    def test_a_hard_linked_file_is_one_record(self, world):
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "d")
        fh, vnode = insert_file(store, root, "f", b"one")
        d.insert("alias", EntryType.FILE, fh=fh, link_from=store.root_handle())
        records = len(store.record_handles())
        assert store.read_record(fh).refs == 2
        alias = d.lookup("alias")
        alias.write(0, b"two")  # an update through the second name...
        # ...is the one record both names read
        assert d.getattrs_batch([fh]).child(fh) == root.getattrs_batch([fh]).child(fh)
        assert store.read_record(fh).vv == VersionVector({1: 2})
        assert root.lookup("f").read_all() == b"two"
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_record(fh).vv == VersionVector({1: 2})
        # dropping a name counts it off; dropping the last clears the record
        d.remove_entry(next(e.eid for e in store.read_entries(dfh) if e.name == "alias"))
        assert store.read_record(fh).refs == 1
        root.remove_entry(next(e.eid for e in store.read_entries(store.root_handle()) if e.name == "f"))
        assert len(store.record_handles()) == records - 1 and fh not in store.record_handles()
        assert ficus_fsck(store).clean

    def test_a_pull_reaches_every_name_of_a_hard_linked_file(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        fs = system.host("alpha").fs()
        fs.mkdir("/d")
        fs.mkdir("/e")
        fs.write_file("/d/f", b"one")
        fs.link("/d/f", "/e/l")
        system.reconcile_everything()
        fs.write_file("/d/f", b"two!")
        system.reconcile_everything()
        (store,) = system.host("beta").physical.stores.values()
        dirs = {e.name: e.fh for e in store.read_entries(store.root_handle())}
        fh = next(e.fh for e in store.read_entries(dirs["d"]) if e.name == "f")
        assert store.read_record(fh).refs == 2
        # the one record's vector describes both stored names
        assert store.file_vnode(dirs["d"], fh).read_all() == store.file_vnode(dirs["e"], fh).read_all() == b"two!"
        assert ficus_fsck(store).clean

    def test_a_pulled_rename_links_contents_it_already_stores(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        fs = system.host("alpha").fs()
        fs.mkdir("/e")  # reconciled before /d: beta pulls the new name first
        fs.mkdir("/d")
        fs.write_file("/d/f", PAYLOAD)
        system.reconcile_everything()
        (store,) = system.host("beta").physical.stores.values()
        dirs = {e.name: e.fh for e in store.read_entries(store.root_handle())}
        fh = next(e.fh for e in store.read_entries(dirs["d"]) if e.name == "f")
        stored = store.file_vnode(dirs["d"], fh).getattr()
        system.run_for(1.0)
        fs.rename("/d/f", "/e/g")
        system.reconcile_everything()
        # the new name is linked to the contents the old one stored: the
        # same inode, its data not rewritten
        linked = store.file_vnode(dirs["e"], fh).getattr()
        assert (linked.fileid, linked.mtime) == (stored.fileid, stored.mtime)
        assert store.file_vnode(dirs["e"], fh).read_all() == PAYLOAD
        assert not store.has_file(dirs["d"], fh) and store.read_record(fh).refs == 1
        assert ficus_fsck(store).clean

    def test_a_new_record_lands_beside_its_parents(self, world):
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "d")
        fh = d.insert("f", EntryType.FILE).fh
        table = store._attr
        assert table.runs[fh].block == table.runs[dfh].block == table.runs[store.root_handle()].block

    def test_a_record_longer_than_a_block_takes_whole_blocks(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"x")
        vnode.setattr(SetAttrs(policy="p" * 5000))
        run = store._attr.runs[fh]
        assert run.start % SLOTS_PER_BLOCK == 0 and len(run.blocks()) == 2
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_record(fh).merge_policy == "p" * 5000
        vnode.setattr(SetAttrs(policy="short"))  # moved back into one block
        assert len(store._attr.runs[fh].blocks()) == 1
        assert ReplicaStore.attach(store.lower_root, VR).read_record(fh).merge_policy == "short"
        assert ficus_fsck(store).clean

    def test_the_newer_copy_wins_the_attach_and_stale_bytes_go(self, world):
        device, _, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"x")
        old = store.read_record(fh)
        new = old.clone()
        new.merge_policy = "newer"
        attr = store._attr_vnode
        # a crash between a record's fresh run and its old run's clear
        # leaves two copies; a torn run (no newline) is no record at all
        attr.write(STORE_BLOCK_SIZE, encode_run(new, 99) + encode_run(old, 1)[:40])
        assert len(AttrTable.load(attr).runs) == len(store.record_handles())
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_record(fh).merge_policy == "newer"
        assert fresh._attr.runs[fh].stamp == 99 and fresh._attr.next_stamp == 100
        # the attach cleared the losing copy and the torn bytes
        data = attr.read_all()
        assert data.count(fh.to_hex().encode()) == 1
        assert data[STORE_BLOCK_SIZE + AUX_SLOT_SIZE :].strip(b"\0") == b""


class TestPartialReplicas:
    def test_entry_without_storage_raises_replica_not_stored(self, world):
        """Reconciliation-applied inserts publish the entry before the
        contents arrive; lookup must say 'not stored', not 'no such file'."""
        _, _, _, store, root = world
        root.apply_insert("ghost", EntryType.FILE, from_recon=True)
        with pytest.raises(ReplicaNotStored):
            root.lookup("ghost")
        assert "ghost" in [e.name for e in root.readdir()]


class TestPhysicalOverNfs:
    """The logical layer reaches a remote physical layer through NFS; every
    physical-layer operation must survive the hop (paper Section 2.2)."""

    @pytest.fixture
    def remote_root(self, world):
        _, _, phys, store, _ = world
        net = Network()
        net.add_host("server")
        net.add_host("client")
        NfsServer(net, "server", phys)
        client = NfsClientLayer(net, "client", "server")
        return store, client.root().lookup(VR.to_hex())

    def test_insert_and_read_over_nfs(self, remote_root):
        store, root = remote_root
        f = root.lookup_fh(root.insert("remote", EntryType.FILE).fh)
        f.write(0, b"via nfs")
        assert root.lookup("remote").read_all() == b"via nfs"

    def test_session_ops_survive_nfs(self, remote_root):
        """E10: open/close session boundaries travel as first-class vnode
        operations over the NFS hop (no lookup-name smuggling)."""
        store, root = remote_root
        fh = root.insert("f", EntryType.FILE).fh
        f = root.lookup_fh(fh)
        root.session_open(fh)
        f.write(0, b"a")
        f.write(1, b"b")
        root.session_close(fh)
        assert store.read_record(fh).vv == VersionVector({1: 1})

    def test_a_directory_read_over_nfs_carries_no_padding(self, remote_root):
        """``.fdir`` is padded to whole blocks on disk; what a remote
        ``read_whole`` gets is the encoding alone."""
        store, root = remote_root
        root.insert("f", EntryType.FILE)
        stored = store.dir_unix_vnode(store.root_handle()).lookup(FDIR_NAME).read_all()
        encoding = encode_directory(store.read_entries(store.root_handle())).rstrip(b"\0")
        assert len(stored) == STORE_BLOCK_SIZE and stored.rstrip(b"\0") == encoding
        assert read_whole(root) == encoding
        assert decode_directory(read_whole(root)) == store.read_entries(store.root_handle())

    def test_aux_readable_over_nfs(self, remote_root):
        store, root = remote_root
        fh = root.insert("f", EntryType.FILE).fh
        root.lookup_fh(fh).write(0, b"x")
        batch = root.getattrs_batch([fh])
        assert batch.child(fh).vv == VersionVector({1: 1})
        # the directory's own aux record rides in the same reply
        assert batch.dir_aux.vv == store.read_record(store.root_handle()).vv

    def test_dir_by_handle_over_nfs(self, remote_root):
        store, root = remote_root
        dfh = root.insert("d", EntryType.DIRECTORY).fh
        assert root.lookup_fh(dfh).getattr().ftype == FileType.DIRECTORY
