"""Tests for the Ficus physical layer."""

import pytest

from repro.errors import (
    CrashInjected,
    FileNotFound,
    InvalidArgument,
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
from repro.physical.store import ReplicaStore
from repro.physical.wire import DirectoryEntry
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.ufs import FileType, Ufs, fsck
from repro.util import FicusFileHandle, VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer
from repro.vv import VersionVector

VOL = VolumeId(1, 1)
VR = VolumeReplicaId(VOL, 1)


@pytest.fixture
def world():
    device = BlockDevice(8192)
    ufs = UfsLayer(Ufs.mkfs(device, num_inodes=512))
    phys = FicusPhysicalLayer(ufs, "hostA")
    store = phys.create_volume_replica(VR)
    root = phys.root().lookup(VR.to_hex())
    return device, ufs, phys, store, root


def insert_file(store, root, name, contents=b""):
    fh = root.insert(name, EntryType.FILE).fh
    vnode = root.lookup_fh(fh)
    if contents:
        vnode.write(0, contents)
    return fh, vnode


def insert_dir(store, parent, name):
    fh = parent.insert(name, EntryType.DIRECTORY).fh
    return fh, parent.lookup_dir(fh)


class TestBasicOperations:
    def test_create_and_read(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "f", b"data")
        assert root.lookup("f").read_all() == b"data"

    def test_write_bumps_version_vector(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f")
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector()
        vnode.write(0, b"x")
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector({1: 1})
        vnode.write(0, b"y")
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector({1: 2})

    def test_truncate_bumps_version_vector(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"0123456789")
        before = store.read_file_aux(store.root_handle(), fh).vv
        vnode.truncate(3)
        assert store.read_file_aux(store.root_handle(), fh).vv.strictly_dominates(before)

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
        first = root.insert("f", EntryType.FILE, eid=eid, fh=fh)
        assert root.insert("f", EntryType.FILE, eid=eid, fh=fh) == first  # RPC retry
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
        # version vector is shared through the link (aux is hard-linked)
        assert store.read_file_aux(dfh, fh).vv == store.read_file_aux(store.root_handle(), fh).vv

    def test_directory_with_two_names(self, world):
        """Ficus directories form a DAG: 'unlike Unix, Ficus directories
        may have more than one name' (paper Section 2.5)."""
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "name1")
        root.insert("name2", EntryType.DIRECTORY, fh=dfh)
        d.lookup_fh(d.insert("f", EntryType.FILE).fh).write(0, b"dag")
        assert root.lookup("name1").lookup("f").read_all() == b"dag"
        assert root.lookup("name2").lookup("f").read_all() == b"dag"
        assert store.read_dir_aux(dfh).refs == 2

    def test_removing_one_dir_name_keeps_storage(self, world):
        _, _, _, store, root = world
        dfh, d = insert_dir(store, root, "name1")
        root.insert("name2", EntryType.DIRECTORY, fh=dfh)
        eid = next(e.eid for e in store.read_entries(store.root_handle()) if e.name == "name1")
        root.remove_entry(eid)
        assert root.lookup("name2").getattr().ftype == FileType.DIRECTORY
        assert store.read_dir_aux(dfh).refs == 1

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
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector({1: 1})
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
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector({1: 1})

    def test_clean_session_no_bump(self, world):
        _, _, _, store, root = world
        fh, _ = insert_file(store, root, "f")
        root.session_open(fh)
        root.session_close(fh)
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector()

    def test_local_open_close_vnode_calls_also_work(self, world):
        """When no NFS hop intervenes the plain vnode open/close arrive."""
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f")
        vnode.open()
        vnode.write(0, b"xyz")
        vnode.write(3, b"pqr")
        vnode.close()
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector({1: 1})


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
    def test_shadow_then_commit_replaces_atomically(self, world):
        _, _, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"old version")
        shadow = store.shadow_vnode(store.root_handle(), fh, create=True)
        shadow.write(0, b"new version")
        vv = VersionVector({2: 9})
        store.commit_shadow(store.root_handle(), fh, vv)
        assert root.lookup("f").read_all() == b"new version"
        assert store.read_file_aux(store.root_handle(), fh).vv == vv

    def test_abort_discards_shadow(self, world):
        _, _, _, store, root = world
        fh, _ = insert_file(store, root, "f", b"original")
        store.shadow_vnode(store.root_handle(), fh, create=True).write(0, b"half-done")
        store.abort_shadow(store.root_handle(), fh)
        assert root.lookup("f").read_all() == b"original"
        with pytest.raises(FileNotFound):
            store.shadow_vnode(store.root_handle(), fh)

    def test_crash_before_commit_preserves_original(self, world):
        """'If a crash occurs before the shadow substitution, the original
        replica is retained during recovery and the shadow discarded.'"""
        device, ufs, phys, store, root = world
        fh, _ = insert_file(store, root, "f", b"the original survives")
        shadow = store.shadow_vnode(store.root_handle(), fh, create=True)
        shadow.write(0, b"partial new conten")
        device.plan_crash_after_writes(0)
        with pytest.raises(CrashInjected):
            store.commit_shadow(store.root_handle(), fh, VersionVector({1: 9}))
        device.recover()
        # recovery: scavenge orphan shadows, original intact
        dropped = store.scavenge_shadows(store.root_handle())
        assert dropped == 1
        assert root.lookup("f").read_all() == b"the original survives"
        assert fsck(ufs.fs).clean

    def test_setvv_overwrites_version(self, world):
        _, _, _, store, root = world
        fh, vnode = insert_file(store, root, "f", b"x")
        vv = VersionVector({1: 5, 2: 5})
        aux = store.read_file_aux(store.root_handle(), fh)
        aux.vv = vv
        store.write_file_aux(store.root_handle(), fh, aux)
        assert store.read_file_aux(store.root_handle(), fh).vv == vv

    def test_mergevv_merges_directory_version(self, world):
        _, _, _, store, root = world
        insert_file(store, root, "f")  # bumps dir vv to {1:1}
        aux = store.read_dir_aux(store.root_handle())
        aux.vv = aux.vv.merge(VersionVector({7: 3}))
        store.write_dir_aux(store.root_handle(), aux)
        assert store.read_dir_aux(store.root_handle()).vv == VersionVector({1: 1, 7: 3})


class TestOperationScope:
    """``ReplicaStore.operation``: a directory's ``.fdir`` and ``.faux`` are
    staged inside it and written once, at the outermost exit."""

    @staticmethod
    def grow_dir_vv(store, replica):
        aux = store.read_dir_aux(store.root_handle())
        aux.vv = aux.vv.merge(VersionVector({replica: 1}))
        store.write_dir_aux(store.root_handle(), aux)

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
        # one resized replace of .faux, no .fdir write: the list is the one first read
        assert device.counters.writes == before + 5
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_dir_aux(store.root_handle()).vv == VersionVector({1: 1, 7: 1, 8: 1})
        assert [e.fh for e in fresh.read_entries(store.root_handle())] == [fh]

    def test_an_exception_inside_still_flushes_what_was_staged(self, world):
        _, _, _, store, _ = world
        with pytest.raises(RuntimeError):
            with store.operation():
                self.grow_dir_vv(store, 7)
                raise RuntimeError("the operation failed half way")
        assert store.flushed()
        fresh = ReplicaStore.attach(store.lower_root, VR)
        assert fresh.read_dir_aux(store.root_handle()).vv == VersionVector({7: 1})

    def test_a_flush_that_raises_drops_the_decoded_copy(self, world):
        device, _, _, store, _ = world
        old = store.read_dir_aux(store.root_handle())
        device.plan_crash_after_writes(1)  # inside the replace of .faux
        with pytest.raises(CrashInjected):
            with store.operation():
                self.grow_dir_vv(store, 7)
        assert store.flushed() and not store._dir_aux_cache
        device.recover()
        assert store.read_dir_aux(store.root_handle()) == old  # from the device, not from memory

    def test_pending_reads_are_served_with_no_cache_at_all(self):
        device = BlockDevice(8192)
        phys = FicusPhysicalLayer(UfsLayer(Ufs.mkfs(device, num_inodes=512, cache_blocks=0)), "hostA")
        store = phys.create_volume_replica(VR)
        root = phys.root().lookup(VR.to_hex())
        insert_file(store, root, "f", b"x")
        assert not store._entries_cache and not store._dir_aux_cache
        with store.operation():
            entry = store.read_entries(store.root_handle())[0]
            before = device.counters.writes
            store.write_entries(store.root_handle(), [entry.killed()])
            assert [e.live for e in store.read_entries(store.root_handle())] == [False]
            assert store.read_dir_aux(store.root_handle()).dig_entries == entry.killed().fold_component()
            assert device.counters.writes == before
        assert device.counters.writes > before
        assert [e.live for e in store.read_entries(store.root_handle())] == [False]

    def test_a_byte_identical_record_is_not_written(self, world):
        device, _, _, store, root = world
        insert_file(store, root, "f", b"x")
        before = device.counters.writes
        store.write_dir_aux(store.root_handle(), store.read_dir_aux(store.root_handle()))
        store.write_entries(store.root_handle(), store.read_entries(store.root_handle()))
        store.refresh_dir_digests(store.root_handle())
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
        # the fold the free took the file out of has it back
        stored = store.read_dir_aux(store.root_handle()).dig_files
        store.refresh_dir_digests(store.root_handle())
        assert store.read_dir_aux(store.root_handle()).dig_files == stored != ""

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


class TestPartialReplicas:
    def test_entry_without_storage_raises_replica_not_stored(self, world):
        """Reconciliation-applied inserts publish the entry before the
        contents arrive; lookup must say 'not stored', not 'no such file'."""
        _, _, _, store, root = world
        root.insert("ghost", EntryType.FILE, from_recon=True)
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
        assert store.read_file_aux(store.root_handle(), fh).vv == VersionVector({1: 1})

    def test_aux_readable_over_nfs(self, remote_root):
        store, root = remote_root
        fh = root.insert("f", EntryType.FILE).fh
        root.lookup_fh(fh).write(0, b"x")
        batch = root.getattrs_batch([fh])
        assert batch.child(fh).vv == VersionVector({1: 1})
        # the directory's own aux record rides in the same reply
        assert batch.dir_aux.vv == store.read_dir_aux(store.root_handle()).vv

    def test_dir_by_handle_over_nfs(self, remote_root):
        store, root = remote_root
        dfh = root.insert("d", EntryType.DIRECTORY).fh
        assert root.lookup_dir(dfh).getattr().ftype == FileType.DIRECTORY
