"""Host crash/restart: durable state survives, volatile state rebuilds."""

import itertools

import pytest

from repro.errors import AllReplicasUnavailable, CrashInjected
from repro.physical.check import ficus_fsck
from repro.physical.store import ID_RANGE
from repro.physical.wire import AuxAttributes, EntryType
from repro.sim import DaemonConfig, FicusSystem
from repro.util import FicusFileHandle

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


class TestSingleHostRestart:
    def test_files_survive_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.makedirs("/deep/tree")
        fs.write_file("/deep/tree/data", b"durable bytes")
        host.crash()
        host.restart(system)
        fs2 = host.fs()
        assert fs2.read_file("/deep/tree/data") == b"durable bytes"
        assert sorted(fs2.walk_tree()) == ["/deep", "/deep/tree", "/deep/tree/data"]

    def test_version_vectors_survive_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.write_file("/f", b"v1")
        fs.write_file("/f", b"v2")
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        vv_before = store.read_record(fh).vv
        host.crash()
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        assert store2.read_record(fh).vv == vv_before

    def test_id_mints_never_reissue_after_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        for i in range(5):
            fs.write_file(f"/f{i}", b"x")
        volrep = system.root_locations[0].volrep
        before = {
            e.fh for e in host.physical.store_for(volrep).read_entries(
                host.physical.store_for(volrep).root_handle()
            )
        }
        host.crash()
        host.restart(system)
        host.fs().write_file("/fresh", b"y")
        store = host.physical.store_for(volrep)
        fresh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "fresh")
        assert fresh not in before

    def test_reserved_ids_are_skipped_never_reused_by_a_crash(self):
        """The mints hand out ids from a range ``.meta`` reserved before the
        first of them was used.  Crash the host at every device write of a
        mint that reserves, reboot, mint again: an id may be skipped, none
        is handed out twice, and ``.meta`` stays ahead of every issued id."""
        for crash_point in itertools.count():
            system = FicusSystem(["solo"], daemon_config=QUIET)
            host = system.host("solo")
            device = host.ufs.device
            store = host.physical.store_for(system.root_locations[0].volrep)
            host.fs().write_file("/early", b"x")  # a published id of each kind
            issued = []
            while True:  # mint until one had to write .meta first: a new range
                writes = device.counters.writes
                issued.append(store.new_entry_id())
                if device.counters.writes != writes:
                    break
            issued += [store.new_entry_id() for _ in range(ID_RANGE - 1)]  # ... now used up
            system.run_for(1.0)
            device.plan_crash_after_writes(crash_point)
            try:
                issued.append(store.new_entry_id())  # the mint that reserves
            except CrashInjected:
                pass
            completed = not device.failed
            host.crash()
            device.recover()
            host.restart(system)
            store = host.physical.store_for(system.root_locations[0].volrep)
            issued += [store.new_entry_id() for _ in range(3)]
            host.fs().write_file("/fresh", b"y")
            published = [entry.eid for entry in store.read_entries(store.root_handle())]
            assert len(set(issued + published)) == len(issued) + len(published)
            assert not [p for p in ficus_fsck(store).problems if "mint behind" in p]
            if completed:
                break
        assert crash_point == 2  # the in-place replace of .meta: data, inode

    def test_an_install_cut_short_leaves_the_original_on_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.write_file("/f", b"original")
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        root = store.root_handle()
        fh = next(e.fh for e in store.read_entries(root) if e.name == "f")
        vv = store.read_record(fh).vv
        # a propagation died mid-install: the new version's block and its
        # bitmap bit landed, the inode write that commits them did not
        host.ufs.device.plan_crash_after_writes(2)
        with pytest.raises(CrashInjected):
            store.install(root, fh, b"half-pulled new", vv.bump(2), "")
        host.crash()
        host.ufs.device.recover()
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        assert host.fs().read_file("/f") == b"original"
        assert store2.read_record(fh).vv == vv
        # nothing for recovery to drop: the one name is the file's own
        assert store2._unix_names(root) == [fh.logical.to_hex()]

    def test_contents_without_a_record_dropped_on_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        # a create cut short after its contents, before its record landed
        orphan = FicusFileHandle(store.volume, store.new_file_id())
        store.dir_unix_vnode(store.root_handle()).create(orphan.to_hex()).write(0, b"never published")
        host.crash()
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        assert not store2.has_file(store2.root_handle(), orphan)
        assert ficus_fsck(store2).clean

    def test_a_record_stored_nowhere_cleared_on_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        host.fs().write_file("/f", b"x")
        host.fs().unlink("/f")
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        # a record whose file is stored nowhere: its last name went, and
        # the crash took the clear that should have gone with it
        ghost = FicusFileHandle(store.volume, store.new_file_id())
        with store.operation():
            store._stage_new(ghost, AuxAttributes(fh=ghost, etype=EntryType.FILE), None)
        assert ghost in store.record_handles()
        host.crash()
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        assert ghost not in store2.record_handles()
        assert ficus_fsck(store2).clean

    def test_a_session_cut_short_by_a_crash_is_counted_on_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        host.fs().write_file("/f", b"v1")
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        before = store.read_record(fh).vv
        handle = host.fs().open("/f", "r+")
        handle.write(b"v2")  # lands, marked as an update in progress
        assert store.read_record(fh).updating
        host.crash()  # the close, and its bump, never happen
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        aux = store2.read_record(fh)
        assert aux.vv.strictly_dominates(before) and not aux.updating
        assert host.fs().read_file("/f") == b"v2"

    def test_a_policy_tag_holding_a_nul_survives_restart(self):
        # the attribute table pads a record's run with NULs, so the codec
        # escapes a NUL in any value: the run stays whole and decodes
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        host.fs().write_file("/f", b"kept")
        host.fs().set_merge_policy("/f", "a\0b")
        host.crash()
        host.restart(system)
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        assert store.read_record(fh).merge_policy == "a\0b"
        assert host.fs().read_file("/f") == b"kept"
        assert ficus_fsck(store).clean


class TestClusterWithRestarts:
    def test_crashed_host_is_unreachable_but_others_continue(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.reconcile_everything()
        system.host("a").crash()
        # b keeps serving (one-copy availability) and keeps updating
        assert system.host("b").fs().read_file("/f") == b"x"
        system.host("b").fs().write_file("/g", b"while a was down")

    def test_restarted_host_catches_up_via_recon(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.reconcile_everything()
        system.host("a").crash()
        system.host("b").fs().write_file("/made-during-outage", b"y")
        system.host("a").restart(system)
        system.reconcile_everything()
        assert system.host("a").fs().read_file("/made-during-outage") == b"y"

    def test_remote_clients_recover_from_server_reboot(self):
        """NFS statelessness end-to-end: the logical layer on 'client'
        keeps working across a reboot of the host storing the only
        replica."""
        system = FicusSystem(["server", "client"], root_volume_hosts=["server"], daemon_config=QUIET)
        fs = system.host("client").fs()
        fs.write_file("/f", b"before reboot")
        server = system.host("server")
        server.crash()
        with pytest.raises(AllReplicasUnavailable):
            fs.read_file("/f")
        server.restart(system)
        assert fs.read_file("/f") == b"before reboot"
        fs.write_file("/g", b"after reboot")
        assert fs.read_file("/g") == b"after reboot"

    def test_open_session_dies_with_crash_without_corruption(self):
        system = FicusSystem(["server", "client"], root_volume_hosts=["server"], daemon_config=QUIET)
        fs = system.host("client").fs()
        fs.write_file("/f", b"stable")
        handle = fs.open("/f", "a")
        handle.write(b"-more")
        system.host("server").crash()
        system.host("server").restart(system)
        # closing the dangling handle must not fail even though the
        # server-side session pin died with the crash
        handle.close()
        # new operations work; data written before the crash was
        # write-through and survived
        assert fs.read_file("/f") == b"stable-more"
