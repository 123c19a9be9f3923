"""Host crash/restart: durable state survives, volatile state rebuilds."""

import itertools

import pytest

from repro.errors import AllReplicasUnavailable, CrashInjected, FileNotFound
from repro.physical.check import ficus_fsck
from repro.physical.store import ID_RANGE
from repro.sim import DaemonConfig, FicusSystem

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
        vv_before = store.read_file_aux(store.root_handle(), fh).vv
        host.crash()
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        assert store2.read_file_aux(store2.root_handle(), fh).vv == vv_before

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

    def test_orphan_shadows_scavenged_on_restart(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.write_file("/f", b"original")
        volrep = system.root_locations[0].volrep
        store = host.physical.store_for(volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        # a propagation died mid-shadow-write...
        store.shadow_vnode(store.root_handle(), fh, create=True).write(0, b"half-pulled ne")
        host.crash()
        host.restart(system)
        store2 = host.physical.store_for(volrep)
        with pytest.raises(FileNotFound):
            store2.shadow_vnode(store2.root_handle(), fh)
        assert host.fs().read_file("/f") == b"original"


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
