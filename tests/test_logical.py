"""Tests for the logical layer: single-copy abstraction, replica selection."""

import pytest

from repro.errors import (
    AllReplicasUnavailable,
    CrossDevice,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    HostUnreachable,
    IOError_,
    IsADirectory,
    NotADirectory,
)
from repro.nfs import NfsClientLayer
from repro.physical import FicusPhysicalLayer
from repro.sim import DaemonConfig, FicusSystem
from repro.ufs import FileType
from repro.vnode.interface import SetAttrs

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


@pytest.fixture
def system():
    return FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)


@pytest.fixture
def alpha_root(system):
    return system.host("alpha").root()


class TestBasicNamespace:
    def test_create_and_read(self, alpha_root):
        f = alpha_root.create("f")
        f.write(0, b"data")
        assert alpha_root.lookup("f").read_all() == b"data"

    def test_duplicate_create_rejected(self, alpha_root):
        alpha_root.create("f")
        with pytest.raises(FileExists):
            alpha_root.create("f")

    def test_mkdir_and_nested_files(self, alpha_root):
        d = alpha_root.mkdir("d")
        d.create("f").write(0, b"x")
        assert alpha_root.walk("d/f").read_all() == b"x"

    def test_remove(self, alpha_root):
        alpha_root.create("f")
        alpha_root.remove("f")
        with pytest.raises(FileNotFound):
            alpha_root.lookup("f")

    def test_remove_directory_rejected(self, alpha_root):
        alpha_root.mkdir("d")
        with pytest.raises(IsADirectory):
            alpha_root.remove("d")

    def test_rmdir_requires_empty(self, alpha_root):
        d = alpha_root.mkdir("d")
        d.create("f")
        with pytest.raises(DirectoryNotEmpty):
            alpha_root.rmdir("d")
        d.remove("f")
        alpha_root.rmdir("d")

    def test_rmdir_of_file_rejected(self, alpha_root):
        alpha_root.create("f")
        with pytest.raises(NotADirectory):
            alpha_root.rmdir("f")

    def test_symlink(self, alpha_root):
        alpha_root.symlink("lnk", "/a/b")
        assert alpha_root.lookup("lnk").readlink() == "/a/b"

    def test_readdir_types(self, alpha_root):
        alpha_root.create("f")
        alpha_root.mkdir("d")
        entries = {e.name: e.ftype for e in alpha_root.readdir()}
        assert entries == {"f": FileType.REGULAR, "d": FileType.DIRECTORY}

    def test_link_gives_second_name(self, alpha_root):
        f = alpha_root.create("orig")
        f.write(0, b"shared")
        alpha_root.link(f, "alias")
        assert alpha_root.lookup("alias").read_all() == b"shared"

    def test_rename_within_directory(self, alpha_root):
        alpha_root.create("old").write(0, b"content")
        alpha_root.rename("old", alpha_root, "new")
        assert alpha_root.lookup("new").read_all() == b"content"
        with pytest.raises(FileNotFound):
            alpha_root.lookup("old")

    def test_rename_across_directories(self, alpha_root):
        a = alpha_root.mkdir("a")
        b = alpha_root.mkdir("b")
        a.create("f").write(0, b"moving")
        a.rename("f", b, "g")
        assert b.lookup("g").read_all() == b"moving"

    def test_rename_replaces_file_target(self, alpha_root):
        alpha_root.create("src").write(0, b"src")
        alpha_root.create("dst").write(0, b"dst")
        alpha_root.rename("src", alpha_root, "dst")
        assert alpha_root.lookup("dst").read_all() == b"src"

    def test_rename_onto_directory_rejected(self, alpha_root):
        alpha_root.create("f")
        alpha_root.mkdir("d")
        with pytest.raises(IsADirectory):
            alpha_root.rename("f", alpha_root, "d")

    def test_rename_directory_keeps_contents(self, alpha_root):
        d = alpha_root.mkdir("olddir")
        d.create("inner").write(0, b"kept")
        alpha_root.rename("olddir", alpha_root, "newdir")
        assert alpha_root.walk("newdir/inner").read_all() == b"kept"


class TestReplicaSelection:
    def test_any_host_reads_data_created_elsewhere(self, system):
        """One-copy availability: beta can read alpha's file through
        alpha's replica even before its own replica has a copy."""
        system.host("alpha").root().create("f").write(0, b"remote read")
        beta_root = system.host("beta").root()
        # beta's own replica is stale (no recon ran): the latest policy
        # must find the newest copy among reachable replicas
        assert beta_root.lookup("f").read_all() == b"remote read"

    def test_latest_policy_prefers_most_recent(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("f").write(0, b"v1")
        system.reconcile_everything()
        # update only on beta's replica
        beta.root().lookup("f").write(0, b"v2 fresher")
        # alpha's local copy is v1; the latest policy must detect beta's
        assert alpha.root().lookup("f").read_all() == b"v2 fresher"

    def test_read_fails_only_when_no_replica_reachable(self, system):
        alpha = system.host("alpha")
        alpha.root().create("f").write(0, b"x")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}, {"gamma"}])
        # each host still reads its own replica: one-copy availability
        for name in ["alpha", "beta", "gamma"]:
            assert system.host(name).root().lookup("f").read_all() == b"x"
        # a file only on alpha, not yet propagated, is unavailable to beta
        alpha.root().create("fresh").write(0, b"new")
        with pytest.raises((AllReplicasUnavailable, FileNotFound)):
            system.host("beta").root().lookup("fresh").read_all()

    def test_update_during_partition_succeeds_locally(self, system):
        alpha = system.host("alpha")
        alpha.root().create("f").write(0, b"v0")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta", "gamma"}])
        alpha.root().lookup("f").write(0, b"alpha can still write")
        assert alpha.root().lookup("f").read_all() == b"alpha can still write"

    def test_failover_mid_use(self, system):
        """A vnode held across a partition change fails over silently."""
        alpha = system.host("alpha")
        alpha.root().create("f").write(0, b"stable")
        system.reconcile_everything()
        vnode = system.host("beta").root().lookup("f")
        assert vnode.read_all() == b"stable"
        system.partition([{"beta", "gamma"}, {"alpha"}])
        assert vnode.read_all() == b"stable"  # beta replica serves


class TestOpenCloseSessions:
    def test_session_coalesces_version_bumps(self, system):
        alpha = system.host("alpha")
        f = alpha.root().create("f")
        f.open()
        f.write(0, b"a")
        f.write(1, b"b")
        f.close()
        volrep = system.root_locations[0].volrep
        store = alpha.physical.store_for(volrep)
        aux = store.read_record(f.fh)
        assert aux.vv.total_updates == 1

    def test_close_sends_one_notification(self, system):
        alpha = system.host("alpha")
        f = alpha.root().create("f")
        sent_before = alpha.logical.notifications_sent
        f.open()
        f.write(0, b"a")
        f.write(1, b"b")
        f.close()
        # writes inside a session leave the vector alone, so they announce
        # nothing; the close that bumps it sends the one notification
        assert alpha.logical.notifications_sent == sent_before + 1

    def test_nested_opens_leave_no_session_open(self):
        """Two logical vnodes of one file opened on one host and both closed:
        no physical session outlives them, so later writes still advance
        the version vector and reconciliation carries them."""
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        fs = system.host("a").fs()
        fs.write_file("/f", b"v1")
        system.reconcile_everything()
        root = system.host("a").root()
        first, second = root.lookup("f"), root.lookup("f")
        first.open()
        second.open()
        first.close()
        second.close()
        fs.write_file("/f", b"v2")
        fs.write_file("/f", b"v3")
        system.reconcile_everything()
        states, sessions = [], []
        for location in system.root_locations:
            host = system.host(location.host)
            store = host.physical.store_for(location.volrep)
            parent = store.root_handle()
            fh = next(e.fh for e in store.read_entries(parent) if e.live and e.name == "f")
            aux = store.read_record(fh)
            states.append((store.file_vnode(parent, fh).read_all(), aux.vv.total_updates))
            sessions.append(fh in host.physical.written_sessions(store))
        assert states == [(b"v3", 3), (b"v3", 3)]
        assert sessions == [False, False]


def replicas_and_a_client() -> FicusSystem:
    """Replicas on a, b and c agreeing on ``/f``; ``cl`` is diskless."""
    system = FicusSystem(
        ["a", "b", "c", "cl"], root_volume_hosts=["a", "b", "c"], daemon_config=QUIET
    )
    system.host("a").fs().write_file("/f", b"v1")
    system.reconcile_everything()
    return system


class TestOneNotificationPerSession:
    """An update session is one update (paper Section 2.3), and the
    notification announces the version it made (Section 2.5): one per
    session, sent by the close that bumps the vector."""

    @pytest.fixture
    def world(self):
        return replicas_and_a_client()

    @staticmethod
    def sent(system, host):
        return system.host(host).logical.notifications_sent, system.network.stats.datagrams_sent

    # a replica host updates its own replica and tells the two others; a
    # diskless client updates a's over NFS and tells all three (a's cache
    # must learn its own replica moved)
    @pytest.mark.parametrize("host, datagrams", [("a", 2), ("cl", 3)], ids=["replica-host", "diskless"])
    @pytest.mark.parametrize("op", ["write_file", "append_file"])
    def test_an_update_session_sends_one_notification(self, world, host, datagrams, op):
        notes_before, datagrams_before = self.sent(world, host)
        getattr(world.host(host).fs(), op)("/f", b"v2")
        notes_after, datagrams_after = self.sent(world, host)
        assert notes_after - notes_before == 1
        assert datagrams_after - datagrams_before == datagrams

    def test_an_update_outside_any_session_notifies_once(self, world):
        node = world.host("a").fs().resolve("/f")
        for update in (
            lambda: node.write(0, b"V"),
            lambda: node.setattr(SetAttrs(size=0)),
            lambda: node.setattr(SetAttrs(policy="lww")),
        ):
            notes_before, _ = self.sent(world, "a")
            update()
            assert self.sent(world, "a")[0] - notes_before == 1

    def test_a_failed_close_drops_its_pin(self, world, monkeypatch):
        """The session's first write fails in the vector-bump write: the
        error reaches the caller, and nothing of the session outlives it."""
        a = world.host("a")
        fs = a.fs()
        fh = fs.resolve("/f").fh
        bump, note_update = FicusPhysicalLayer._bump_file_vv, FicusPhysicalLayer.note_update
        failures = [IOError_("injected: the vector-bump write failed")]
        opened = []

        def failing_bump(self, *args):
            if failures:
                raise failures.pop()
            return bump(self, *args)

        def counting_open(self, store, fh, session):
            was_open = fh in self.written_sessions(store)
            note_update(self, store, fh, session)
            if session and not was_open:
                opened.append(fh)

        monkeypatch.setattr(FicusPhysicalLayer, "_bump_file_vv", failing_bump)
        monkeypatch.setattr(FicusPhysicalLayer, "note_update", counting_open)
        with pytest.raises(IOError_):
            fs.write_file("/f", b"v2")
        assert fh not in a.logical._session_pins
        del opened[:]
        notes_before, _ = self.sent(world, "a")
        fs.write_file("/f", b"v3")
        assert opened == [fh]  # a new physical session, not the dead pin
        assert self.sent(world, "a")[0] - notes_before == 1
        assert world.host("b").fs().read_file("/f") == b"v3"


class TestSessionsBeginWithTheirFirstUpdate:
    """A read has no update session (paper Section 2.3): an open pins a
    replica and sends nothing, and the first write through the pin carries
    the session to the replica.  The client is diskless and updates a's
    replica over NFS."""

    @pytest.fixture
    def world(self):
        return replicas_and_a_client()

    @staticmethod
    def a_replica(system):
        """a's physical layer, its store, and ``/f``'s record there."""
        physical = system.host("a").physical
        store = physical.store_for(system.root_locations[0].volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.live and e.name == "f")
        return physical, store, fh

    @staticmethod
    def recording(system):
        """The services of every RPC sent from now on."""
        services, real = [], system.network.rpc

        def rpc(src, dst, service, *args, **kwargs):
            services.append(service.split(".", 1)[1])
            return real(src, dst, service, *args, **kwargs)

        system.network.rpc = rpc
        return services

    def test_a_warm_read_only_open_sends_one_rpc(self, world):
        fs = world.host("cl").fs()
        assert fs.read_file("/f") == b"v1"  # warm every cache
        services = self.recording(world)
        with fs.open("/f", "r") as f:
            assert f.read() == b"v1"
        assert services == ["read"]
        for location in world.root_locations:
            physical = world.host(location.host).physical
            assert physical.written_sessions(physical.store_for(location.volrep)) == frozenset()

    def test_a_read_only_session_notifies_nobody(self, world):
        notes, datagrams = world.host("cl").logical.notifications_sent, world.network.stats.datagrams_sent
        with world.host("cl").fs().open("/f", "r") as f:
            f.read()
        assert world.host("cl").logical.notifications_sent == notes
        assert world.network.stats.datagrams_sent == datagrams

    def test_three_remote_writes_advance_the_vector_once(self, world):
        physical, store, fh = self.a_replica(world)
        settled = store.read_record(fh).vv
        services = self.recording(world)
        with world.host("cl").fs().open("/f", "r+") as f:
            for data in (b"x", b"y", b"z"):
                f.write(data)
        assert store.read_record(fh).vv == settled.bump(store.replica_id)
        assert services.count("write") == 3 and services.count("session_close") == 1
        assert physical.written_sessions(store) == frozenset()

    def test_an_open_written_session_is_named_writing_and_copied_by_no_peer(self, world):
        physical, store, fh = self.a_replica(world)
        b_store = world.host("b").physical.store_for(world.root_locations[1].volrep)
        with world.host("cl").fs().open("/f", "r+") as f:
            f.write(b"v2")
            assert fh in physical.dir_vnode(store, store.root_handle()).getattrs_batch().writing
            world.reconcile_everything()
            assert b_store.file_vnode(b_store.root_handle(), fh).read_all() == b"v1"
        assert fh not in physical.dir_vnode(store, store.root_handle()).getattrs_batch().writing
        world.reconcile_everything()
        assert b_store.file_vnode(b_store.root_handle(), fh).read_all() == b"v2"


class TestTheWriterKeepsWhatItDidNotChange:
    """An update changes the one replica that applied it (Section 2.5), so
    the updating host drops its batch of that replica alone — from a
    replica host (whose own replica takes the update) and from a diskless
    client (which updates the lowest-id replica over NFS)."""

    @pytest.mark.parametrize("host", ["a", "cl"], ids=["replica-host", "diskless"])
    @pytest.mark.parametrize(
        "update",
        [
            lambda fs: fs.write_file("/f", b"v2"),
            lambda fs: fs.write_file("/new", b"x"),
            lambda fs: fs.mkdir("/d"),
            lambda fs: fs.rename("/f", "/g"),
            lambda fs: fs.link("/f", "/l"),
            lambda fs: fs.unlink("/f"),
        ],
        ids=["write", "create", "mkdir", "rename", "link", "unlink"],
    )
    def test_only_the_acting_replicas_batch_goes(self, host, update):
        system = replicas_and_a_client()
        fs, logical = system.host(host).fs(), system.host(host).logical
        assert fs.listdir("/") == ["f"]  # every replica's root batch held
        record = logical.attr_cache._record(logical.root_volume, logical.root().fh)
        held = {loc.host: record.replicas[loc.volrep].batch for loc in system.root_locations}
        update(fs)
        after = {loc.host: record.replicas[loc.volrep].batch for loc in system.root_locations}
        assert after["a"] is not held["a"]
        assert after["b"] is held["b"] and after["c"] is held["c"]


class TestCrossVolumeRestrictions:
    def test_rename_across_volumes_rejected(self, system):
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "other", volume, locations)
        other = root.lookup("other")
        root.create("f")
        with pytest.raises(CrossDevice):
            root.rename("f", other, "f")

    def test_link_across_volumes_rejected(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "other", volume, locations)
        other = root.lookup("other")
        f = root.create("f")
        with pytest.raises(CrossDevice):
            other.link(f, "bad")


class TestStaleHandles:
    """One rule for a held handle that went stale: drop the directory's
    handles on every replica, resolve the session's pin afresh, retry once.
    The client is diskless, so every handle it holds is an NFS handle."""

    @pytest.fixture
    def world(self):
        system = FicusSystem(
            ["a", "b", "cl"], root_volume_hosts=["a", "b"], daemon_config=QUIET
        )
        fs_a = system.host("a").fs()
        fs_a.mkdir("/d")
        fs_a.write_file("/d/f", b"version one")
        system.reconcile_everything()
        return system, system.host("cl").fs()

    @staticmethod
    def reboot_servers(system):
        for name in ("a", "b"):
            system.host(name).crash()
            system.host(name).restart(system)

    def test_an_install_keeps_a_held_handle_valid(self, world, monkeypatch):
        system, fs = world
        stale = []
        monkeypatch.setattr(NfsClientLayer, "note_stale", lambda self, handle: stale.append(handle))
        # cl opens the file while only b is reachable: its session holds
        # the handle it looked up at b
        system.partition([{"a"}, {"b", "cl"}])
        session = fs.open("/d/f", "r")
        assert session.read(64) == b"version one"
        system.host("a").fs().write_file("/d/f", b"version two, longer")
        system.heal()
        system.reconcile_everything()  # b pulls a's version and installs it
        rpcs = system.network.stats.peer("cl", "b").rpcs
        invalidations = system.host("cl").logical.attr_cache.stats.invalidations
        # the install wrote into the inode the handle names: the next read
        # is one RPC, answered with the new bytes, and nothing went stale
        session.seek(0)
        assert session.read(64) == b"version two, longer"
        assert system.network.stats.peer("cl", "b").rpcs == rpcs + 1
        assert system.host("cl").logical.attr_cache.stats.invalidations == invalidations
        assert stale == []
        session.close()

    def test_truncate_on_a_handle_held_across_a_pulled_install(self, world):
        system, fs = world
        node = fs.resolve("/d/f")
        assert node.getattr().size == 11  # cl now holds the file's handle at a
        # b updates its own copy; a's pull installs it into the inode that
        # handle names
        system.partition([{"a", "cl"}, {"b"}])
        system.host("b").fs().write_file("/d/f", b"version two, longer")
        system.heal()
        system.reconcile_everything()
        node.setattr(SetAttrs(size=4))
        assert fs.read_file("/d/f") == b"vers"

    def test_server_reboot_between_two_warm_reads(self, world):
        system, fs = world
        assert fs.read_file("/d/f") == b"version one"
        self.reboot_servers(system)
        stats = system.host("cl").logical.attr_cache.stats
        before = stats.invalidations
        assert fs.read_file("/d/f") == b"version one"
        # the warm path really did run into the dead handles and drop them
        assert stats.invalidations > before

    def test_server_reboot_before_a_warm_stat(self, world):
        system, fs = world
        assert fs.stat("/d/f").size == 11
        self.reboot_servers(system)
        system.run_for(3.5)  # past the NFS attribute TTL, inside the view's
        assert fs.stat("/d/f").size == 11
        assert fs.listdir("/d") == ["f"]

    @pytest.mark.parametrize(
        "operation",
        [
            lambda fs: fs.stat("/d"),
            lambda fs: fs.resolve("/d").setattr(SetAttrs(perm=0o700)),
            lambda fs: fs.resolve("/d").access(4),
            lambda fs: fs.create_file("/d/c"),
            lambda fs: fs.mkdir("/d/sub"),
            lambda fs: fs.symlink("f", "/d/s"),
            lambda fs: fs.link("/d/f", "/d/l"),
            lambda fs: fs.unlink("/d/f"),
            lambda fs: fs.rmdir("/d/e"),
            lambda fs: fs.rename("/d/f", "/d/h"),
        ],
        ids=["getattr", "setattr", "access", "create", "mkdir", "symlink", "link", "remove",
             "rmdir", "rename"],
    )
    def test_server_reboot_before_a_directory_operation(self, world, operation):
        """A held *directory* handle goes stale like a file's; every
        directory operation re-resolves it under the same rule."""
        system, fs = world
        system.host("a").fs().mkdir("/d/e")
        system.reconcile_everything()
        assert fs.stat("/d").is_dir and fs.listdir("/d") == ["e", "f"]  # cl holds /d's handles
        self.reboot_servers(system)
        system.run_for(3.5)  # past the NFS attribute TTL
        operation(fs)
        system.reconcile_everything()
        assert fs.listdir("/d") == system.host("a").fs().listdir("/d")

    def test_server_reboot_inside_an_open_session(self, world):
        system, fs = world
        with fs.open("/d/f", "r+") as f:
            assert f.read(7) == b"version"
            self.reboot_servers(system)
            f.write(b" 1.5")
        assert fs.read_file("/d/f") == b"version 1.5"

    @pytest.mark.parametrize("handle_goes_stale", [True, False], ids=["estale", "no-estale"])
    def test_a_session_the_reboot_forgot_still_notifies_once(self, world, handle_goes_stale):
        """The reboot comes before the session's first write, which carries
        the session: the rebooted server opens a fresh one at that write,
        and the close ends it there and sends the one notification.
        Without ESTALE the handle resolves again because the pinned host
        itself read the file's attributes after its restart."""
        system, fs = world
        logical = system.host("cl").logical
        with fs.open("/d/f", "r+") as f:
            f.read(7)
            if handle_goes_stale:
                self.reboot_servers(system)
            else:
                a = system.host("a")
                a.crash()
                a.restart(system)
                assert a.fs().stat("/d/f").size == 11
            invalidations = logical.attr_cache.stats.invalidations
            sent = logical.notifications_sent
            f.write(b" 1.5")
            assert logical.notifications_sent == sent
            went_stale = logical.attr_cache.stats.invalidations > invalidations
            assert went_stale == handle_goes_stale
        assert logical.notifications_sent == sent + 1
        system.reconcile_everything()
        assert system.host("b").fs().read_file("/d/f") == b"version 1.5"


class TestKeptRoots:
    """The fabric fetches each volume replica's root once and keeps it;
    every way of reaching a replica goes through it."""

    @pytest.fixture
    def world(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        alpha = system.host("alpha")
        alpha.fs().mkdir("/d")
        system.reconcile_everything()
        beta_volrep = next(loc.volrep for loc in system.root_locations if loc.host == "beta")
        return system, alpha, beta_volrep, alpha.root().lookup("d").fh

    @staticmethod
    def record_rpcs(system, monkeypatch) -> list[str]:
        sent = []
        rpc = system.network.rpc

        def recording(src, dst, service, *args, **kwargs):
            sent.append(service.split(".", 1)[1])
            return rpc(src, dst, service, *args, **kwargs)

        monkeypatch.setattr(system.network, "rpc", recording)
        return sent

    def test_a_cold_selection_through_a_kept_root_sends_no_root(self, world, monkeypatch):
        system, alpha, beta_volrep, d_fh = world
        alpha.fabric.volume_root("beta", beta_volrep)
        sent = self.record_rpcs(system, monkeypatch)
        alpha.fs().write_file("/d/f", b"x")  # selects /d on both replicas
        assert "lookup_fh" in sent
        assert "root" not in sent and "lookup" not in sent

    def test_a_partitioned_peer_costs_no_rpc_and_no_time(self, world):
        system, alpha, beta_volrep, d_fh = world
        alpha.fabric.volume_root("beta", beta_volrep)
        system.partition([{"alpha"}, {"beta"}])
        rpcs, now = system.network.stats.rpcs_sent, system.clock.now()
        with pytest.raises(HostUnreachable):
            alpha.fabric.dir_by_handle("beta", beta_volrep, d_fh)
        assert system.network.stats.rpcs_sent == rpcs
        assert system.clock.now() == now

    def test_a_peer_reboot_costs_one_fresh_root(self, world, monkeypatch):
        system, alpha, beta_volrep, d_fh = world

        def read_d(root):
            return root.lookup_fh(d_fh).getattrs_batch()

        alpha.fabric.at_replica("beta", beta_volrep, read_d)
        beta = system.host("beta")
        beta.crash()
        beta.restart(system)
        sent = self.record_rpcs(system, monkeypatch)
        # the held handles of /d and of the root are stale at beta now,
        # and so are the lookups alpha's NFS client cached: one failure,
        # one fresh root, and the call goes through
        assert alpha.fabric.at_replica("beta", beta_volrep, read_d).dir_aux is not None
        assert sent == ["getattrs_batch", "root", "lookup", "lookup_fh", "getattrs_batch"]
