"""Tests for the logical layer: single-copy abstraction, replica selection."""

import pytest

from repro.errors import (
    AllReplicasUnavailable,
    CrossDevice,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.logical import READ_ANY
from repro.physical import volume_root_handle
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

    def test_any_policy_settles_for_first_reachable(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET, read_policy=READ_ANY)
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("f").write(0, b"v1")
        system.reconcile_everything()
        beta.root().lookup("f").write(0, b"v2")
        # alpha reads its own (stale) replica under the weak policy
        assert alpha.root().lookup("f").read_all() == b"v1"

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
        aux = store.read_file_aux(volume_root_handle(system.root_volume), f.fh)
        assert aux.vv.total_updates == 1

    def test_close_sends_one_notification(self, system):
        alpha = system.host("alpha")
        f = alpha.root().create("f")
        sent_before = alpha.logical.notifications_sent
        f.open()
        f.write(0, b"a")
        f.write(1, b"b")
        f.close()
        # writes inside a session do notify (cheap datagrams), close adds one
        assert alpha.logical.notifications_sent > sent_before

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
            aux = store.read_file_aux(parent, fh)
            states.append((store.file_vnode(parent, fh).read_all(), aux.vv.total_updates))
            sessions.append(host.physical.has_open_session(store, fh))
        assert states == [(b"v3", 3), (b"v3", 3)]
        assert sessions == [False, False]


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

    def test_truncate_on_a_handle_staled_by_a_shadow_commit(self, world):
        system, fs = world
        node = fs.resolve("/d/f")
        assert node.getattr().size == 11  # cl now holds the file's handle at a
        # b updates its own copy; a's pull installs it through a shadow
        # file whose commit gives the file a new inode at a
        system.partition([{"a", "cl"}, {"b"}])
        system.host("b").fs().write_file("/d/f", b"version two, longer")
        system.heal()
        system.reconcile_everything()
        node.truncate(4)
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
