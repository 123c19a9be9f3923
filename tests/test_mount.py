"""Tests for namespace composition via MountLayer."""

import pytest

from repro.errors import CrossDevice, FileNotFound, InvalidArgument, NotSupported
from repro.physical import EntryType, FicusPhysicalLayer
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.ufs import Ufs
from repro.util import VolumeId, VolumeReplicaId
from repro.vnode import MountLayer, UfsLayer

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def ufs_layer():
    return UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=128))


@pytest.fixture
def namespace():
    base = ufs_layer()
    base.root().mkdir("mnt")
    base.root().mkdir("home")
    mounted = ufs_layer()
    mounted.root().create("inside").write(0, b"from the mounted fs")
    ns = MountLayer(base)
    ns.mount("/mnt", mounted)
    return ns, base, mounted


class TestMounting:
    def test_lookup_crosses_mount_point(self, namespace):
        ns, _, _ = namespace
        assert ns.root().walk("mnt/inside").read_all() == b"from the mounted fs"

    def test_writes_land_in_the_right_layer(self, namespace):
        ns, base, mounted = namespace
        ns.root().walk("mnt").create("new").write(0, b"x")
        assert mounted.root().lookup("new").read_all() == b"x"
        with pytest.raises(FileNotFound):
            base.root().walk("mnt").lookup("new")

    def test_base_files_still_visible(self, namespace):
        ns, base, _ = namespace
        base.root().walk("home").create("f").write(0, b"base data")
        assert ns.root().walk("home/f").read_all() == b"base data"

    def test_mount_point_must_be_existing_directory(self):
        ns = MountLayer(ufs_layer())
        with pytest.raises(FileNotFound):
            ns.mount("/nonexistent", ufs_layer())
        ns.base.root().create("file")
        with pytest.raises(InvalidArgument):
            ns.mount("/file", ufs_layer())

    def test_double_mount_rejected(self, namespace):
        ns, _, _ = namespace
        with pytest.raises(InvalidArgument):
            ns.mount("/mnt", ufs_layer())

    def test_unmount_restores_underlying_directory(self, namespace):
        ns, base, _ = namespace
        base.root().walk("mnt").create("hidden").write(0, b"under the mount")
        with pytest.raises(FileNotFound):
            ns.root().walk("mnt").lookup("hidden")  # covered by the mount
        ns.unmount("/mnt")
        assert ns.root().walk("mnt/hidden").read_all() == b"under the mount"

    def test_unmount_unknown_rejected(self, namespace):
        ns, _, _ = namespace
        with pytest.raises(InvalidArgument):
            ns.unmount("/home")

    def test_nested_mounts(self, namespace):
        ns, _, mounted = namespace
        mounted.root().mkdir("deeper")
        third = ufs_layer()
        third.root().create("bottom").write(0, b"third fs")
        ns.mount("/mnt/deeper", third)
        assert ns.root().walk("mnt/deeper/bottom").read_all() == b"third fs"
        assert ns.mount_points == ["/mnt", "/mnt/deeper"]

    def test_mount_point_protected_from_removal(self, namespace):
        ns, _, _ = namespace
        with pytest.raises(InvalidArgument):
            ns.root().rmdir("mnt")
        with pytest.raises(InvalidArgument):
            ns.root().remove("mnt")


class TestForwarding:
    def test_operations_naming_no_child_forward(self, namespace):
        ns, _, mounted = namespace
        root = ns.root()
        inside = root.walk("mnt/inside")
        assert inside.read(0, 4) == b"from"
        assert inside.write(0, b"FROM") == 4
        assert mounted.root().lookup("inside").read(0, 8) == b"FROM the"
        assert inside.getattr().fileid == mounted.root().lookup("inside").getattr().fileid
        assert {"inside"} <= {e.name for e in root.walk("mnt").readdir()}
        assert {"mnt", "home"} <= {e.name for e in root.readdir()}
        with pytest.raises(InvalidArgument):
            root.create("mnt")  # a mount point is never a new file

    def test_lookup_by_handle_is_not_supported(self):
        """A handle names no path, so the mount could not tell which layer
        owns what it would reach — even over a layer that answers it."""
        physical = FicusPhysicalLayer(ufs_layer(), "host")
        vr = VolumeReplicaId(VolumeId(1, 1), 1)
        store = physical.create_volume_replica(vr)
        entry = physical.root().lookup(vr.to_hex()).insert("f", EntryType.FILE)
        volume = MountLayer(physical).root().lookup(vr.to_hex())
        assert volume.lookup("f").getattr().size == 0
        for fh in (entry.fh, store.root_handle()):
            with pytest.raises(NotSupported):
                volume.lookup_fh(fh)


class TestCrossMountRestrictions:
    def test_rename_across_mounts_rejected(self, namespace):
        ns, _, _ = namespace
        root = ns.root()
        root.walk("home").create("f")
        with pytest.raises(CrossDevice):
            root.walk("home").rename("f", root.walk("mnt"), "f")

    def test_link_across_mounts_rejected(self, namespace):
        ns, _, _ = namespace
        root = ns.root()
        f = root.walk("home").create("f")
        with pytest.raises(CrossDevice):
            root.walk("mnt").link(f, "alias")

    def test_rename_within_one_mount_works(self, namespace):
        ns, _, _ = namespace
        mnt = ns.root().walk("mnt")
        mnt.create("a").write(0, b"z")
        mnt.rename("a", mnt, "b")
        assert mnt.lookup("b").read_all() == b"z"


class TestFicusAsAMount:
    def test_replicated_namespace_beside_private_files(self):
        """The workstation picture: private UFS at /, the distributed
        Ficus namespace mounted at /ficus."""
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        private = ufs_layer()
        private.root().mkdir("ficus")
        private.root().create("private.txt").write(0, b"local only")
        ns = MountLayer(private)
        ns.mount("/ficus", system.host("a").logical)
        root = ns.root()
        root.walk("ficus").create("shared.txt").write(0, b"replicated")
        # visible to the other Ficus host...
        assert system.host("b").fs().read_file("/shared.txt") == b"replicated"
        # ...while private files never left the workstation
        assert root.lookup("private.txt").read_all() == b"local only"
