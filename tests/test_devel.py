"""Tests for the Section-5 development methodology helpers."""


from repro.devel import build_switchable, externalize, measure_crossing_penalty
from repro.net import Network
from repro.nfs import NfsClientLayer
from repro.storage import BlockDevice
from repro.ufs import Ufs
from repro.vnode import UfsLayer


def ufs_factory():
    return UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=128))


class TestExternalize:
    def test_behaviour_identical_across_modes(self):
        """The 'switch': the same op sequence gives the same results
        whether the layer runs in-kernel or at application level."""
        results = []
        for user_level in (False, True):
            layer = build_switchable(ufs_factory, user_level)
            root = layer.root()
            d = root.mkdir("dir")
            d.create("f").write(0, b"mode-independent")
            results.append(
                (
                    root.walk("dir/f").read_all(),
                    sorted(e.name for e in d.readdir() if e.name not in (".", "..")),
                )
            )
        assert results[0] == results[1]

    def test_externalized_layer_is_nfs_backed(self):
        layer = externalize(ufs_factory(), Network(), name="x")
        assert isinstance(layer, NfsClientLayer)

    def test_reuses_hosts_on_repeat_externalization(self):
        net = Network()
        externalize(ufs_factory(), net, name="same")
        externalize(ufs_factory(), net, name="same")  # must not raise

    def test_ficus_physical_layer_runs_at_user_level(self):
        """The actual Section-5 use case: develop the *Ficus* layers
        outside the kernel."""
        from repro.physical import EntryType, FicusPhysicalLayer
        from repro.util import VolumeId, VolumeReplicaId

        def phys_factory():
            phys = FicusPhysicalLayer(ufs_factory(), "dev-host")
            phys.create_volume_replica(VolumeReplicaId(VolumeId(1, 1), 1))
            return phys

        layer = build_switchable(phys_factory, user_level=True, name="phys")
        volroot = layer.root().lookup(VolumeReplicaId(VolumeId(1, 1), 1).to_hex())
        f = volroot.lookup_fh(volroot.insert("devfile", EntryType.FILE).fh)
        f.write(0, b"developed at user level")
        assert volroot.lookup("devfile").read_all() == b"developed at user level"


class TestCrossingPenalty:
    def test_user_level_costs_more(self):
        """'The performance penalty for crossing address space boundaries
        complicates performance measurements' — there must BE a penalty."""
        penalty = measure_crossing_penalty(ufs_factory, ops=300)
        assert penalty.user_seconds_per_op > penalty.kernel_seconds_per_op
        assert penalty.factor > 1.0

    def test_penalty_is_bounded(self):
        """...but the methodology is usable: within a couple orders of
        magnitude, not a cliff."""
        penalty = measure_crossing_penalty(ufs_factory, ops=300)
        assert penalty.factor < 1000
