"""Tests for the extension layers (monitor, auth, crypt) and their
composition — the paper's 'slipped in as a transparent layer' claim
exercised with layers that actually do something."""

import inspect

import pytest

from repro.errors import FileNotFound, PermissionDenied
from repro.layers import AccessPolicy, AuthLayer, CryptLayer, Keystream, MonitorLayer
from repro.storage import BlockDevice
from repro.ufs import Ufs, fsck
from repro.vnode import Credential, FileSystemLayer, OpContext, PassthroughVnode, UfsLayer, Vnode


@pytest.fixture
def ufs_layer():
    return UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256))


class TestMonitorLayer:
    def test_operations_profiled(self, ufs_layer):
        mon = MonitorLayer(ufs_layer)
        root = mon.root()
        f = root.create("f")
        f.write(0, b"0123456789")
        f.read(0, 10)
        root.lookup("f")
        assert mon.profile["create"].calls == 1
        assert mon.profile["write"].bytes_in == 10
        assert mon.profile["read"].bytes_out == 10
        assert mon.profile["lookup"].calls == 1
        assert mon.profile["read"].mean_seconds > 0

    def test_errors_counted(self, ufs_layer):
        mon = MonitorLayer(ufs_layer)
        with pytest.raises(FileNotFound):
            mon.root().lookup("missing")
        assert mon.profile["lookup"].errors == 1

    def test_behaviour_unchanged(self, ufs_layer):
        mon = MonitorLayer(ufs_layer)
        root = mon.root()
        d = root.mkdir("d")
        d.create("f").write(0, b"through the monitor")
        assert root.walk("d/f").read_all() == b"through the monitor"
        assert fsck(ufs_layer.fs).clean

    def test_report_and_reset(self, ufs_layer):
        mon = MonitorLayer(ufs_layer)
        mon.root().create("f")
        text = mon.report()
        assert "create" in text and "calls" in text
        mon.reset()
        assert not mon.profile

    def test_every_forwarded_op_is_profiled(self):
        """Each operation the pass-through layer forwards lands in the
        profile exactly once, so no operation can cross unprofiled."""
        forwarded = [op for op in Vnode.OPERATIONS if op in vars(PassthroughVnode)]
        stub = AnswerEveryOp()
        mon = MonitorLayer(StubLayer(stub))
        root = mon.root()
        for op in forwarded:
            required = [
                p
                for p in inspect.signature(getattr(Vnode, op)).parameters.values()
                if p.name != "self" and p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
            ]
            getattr(root, op)(*[None] * len(required))
        assert stub.received == forwarded
        assert {op: prof.calls for op, prof in mon.profile.items()} == dict.fromkeys(forwarded, 1)


#: what the stub answers where the result is not None
_STUB_ANSWERS = {"read": b"", "write": 0, "readlink": ""}


def _stub_answer(op):
    def answer(self, *args, **kwargs):
        self.received.append(op)
        return _STUB_ANSWERS.get(op)

    return answer


class AnswerEveryOp(Vnode):
    """A lower vnode answering every vnode operation, noting each arrival."""

    def __init__(self):
        self.received = []


for _op in Vnode.OPERATIONS:
    setattr(AnswerEveryOp, _op, _stub_answer(_op))


class StubLayer(FileSystemLayer):
    def __init__(self, root):
        self._root = root

    def root(self):
        return self._root


class TestAuthLayer:
    def test_denied_uid_blocked_everywhere(self, ufs_layer):
        auth = AuthLayer(ufs_layer, AccessPolicy(allowed_uids={100}))
        root = auth.root()
        intruder = OpContext(cred=Credential(uid=200))
        with pytest.raises(PermissionDenied):
            root.lookup("anything", intruder)
        with pytest.raises(PermissionDenied):
            root.create("f", ctx=intruder)
        assert auth.denials == 2

    def test_allowed_uid_passes(self, ufs_layer):
        auth = AuthLayer(ufs_layer, AccessPolicy(allowed_uids={100}))
        root = auth.root()
        member = OpContext(cred=Credential(uid=100))
        f = root.create("f", ctx=member)
        f.write(0, b"ok", ctx=member)
        assert root.lookup("f", member).read(0, 2, member) == b"ok"

    def test_read_only_uid(self, ufs_layer):
        auth = AuthLayer(ufs_layer, AccessPolicy(read_only_uids={50}))
        root = auth.root()
        root.create("f").write(0, b"public")
        reader = OpContext(cred=Credential(uid=50))
        assert root.lookup("f", reader).read(0, 6, reader) == b"public"
        with pytest.raises(PermissionDenied):
            root.create("nope", ctx=reader)
        with pytest.raises(PermissionDenied):
            root.lookup("f", reader).write(0, b"x", reader)

    def test_root_bypass_configurable(self, ufs_layer):
        strict = AuthLayer(ufs_layer, AccessPolicy(allowed_uids={1}, root_bypasses=False))
        with pytest.raises(PermissionDenied):
            strict.root().create("f")  # default cred is uid 0

    def test_rename_and_link_gated(self, ufs_layer):
        auth = AuthLayer(ufs_layer, AccessPolicy(read_only_uids={50}))
        root = auth.root()
        f = root.create("f")
        reader = OpContext(cred=Credential(uid=50))
        with pytest.raises(PermissionDenied):
            root.rename("f", root, "g", reader)
        with pytest.raises(PermissionDenied):
            root.link(f, "alias", reader)

    def test_ficus_mutations_gated_handle_lookups_are_reads(self, ufs_layer):
        """insert, remove_entry and set_policy are operations, so the layer
        can tell them from the lookups beside them (as a lookup *name*,
        setpolicy walked straight through a read-only uid's check)."""
        from repro.physical import EntryType, FicusPhysicalLayer
        from repro.util import VolumeId, VolumeReplicaId

        phys = FicusPhysicalLayer(ufs_layer, "hostX")
        vr = VolumeReplicaId(VolumeId(1, 1), 1)
        store = phys.create_volume_replica(vr)
        auth = AuthLayer(phys, AccessPolicy(read_only_uids={7}))
        root = auth.root().lookup(vr.to_hex())
        entry = root.insert("f", EntryType.FILE)
        reader = OpContext(cred=Credential(uid=7))
        assert root.lookup_fh(entry.fh, reader).read(0, 8, reader) == b""
        assert root.lookup_dir(store.root_handle(), reader).readdir(reader)[0].name == "f"
        with pytest.raises(PermissionDenied):
            root.insert("g", EntryType.FILE, ctx=reader)
        with pytest.raises(PermissionDenied):
            root.remove_entry(entry.eid, ctx=reader)
        with pytest.raises(PermissionDenied):
            root.set_policy(entry.fh, "lww", reader)
        assert auth.denials == 3
        assert [(e.name, e.live) for e in store.read_entries(store.root_handle())] == [("f", True)]
        assert store.read_file_aux(store.root_handle(), entry.fh).merge_policy == ""


class TestKeystream:
    def test_apply_is_involution(self):
        ks = Keystream(b"secret")
        data = bytes(range(256)) * 3
        assert ks.apply(7, 100, ks.apply(7, 100, data)) == data

    def test_position_dependence(self):
        ks = Keystream(b"secret")
        assert ks.apply(7, 0, b"same") != ks.apply(7, 1000, b"same")

    def test_file_dependence(self):
        ks = Keystream(b"secret")
        assert ks.apply(7, 0, b"same") != ks.apply(8, 0, b"same")

    def test_key_dependence(self):
        assert Keystream(b"a").apply(7, 0, b"same") != Keystream(b"b").apply(7, 0, b"same")

    def test_splice_consistency(self):
        """Encrypting in two chunks equals encrypting in one."""
        ks = Keystream(b"k")
        data = b"x" * 100
        whole = ks.apply(3, 40, data)
        parts = ks.apply(3, 40, data[:37]) + ks.apply(3, 77, data[37:])
        assert whole == parts


class TestCryptLayer:
    def test_round_trip(self, ufs_layer):
        crypt = CryptLayer(ufs_layer, key=b"hunter2")
        root = crypt.root()
        f = root.create("secret.txt")
        f.write(0, b"the plans for the fortress")
        assert root.lookup("secret.txt").read(0, 100) == b"the plans for the fortress"

    def test_lower_layer_sees_only_ciphertext(self, ufs_layer):
        crypt = CryptLayer(ufs_layer, key=b"hunter2")
        crypt.root().create("f").write(0, b"plaintext-plaintext")
        raw = ufs_layer.root().lookup("f").read_all()
        assert raw != b"plaintext-plaintext"
        assert len(raw) == len(b"plaintext-plaintext")

    def test_random_access_read_write(self, ufs_layer):
        crypt = CryptLayer(ufs_layer, key=b"k")
        f = crypt.root().create("f")
        f.write(0, b"a" * 1000)
        f.write(500, b"MIDDLE")
        assert f.read(498, 10) == b"aaMIDDLEaa"

    def test_wrong_key_reads_garbage(self, ufs_layer):
        CryptLayer(ufs_layer, key=b"right").root().create("f").write(0, b"sensitive")
        wrong = CryptLayer(ufs_layer, key=b"wrong")
        assert wrong.root().lookup("f").read(0, 9) != b"sensitive"


class TestComposition:
    def test_full_tower(self, ufs_layer):
        """auth over monitor over crypt over UFS: every layer does its job
        simultaneously, none knows about the others."""
        crypt = CryptLayer(ufs_layer, key=b"k")
        mon = MonitorLayer(crypt)
        auth = AuthLayer(mon, AccessPolicy(read_only_uids={9}))
        root = auth.root()
        root.create("f").write(0, b"layered")
        # plaintext visible at the top
        assert root.lookup("f").read(0, 7) == b"layered"
        # ciphertext at the bottom
        assert ufs_layer.root().lookup("f").read_all() != b"layered"
        # the monitor saw the traffic
        assert mon.profile["write"].calls == 1
        # the policy still bites
        with pytest.raises(PermissionDenied):
            root.lookup("f").write(0, b"x", OpContext(cred=Credential(uid=9)))

    def test_crypt_under_ficus_stack(self):
        """Encryption below the physical layer: replica storage on disk is
        ciphertext while the logical layer serves plaintext — layers
        'can ... even surround other layers' (Section 7)."""
        from repro.physical import FicusPhysicalLayer
        from repro.util import VolumeId, VolumeReplicaId
        from repro.physical import EntryType

        base = UfsLayer(Ufs.mkfs(BlockDevice(8192), num_inodes=256))
        crypt = CryptLayer(base, key=b"disk-key")
        phys = FicusPhysicalLayer(crypt, "hostX")
        vr = VolumeReplicaId(VolumeId(1, 1), 1)
        phys.create_volume_replica(vr)
        root = phys.root().lookup(vr.to_hex())
        root.lookup_fh(root.insert("doc", EntryType.FILE).fh).write(0, b"top secret")
        # through the stack: plaintext
        assert root.lookup("doc").read(0, 10) == b"top secret"
        # on the raw UFS: ciphertext (find the biggest regular file's bytes)
        raw_hits = []
        fs = base.fs
        for ino in range(1, fs.sb.num_inodes + 1):
            inode = fs._get_inode_raw(ino)
            if inode.is_regular and inode.size == 10:
                raw_hits.append(fs.read_file(ino))
        assert raw_hits and all(b"top secret" != data for data in raw_hits)
