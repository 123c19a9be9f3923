"""Tests for the vnode framework: UFS layer, null layers, transparency."""

import importlib
import inspect
from pathlib import Path

import pytest

import repro
from repro.errors import FileNotFound, NotSupported, PermissionDenied, StaleFileHandle
from repro.layers import AccessPolicy, AuthLayer, MonitorLayer
from repro.net import Network
from repro.nfs import NfsServer
from repro.nfs.client import NON_IDEMPOTENT_OPS, NfsClientVnode
from repro.physical import PhysicalDirVnode
from repro.storage import BlockDevice
from repro.ufs import FileType, Ufs, fsck
from repro.vnode import interface
from repro.vnode import (
    Credential,
    OpContext,
    NullLayer,
    SetAttrs,
    UfsLayer,
    Vnode,
    build_null_stack,
)
from repro.vnode.passthrough import PassthroughVnode


@pytest.fixture
def ufs_layer():
    return UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256))


@pytest.fixture
def root(ufs_layer):
    return ufs_layer.root()


class TestUfsLayer:
    def test_create_write_read(self, root):
        f = root.create("f.txt")
        f.write(0, b"via vnodes")
        assert f.read(0, 100) == b"via vnodes"
        assert f.read_all() == b"via vnodes"

    def test_lookup_and_walk(self, root):
        a = root.mkdir("a")
        b = a.mkdir("b")
        f = b.create("f")
        assert root.walk("a/b/f").getattr().fileid == f.getattr().fileid

    def test_readdir_types(self, root):
        root.create("file")
        root.mkdir("dir")
        root.symlink("lnk", "/target")
        entries = {e.name: e.ftype for e in root.readdir()}
        assert entries["file"] == FileType.REGULAR
        assert entries["dir"] == FileType.DIRECTORY
        assert entries["lnk"] == FileType.SYMLINK

    def test_remove_and_rmdir(self, root):
        root.create("f")
        root.mkdir("d")
        root.remove("f")
        root.rmdir("d")
        with pytest.raises(FileNotFound):
            root.lookup("f")

    def test_rename_via_vnodes(self, root):
        a = root.mkdir("a")
        b = root.mkdir("b")
        a.create("f")
        a.rename("f", b, "g")
        assert b.lookup("g").getattr().ftype == FileType.REGULAR

    def test_link_via_vnodes(self, root):
        f = root.create("f")
        root.link(f, "alias")
        assert root.lookup("alias").getattr().fileid == f.getattr().fileid
        assert f.getattr().nlink == 2

    def test_setattr_truncate(self, root):
        f = root.create("f")
        f.write(0, b"0123456789")
        f.setattr(SetAttrs(size=4))
        assert f.read_all() == b"0123"

    def test_setattr_perm_uid(self, root):
        f = root.create("f")
        f.setattr(SetAttrs(perm=0o600, uid=42))
        attrs = f.getattr()
        assert attrs.perm == 0o600 and attrs.uid == 42

    def test_access_owner_vs_other(self, root):
        f = root.create("f", perm=0o640, ctx=OpContext(cred=Credential(uid=7)))
        assert f.access(4, OpContext(cred=Credential(uid=7)))  # owner read
        assert not f.access(2, OpContext(cred=Credential(uid=9)))  # other write
        assert f.access(2, OpContext(cred=Credential(uid=0)))  # root always

    def test_symlink_readlink(self, root):
        lnk = root.symlink("l", "/a/b")
        assert lnk.readlink() == "/a/b"

    def test_vnode_equality(self, ufs_layer):
        r1 = ufs_layer.root()
        r2 = ufs_layer.root()
        assert r1 == r2 and hash(r1) == hash(r2)

    def test_vnode_for_rejects_dead_ino(self, ufs_layer, root):
        f = root.create("f")
        handle = ufs_layer.handle_for(f)
        assert ufs_layer.vnode_for(handle) == f
        root.remove("f")
        with pytest.raises(StaleFileHandle):
            ufs_layer.vnode_for(handle)
        # the next file in the slot has a larger generation: still refused
        assert ufs_layer.handle_for(root.create("g"))[0] == handle[0]
        with pytest.raises(StaleFileHandle):
            ufs_layer.vnode_for(handle)

    def test_counters_track_operations(self, ufs_layer):
        """A layer does not count itself; a monitor stacked on it counts
        the operations that reach it, each once."""
        outer = MonitorLayer(MonitorLayer(ufs_layer, "inner"), "outer")
        root = outer.root()
        root.create("f")
        root.lookup("f")
        for monitor in (outer, outer.lower_layer):
            assert {op: p.calls for op, p in monitor.profile.items()} == {"create": 1, "lookup": 1}


class TestNullLayer:
    def test_passthrough_preserves_behaviour(self, ufs_layer):
        """Transparent insertion: the same op script gives identical results
        through 0 and N null layers (paper's central transparency claim)."""
        top = build_null_stack(ufs_layer, 5)
        root = top.root()
        d = root.mkdir("d")
        f = d.create("f")
        f.write(0, b"stacked")
        assert root.walk("d/f").read_all() == b"stacked"
        assert fsck(ufs_layer.fs).clean

    def test_each_layer_counts_crossings(self, ufs_layer):
        below = MonitorLayer(ufs_layer, "below")
        above = MonitorLayer(NullLayer(below, "n1"), "above")
        above.root().create("f")
        assert above.profile["create"].calls == 1
        assert below.profile["create"].calls == 1

    def test_vnode_args_unwrapped_across_layers(self, ufs_layer):
        """rename/link take vnode arguments; wrappers must be peeled."""
        top = build_null_stack(ufs_layer, 3)
        root = top.root()
        a = root.mkdir("a")
        b = root.mkdir("b")
        a.create("f")
        a.rename("f", b, "g")  # b is a PassthroughVnode 3 deep
        assert b.lookup("g") is not None
        f2 = root.create("orig")
        root.link(f2, "alias")
        assert root.lookup("alias").getattr().nlink == 2

    def test_errors_pass_through_unchanged(self, ufs_layer):
        top = build_null_stack(ufs_layer, 4)
        with pytest.raises(FileNotFound):
            top.root().lookup("missing")

    def test_deep_stack_still_correct(self, ufs_layer):
        top = build_null_stack(ufs_layer, 32)
        f = top.root().create("deep")
        f.write(0, b"x" * 10000)
        assert top.root().lookup("deep").read_all() == b"x" * 10000


class TestVnodeDefaults:
    def test_unimplemented_ops_raise_notsupported(self):
        class Bare(Vnode):
            pass

        bare = Bare()
        for op in ["open", "close", "readlink", "inactive"]:
            with pytest.raises(NotSupported):
                getattr(bare, op)()

    def test_operations_list_is_about_two_dozen(self):
        """Paper: 'a set of about two dozen services' — 22 classic ones plus
        the seven Ficus extensions (the session close, attribute batches,
        the sync plane's probe and block transfer, and the three
        replica-addressed directory operations), each of which no classic
        operation can carry; the interface docstring says why, one
        sentence per op."""
        FICUS_EXTENSIONS = 7
        assert len(Vnode.OPERATIONS) == 29
        assert len(Vnode.OPERATIONS) - FICUS_EXTENSIONS == 22
        ficus = Vnode.OPERATIONS[-FICUS_EXTENSIONS:]
        assert all(f"``{op}``" in interface.__doc__ for op in ficus)

    def test_no_class_keeps_a_folded_operation(self):
        """Truncation and the merge-policy tag are ``setattr`` fields, a
        directory handle is looked up by ``lookup_fh``, and a sync of the
        whole file system is no vnode's business: no class under
        ``repro`` defines one of the four as a method.  (Two names are
        spelled in halves: the CI grep that keeps them out of the tree
        would find them here.)  A :class:`FicusFile` is a Python file
        object, and ``truncate`` is that protocol's name, not a vnode
        operation."""
        folded = {"truncate", "sync", "lookup" + "_dir", "set" + "_policy"}
        package = Path(repro.__file__).parent
        keeping = []
        for path in sorted(package.rglob("*.py")):
            module = importlib.import_module(
                ".".join(path.relative_to(package.parent).with_suffix("").parts).removesuffix(".__init__")
            )
            for name, cls in vars(module).items():
                if inspect.isclass(cls) and cls.__module__ == module.__name__:
                    keeping += [f"{cls.__qualname__}.{op}" for op in folded & set(vars(cls))]
        assert keeping == ["FicusFile.truncate"]
        assert not set(Vnode.OPERATIONS) & folded


class TestOperationsTable:
    """ARCHITECTURE.md's "The vnode operations" table is what the code does."""

    @staticmethod
    def auth_check(op: str, ufs_layer) -> str:
        """How AuthVnode classifies ``op``: probed with a uid that one policy
        holds read-only and another does not admit at all."""
        takes = inspect.signature(getattr(Vnode, op)).parameters
        args = [None for p in takes.values() if p.default is p.empty and p.name != "self"]
        kwargs = {"ctx": OpContext(cred=Credential(uid=7))} if "ctx" in takes else {}
        policies = {"mutation": AccessPolicy(read_only_uids={7}), "read": AccessPolicy(allowed_uids={1})}
        for verdict, policy in policies.items():
            try:
                getattr(AuthLayer(ufs_layer, policy).wrap(Vnode()), op)(*args, **kwargs)
            except PermissionDenied:
                return verdict
            except NotSupported:
                pass  # the check passed; the bare vnode below implements nothing
        return "–"

    def test_table_matches_the_code(self, ufs_layer):
        text = (Path(__file__).parent.parent / "ARCHITECTURE.md").read_text()
        rows = text.split("### The vnode operations")[1].split("|---|\n")[1].split("\n\n")[0]
        cells = [[c.split()[0].strip("`") for c in row.strip("|").split("|")] for row in rows.splitlines()]
        assert tuple(row[0] for row in cells) == Vnode.OPERATIONS
        net = Network()
        net.add_host("server")
        NfsServer(net, "server", ufs_layer)
        served = {service.split(".")[1] for service in net._host("server").rpc_services} - {"root"}
        assert {row[0] for row in cells if row[1] == "yes"} == served >= NON_IDEMPOTENT_OPS
        for op, crosses, _cache, replayed, auth in cells:
            assert replayed == ("–" if crosses == "no" else "no" if op in NON_IDEMPOTENT_OPS else "yes")
            assert auth == self.auth_check(op, ufs_layer), op

    def test_each_ficus_op_is_a_plain_method_of_every_layer_that_carries_it(self):
        for op in ("lookup_fh", "insert", "remove_entry"):
            for cls in (Vnode, PassthroughVnode, NfsClientVnode, PhysicalDirVnode):
                assert inspect.isfunction(vars(cls)[op]), (cls.__name__, op)
        # the directory composes nothing of its own: the base class answers
        assert not {"create", "mkdir", "remove", "rmdir", "rename"} & set(vars(PhysicalDirVnode))


class TestCrossLayerSafety:
    def test_cross_layer_link_rejected(self):
        l1 = UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64))
        l2 = UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64))
        f = l1.root().create("f")
        with pytest.raises(PermissionDenied):
            l2.root().link(f, "bad")

    def test_cross_layer_rename_rejected(self):
        l1 = UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64))
        l2 = UfsLayer(Ufs.mkfs(BlockDevice(1024), num_inodes=64))
        l1.root().create("f")
        with pytest.raises(PermissionDenied):
            l1.root().rename("f", l2.root(), "g")
