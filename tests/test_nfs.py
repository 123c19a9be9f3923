"""Tests for the NFS transport layer: statelessness, dropped ops, caching."""

import pytest

from repro.errors import FileNotFound, NameTooLong, RpcTimeout, StaleFileHandle
from repro.layers import MonitorLayer
from repro.net import Network
from repro.nfs import NfsClientConfig, NfsClientLayer, NfsServer
from repro.physical import EntryType, FicusPhysicalLayer
from repro.sim import DaemonConfig, FicusSystem
from repro.storage import BlockDevice
from repro.telemetry import TraceContext
from repro.ufs import MAX_NAME_LEN, FileType, Ufs
from repro.util import VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer
from repro.vnode.context import ROOT_CTX, Credential, OpContext
from repro.vnode.passthrough import NullLayer, PassthroughVnode


@pytest.fixture
def world():
    """A server host exporting a UFS, and a client host mounting it."""
    net = Network()
    net.add_host("server")
    net.add_host("client")
    ufs_layer = UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256, clock=net.clock))
    server = NfsServer(net, "server", ufs_layer)
    client = NfsClientLayer(net, "client", "server")
    return net, ufs_layer, server, client


class TestRemoteOperations:
    def test_create_write_read_remote(self, world):
        _, _, _, client = world
        root = client.root()
        f = root.create("remote.txt")
        f.write(0, b"over the wire")
        assert root.lookup("remote.txt").read_all() == b"over the wire"

    def test_mkdir_and_walk(self, world):
        _, _, _, client = world
        root = client.root()
        root.mkdir("a").mkdir("b")
        f = root.walk("a/b").create("f")
        f.write(0, b"deep")
        assert client.root().walk("a/b/f").read_all() == b"deep"

    def test_remove_and_rmdir(self, world):
        _, _, _, client = world
        root = client.root()
        root.create("f")
        root.remove("f")
        client.flush_caches()
        with pytest.raises(FileNotFound):
            client.root().lookup("f")

    def test_rename_remote(self, world):
        _, _, _, client = world
        root = client.root()
        a = root.mkdir("a")
        b = root.mkdir("b")
        a.create("f").write(0, b"moved")
        a.rename("f", b, "g")
        assert client.root().walk("b/g").read_all() == b"moved"

    def test_link_remote(self, world):
        _, _, _, client = world
        root = client.root()
        f = root.create("f")
        root.link(f, "alias")
        assert root.lookup("alias").getattr().nlink == 2

    def test_symlink_readlink_remote(self, world):
        _, _, _, client = world
        root = client.root()
        root.symlink("l", "/t")
        assert root.lookup("l").readlink() == "/t"

    def test_readdir_remote(self, world):
        _, _, _, client = world
        root = client.root()
        root.create("f")
        root.mkdir("d")
        entries = {e.name: e.ftype for e in root.readdir()}
        assert entries["f"] == FileType.REGULAR
        assert entries["d"] == FileType.DIRECTORY

    def test_truncate_remote(self, world):
        _, _, _, client = world
        f = client.root().create("f")
        f.write(0, b"0123456789")
        f.truncate(3)
        assert f.read_all() == b"012"

    def test_changes_visible_to_local_layer(self, world):
        """The client writes through to the very same UFS."""
        _, ufs_layer, _, client = world
        client.root().create("shared").write(0, b"one fs")
        assert ufs_layer.root().lookup("shared").read_all() == b"one fs"


class TestDroppedOpenClose:
    def test_open_close_never_reach_server(self):
        """Paper Section 2.2: 'a layer intending to receive an open will
        never get it if NFS is in between.'"""
        net = Network()
        net.add_host("server")
        net.add_host("client")
        monitor = MonitorLayer(UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256, clock=net.clock)))
        NfsServer(net, "server", monitor)
        f = NfsClientLayer(net, "client", "server").root().create("f")
        # the monitor sees open/close when they do arrive
        local = monitor.root().lookup("f")
        local.open()
        local.close()
        assert (monitor.profile["open"].calls, monitor.profile["close"].calls) == (1, 1)
        rpcs = net.stats.rpcs_sent
        f.open()
        f.close()
        assert (monitor.profile["open"].calls, monitor.profile["close"].calls) == (1, 1)
        assert net.stats.rpcs_sent == rpcs


class TestStatelessness:
    def test_handles_survive_server_reboot(self, world):
        _, _, server, client = world
        f = client.root().create("f")
        f.write(0, b"before reboot")
        server.reboot()
        assert f.read(0, 100) == b"before reboot"

    def test_stale_handle_after_delete_and_reuse(self, world):
        """A handle to a deleted file must fail ESTALE even if the fileid
        is recycled for a new file (generation check)."""
        _, ufs_layer, server, client = world
        root = client.root()
        f = root.create("victim")
        root.remove("victim")
        server.reboot()
        client.flush_caches()
        # recycle the same ino for a fresh file
        root.create("newcomer")
        with pytest.raises(StaleFileHandle):
            f.read(0, 1)

    def test_write_retry_is_idempotent(self, world):
        """Stateless ops can be retransmitted without harm."""
        _, _, _, client = world
        f = client.root().create("f")
        f.write(0, b"same bytes")
        f.write(0, b"same bytes")  # retransmission
        assert f.read_all() == b"same bytes"


class TestPartitionBehaviour:
    def test_unreachable_server_times_out(self, world):
        net, _, _, client = world
        f = client.root().create("f")
        net.partition([{"client"}, {"server"}])
        with pytest.raises(RpcTimeout):
            f.read(0, 1)

    def test_recovers_after_heal(self, world):
        net, _, _, client = world
        f = client.root().create("f")
        f.write(0, b"z")
        net.partition([{"client"}, {"server"}])
        with pytest.raises(RpcTimeout):
            f.read(0, 1)
        net.heal()
        assert f.read(0, 1) == b"z"


    def test_only_the_transport_class_itself_is_retransmitted(self, world):
        """A same-named application error is not the transport's verdict."""
        net, _, _, client = world
        calls = []

        class HostUnreachable(Exception):
            pass

        def handler(*args, **kwargs):
            calls.append(args)
            raise HostUnreachable("raised by the exported layer, after it ran")

        net.register_rpc("server", "nfs.probe", handler)
        with pytest.raises(HostUnreachable):
            client.call("probe")
        assert len(calls) == 1


class TestClientCaching:
    def test_attr_cache_serves_stale_within_ttl(self, world):
        """The paper's complaint: NFS caching 'results in unexpected
        behavior for layers which are not able to adopt the assumptions
        inherent in the NFS cache management policies'."""
        net, ufs_layer, _, client = world
        f = client.root().create("f")
        f.write(0, b"v1")
        size_before = f.getattr().size
        # mutate behind the client's back via the local layer
        ufs_layer.root().lookup("f").write(0, b"v1-and-more")
        assert f.getattr().size == size_before  # still cached (stale!)
        net.clock.advance(10.0)  # past the TTL
        assert f.getattr().size == len(b"v1-and-more")

    def test_name_cache_hit_avoids_rpc(self, world):
        net, _, _, client = world
        root = client.root()
        root.create("f")
        root.lookup("f")
        sent_before = net.stats.rpcs_sent
        root.lookup("f")  # cached
        assert net.stats.rpcs_sent == sent_before

    def test_caches_disabled_by_zero_ttl(self):
        net = Network()
        net.add_host("s")
        net.add_host("c")
        layer = UfsLayer(Ufs.mkfs(BlockDevice(2048), num_inodes=64, clock=net.clock))
        NfsServer(net, "s", layer)
        client = NfsClientLayer(
            net, "c", "s", config=NfsClientConfig(attr_cache_ttl=0, name_cache_ttl=0)
        )
        root = client.root()
        root.create("f")
        root.lookup("f")
        sent_before = net.stats.rpcs_sent
        root.lookup("f")
        assert net.stats.rpcs_sent == sent_before + 1  # every lookup is an RPC


VR = VolumeReplicaId(VolumeId(1, 1), 1)


def ficus_root(hop: bool):
    """The root directory of a fresh one-replica physical layer: the local
    vnode, or the same vnode reached through an NFS client."""
    net = Network()
    net.add_host("server")
    net.add_host("client")
    phys = FicusPhysicalLayer(
        UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256, clock=net.clock)), "server"
    )
    phys.create_volume_replica(VR)
    NfsServer(net, "server", phys)
    layer = NfsClientLayer(net, "client", "server") if hop else phys
    return net, layer.root().lookup(VR.to_hex())


def drive_ficus_ops(root, name: str):
    """One pass over the Ficus vnode operations; what the caller sees."""
    d = root.insert("d", EntryType.DIRECTORY)
    with pytest.raises(FileNotFound):
        root.lookup(f"@@dir|{d.fh.to_hex()}")  # a name is never a command
    sub = root.lookup_dir(d.fh)
    try:
        entry = sub.insert(name, EntryType.FILE, merge_policy="lww")
    except NameTooLong:
        return "name too long"
    sub.session_open(entry.fh)
    sub.session_open(entry.fh)  # replayed: a session is open or not
    sub.lookup_fh(entry.fh).write(0, name.encode())
    seen = [entry, sub.session_close(entry.fh), sub.session_close(entry.fh)]
    seen.append(sub.lookup(name).read_all())
    sub.set_policy(entry.fh, "append-log")
    aux = sub.getattrs_batch([entry.fh]).child(entry.fh)
    seen += [aux.merge_policy, aux.vv, [row.name for row in sub.readdir()]]
    seen += [sub.getattrs_batch(), root.sync_probe(), root.sync_probe(d.fh)]
    seen += [sub.block_digests(entry.fh), sub.read_blocks(entry.fh, [0, 1]), sub.readdir()]
    sub.remove_entry(entry.eid)
    sub.remove_entry(entry.eid)  # idempotent on the entry id
    for lookup in (lambda: sub.lookup(name), lambda: sub.lookup_fh(entry.fh)):
        with pytest.raises(FileNotFound):
            lookup()
    return seen + [sub.readdir()]


class ContextRecorder(NullLayer):
    """A layer under the NFS server that records the context of each read."""

    def __init__(self, lower):
        super().__init__(lower, name="recorder")
        self.seen = []

    def wrap(self, lower):
        return RecordingVnode(self, lower)


class RecordingVnode(PassthroughVnode):
    def read(self, offset, length, ctx=ROOT_CTX):
        self.layer.seen.append(ctx)
        return super().read(offset, length, ctx)


class TestFicusOpsOverNfs:
    """Every Ficus vnode operation is one the hop carries: its arguments and
    reply cross as the values they are, whatever they spell."""

    @pytest.mark.parametrize(
        "name",
        ["with space", "eq=uals", "pi|pe", "back\\slash", "@@dir|deadbeef", "n" * 255, "n" * 256],
        ids=lambda name: name if len(name) < 255 else f"{len(name)} chars",
    )
    def test_identical_local_and_through_the_hop(self, name):
        local = drive_ficus_ops(ficus_root(hop=False)[1], name)
        assert drive_ficus_ops(ficus_root(hop=True)[1], name) == local
        if len(name) > MAX_NAME_LEN:
            assert local == "name too long"
        else:
            entry, closed, replayed, contents, policy, vv, names, *replies, after = local
            assert (entry.name, contents, names, after) == (name, name.encode(), [name], [])
            assert (closed, replayed) == (True, False)
            assert policy == "append-log" and vv.total_updates == 2  # the session, the policy
            batch, probe, sub_probe, digests, blocks, rows = replies
            assert batch.child(entry.fh).vv == vv and list(probe.children.values()) == [sub_probe.digest]
            assert digests.vv == vv and blocks == {0: name.encode()}
            assert [(row.name, row.ftype) for row in rows] == [(name, FileType.REGULAR)]

    def test_the_operation_context_reaches_the_exported_layer_equal(self):
        net = Network()
        net.add_host("server")
        net.add_host("client")
        recorder = ContextRecorder(UfsLayer(Ufs.mkfs(BlockDevice(4096), num_inodes=256, clock=net.clock)))
        NfsServer(net, "server", recorder)
        f = NfsClientLayer(net, "client", "server").root().create("f")
        f.write(0, b"x")
        ctx = OpContext(
            cred=Credential(uid=7, gids=(3, 5)),
            trace=TraceContext(trace_id=11, span_id=13),
            replica_hint="b",
            no_cache=True,
        )
        assert f.read(0, 1, ctx) == b"x"
        assert recorder.seen == [ctx]

    @pytest.mark.parametrize("hop", [False, True], ids=["local", "through the hop"])
    def test_a_received_batch_is_the_receivers_own(self, hop):
        """A layer replies only with objects it does not keep: changing a
        received batch changes nothing the replica answers next."""
        _, root = ficus_root(hop)
        entry = root.insert("f", EntryType.FILE)
        first = root.getattrs_batch()
        child = first.child(entry.fh)
        child.vv = child.vv.bump(9)
        child.refs = 99
        first.dir_aux.refs = 42
        again = root.getattrs_batch()
        assert (again.child(entry.fh).vv.total_updates, again.child(entry.fh).refs) == (0, 1)
        assert again.dir_aux.refs == 1

    def test_a_retransmitted_session_open_leaves_no_session_open(self):
        """From a diskless client, a lost reply to ``session_open`` is
        retransmitted: the replayed open is a no-op, so the close ends the
        session and every later write still advances the version vector."""
        quiet = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
        system = FicusSystem(["server", "client"], root_volume_hosts=["server"], daemon_config=quiet)
        fs = system.host("client").fs()
        fs.write_file("/f", b"v1")
        real, lost = system.network.rpc, []

        def rpc(src, dst, service, *args, **kwargs):
            if service.endswith(".session_open") and not lost:
                lost.append(service)
                system.network.faults.schedule_rpc(src, dst, ["reply_lost"])
            return real(src, dst, service, *args, **kwargs)

        system.network.rpc = rpc
        fs.write_file("/f", b"v2")
        system.network.rpc = real
        fs.write_file("/f", b"v3")
        assert lost and system.network.faults.injected == {"reply_lost": 1}
        physical = system.host("server").physical
        store = physical.store_for(system.root_locations[0].volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        assert store.read_file_aux(store.root_handle(), fh).vv.total_updates == 3
        assert not physical.has_open_session(store, fh)

    def test_handle_lookups_ride_the_name_cache(self):
        net, root = ficus_root(hop=True)
        d, f = root.insert("d", EntryType.DIRECTORY), root.insert("f", EntryType.FILE)
        sub, child = root.lookup_dir(d.fh), root.lookup_fh(f.fh)
        sent = net.stats.rpcs_sent
        assert root.lookup_dir(d.fh) == sub and root.lookup_fh(f.fh) == child
        assert net.stats.rpcs_sent == sent  # warm, inside the TTL
        root.layer.note_stale(child.handle)
        assert root.lookup_fh(f.fh) == child and root.lookup_dir(d.fh) == sub
        assert net.stats.rpcs_sent == sent + 1  # only the stale one re-resolved
        net.clock.advance(10.0)
        root.lookup_dir(d.fh)
        assert net.stats.rpcs_sent == sent + 2  # past the TTL

    def test_every_set_merge_policy_reaches_the_server(self):
        """A mutation is never answered from the name cache: the third call
        repeats the first inside the TTL and must still arrive (it was a
        lookup of a cached name once, and the server stayed at "lww")."""
        quiet = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
        system = FicusSystem(["server", "client"], root_volume_hosts=["server"], daemon_config=quiet)
        fs = system.host("client").fs()
        fs.write_file("/f", b"x")
        store = system.host("server").physical.store_for(system.root_locations[0].volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        before = store.read_file_aux(store.root_handle(), fh).vv.total_updates
        for tag in ("append-log", "lww", "append-log"):
            fs.set_merge_policy("/f", tag)
        aux = store.read_file_aux(store.root_handle(), fh)
        assert (aux.merge_policy, aux.vv.total_updates) == ("append-log", before + 3)
        real, sent = system.network.rpc, []
        system.network.rpc = lambda s, d, op, *a, **k: sent.append(op) or real(s, d, op, *a, **k)
        fs.set_merge_policy("/f", "lww")
        fs.set_merge_policy("/f", "lww")
        assert sum(op.endswith(".set_policy") for op in sent) == 2
