"""The logical layer's version-vector cache: correctness under failures.

The batched attribute plane lets a host answer replica selection from a
per-host cache of :class:`~repro.physical.wire.AttrBatch` records.  A
cache of version vectors is only safe if it can never make selection
pick a *dominated* replica once the host has been told better:

* update notifications invalidate the cached batches of every replica of
  the updated directory (coherence when the datagram arrives);
* a TTL bounds the staleness window when the datagram is LOST (the
  paper's best-effort notification semantics, Section 3.2);
* a partitioned replica's cached batch is never served while the replica
  is unreachable — availability comes from the remaining replicas, not
  from a ghost of the missing one.

The decoded name view of a directory replica rides the same entry and
obeys the same three rules (``TestNameViews``); the one thing it adds is
that a *missing* name is re-read from the selected replica before it is
reported, because reconciliation installs names without notifying.
"""

import pytest

from repro.errors import InvalidArgument
from repro.logical.attr_cache import DEFAULT_TTL, VersionVectorCache
from repro.logical.fabric import Fabric
from repro.net import LinkFaults
from repro.physical import AuxAttributes, EntryType, decode_directory, effective_entries
from repro.physical.vnodes import PhysicalDirVnode
from repro.physical.wire import AttrBatch
from repro.recon import reconcile_subtree
from repro.sim import DaemonConfig, FicusSystem
from repro.sim.daemons import announce_sync_install
from repro.util import FicusFileHandle, FileId, VirtualClock, VolumeId, VolumeReplicaId
from repro.vnode.interface import ROOT_CTX, read_whole
from repro.vv import VersionVector

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

VOL = VolumeId(1, 1)
FH = FicusFileHandle(VOL, FileId(1, 7))


def batch(vv: VersionVector) -> AttrBatch:
    return AttrBatch(dir_aux=AuxAttributes(fh=FH, etype=EntryType.DIRECTORY, vv=vv), children={})


class TestCacheUnit:
    """VersionVectorCache in isolation, on a hand-cranked clock."""

    def setup_method(self):
        self.clock = VirtualClock()
        self.cache = VersionVectorCache(self.clock, ttl=10.0)
        self.vr1 = VolumeReplicaId(VOL, 1)
        self.vr2 = VolumeReplicaId(VOL, 2)

    def test_store_then_hit(self):
        self.cache.store(self.vr1, FH, "vnode", batch(VersionVector({1: 1})))
        entry = self.cache.lookup(self.vr1, FH)
        assert entry is not None and entry.batch is not None
        assert self.cache.stats.hits == 1

    def test_ttl_expires_batch_but_keeps_vnode(self):
        self.cache.store(self.vr1, FH, "vnode", batch(VersionVector({1: 1})))
        self.clock.advance(11.0)
        entry = self.cache.lookup(self.vr1, FH)
        assert entry is not None and entry.batch is None
        assert entry.dir_vnode == "vnode"  # resolution survives expiry
        assert self.cache.stats.expirations == 1

    def test_invalidate_dir_drops_every_replicas_batch(self):
        self.cache.store(self.vr1, FH, "v1", batch(VersionVector({1: 1})))
        self.cache.store(self.vr2, FH, "v2", batch(VersionVector({2: 1})))
        dropped = self.cache.invalidate_dir(VOL, FH)
        assert dropped == 2
        for vr in (self.vr1, self.vr2):
            entry = self.cache.lookup(vr, FH)
            assert entry is not None and entry.batch is None
        assert self.cache.stats.invalidations == 2

    def test_invalidate_removes_entry_entirely(self):
        self.cache.store(self.vr1, FH, "v1", batch(VersionVector({1: 1})))
        self.cache.invalidate(self.vr1, FH)
        assert self.cache.lookup(self.vr1, FH) is None
        assert len(self.cache) == 0

    def test_name_view_dies_with_the_batch_child_vnodes_with_the_handle(self):
        kept, gone = FicusFileHandle(VOL, FileId(1, 8)), FicusFileHandle(VOL, FileId(1, 9))
        listing = batch(VersionVector({1: 1}))
        listing.children[kept] = AuxAttributes(fh=kept, etype=EntryType.FILE)

        def warm():
            entry = self.cache.store(self.vr1, FH, "vnode", listing)
            entry.names = {"kept": object()}
            entry.children.update({kept: "kept-vnode", gone: "gone-vnode"})
            return entry

        entry = warm()
        self.cache.invalidate_dir(VOL, FH)
        assert entry.names is None and len(entry.children) == 2
        entry = warm()
        self.clock.advance(11.0)
        assert self.cache.lookup(self.vr1, FH) is entry
        assert entry.names is None and len(entry.children) == 2
        # a refetched batch starts a new view and prunes to what it lists
        assert warm() is entry
        assert self.cache.store(self.vr1, FH, "vnode", listing) is entry
        assert entry.names is None and entry.children == {kept: "kept-vnode"}
        self.cache.invalidate(self.vr1, FH)
        assert self.cache.lookup(self.vr1, FH) is None

    def test_a_selection_is_served_only_under_its_stamp_and_ttl(self):
        stamp = (0, 0, ("alpha", "beta"))
        self.cache.store(self.vr1, FH, "v1", batch(VersionVector({1: 1})))
        self.clock.advance(4.0)
        self.cache.store(self.vr2, FH, "v2", batch(VersionVector({2: 1})))
        entries = [self.cache.lookup(vr, FH) for vr in (self.vr1, self.vr2)]
        assert self.cache.winner(VOL, FH, None, stamp) is None
        self.cache.remember(VOL, FH, None, stamp, entries, "winner")
        hits = self.cache.stats.hits
        assert self.cache.winner(VOL, FH, None, stamp) == "winner"
        assert self.cache.stats.hits == hits + 2  # one per batch it was chosen from
        assert self.cache.winner(VOL, FH, FH, stamp) is None  # a file's is its own
        assert self.cache.winner(VOL, FH, None, (1, 0, stamp[2])) is None
        assert self.cache.winner(VOL, FH, None, (0, 1, stamp[2])) is None
        assert self.cache.winner(VOL, FH, None, (0, 0, ("alpha",))) is None
        # the TTL runs from the oldest batch, as its lookup's does
        self.clock.advance(6.0)
        assert self.cache.winner(VOL, FH, None, stamp) == "winner"
        self.clock.advance(0.5)
        assert self.cache.winner(VOL, FH, None, stamp) is None
        assert self.cache.stats.hits == hits + 4

    def test_a_selection_dies_with_any_batch_of_its_directory(self):
        stamp = (0, 0, ())

        def remembered() -> bool:
            return bool(self.cache._record(VOL, FH).winners)

        def warm():
            self.cache.store(self.vr1, FH, "v1", batch(VersionVector({1: 1})))
            self.cache.store(self.vr2, FH, "v2", batch(VersionVector({2: 1})))
            entries = [self.cache.lookup(vr, FH) for vr in (self.vr1, self.vr2)]
            self.cache.remember(VOL, FH, None, stamp, entries, "winner")
            self.cache.remember(VOL, FH, FH, stamp, entries, "file winner")
            assert remembered()

        for drop in (
            lambda: self.cache.store(self.vr2, FH, "v2", batch(VersionVector({2: 2}))),
            lambda: self.cache.invalidate(self.vr1, FH),
            lambda: self.cache.invalidate_dir(VOL, FH),
            lambda: (self.clock.advance(11.0), self.cache.lookup(self.vr1, FH)),
        ):
            warm()
            drop()
            assert not remembered()
        warm()
        self.cache.clear()
        assert self.cache._record(VOL, FH) is None


    def test_a_correction_is_decided_by_the_directory_record(self):
        """One rule corrects a held batch: the file's record replaces its
        child, a directory record equal to the held one keeps the held
        ``dir_aux``, name view and child vnodes and drops only the file's
        selection, a changed one drops every selection and prunes the
        vnodes of files the batch no longer lists.  Nothing held, nothing
        changes."""
        stamp = (0, 0, ())
        sibling, gone = FicusFileHandle(VOL, FileId(1, 8)), FicusFileHandle(VOL, FileId(1, 9))
        held = batch(VersionVector({1: 1}))
        held.children.update({fh: AuxAttributes(fh=fh, etype=EntryType.FILE) for fh in (sibling, gone)})
        entry = self.cache.store(self.vr1, FH, "vnode", held)
        entry.names = {"sibling": object()}
        entry.children.update({sibling: "sibling-vnode", gone: "gone-vnode"})
        self.clock.advance(1.0)

        def remember_all():
            for key in (None, sibling, gone):
                self.cache.remember(VOL, FH, key, stamp, [entry], key)

        remember_all()
        names, fetched_at = entry.names, entry.fetched_at
        bumped = AuxAttributes(fh=sibling, etype=EntryType.FILE, vv=VersionVector({1: 1}))
        self.cache.correct(self.vr1, FH, sibling, bumped, held.dir_aux._replace())
        assert entry.batch.child(sibling) is bumped and entry.batch.dir_aux is held.dir_aux
        assert entry.names is names and entry.fetched_at == fetched_at
        assert set(self.cache._record(VOL, FH).winners) == {None, gone}
        assert len(entry.children) == 2
        remember_all()
        entry.names = None  # no view held: none is decoded
        namespace = held.dir_aux._replace(vv=VersionVector({1: 2}))
        self.cache.correct(self.vr1, FH, gone, None, namespace)
        assert entry.batch.dir_aux is namespace and entry.batch.child(gone) is None
        assert entry.children == {sibling: "sibling-vnode"} and entry.fetched_at == fetched_at
        assert not self.cache._record(VOL, FH).winners
        self.clock.advance(10.0)  # past the TTL: nothing is held
        self.cache.correct(self.vr1, FH, sibling, None, held.dir_aux)
        assert entry.batch.child(sibling) is bumped and entry.batch.dir_aux is namespace


def two_host_world():
    """alpha holds replica 1, beta replica 2, of one converged volume."""
    system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
    fs_a = system.host("alpha").fs()
    fs_b = system.host("beta").fs()
    fs_a.write_file("/f", b"v1")
    system.reconcile_everything()
    return system, fs_a, fs_b


class TestNotificationCoherence:
    def test_heal_plus_notification_defeats_stale_cache(self):
        """A host that missed updates during a partition must serve the
        new version as soon as a post-heal notification arrives — never
        the dominated replica its cache still remembers.

        The selection tie-break prefers the lowest replica id, so with a
        stale cache (both replicas apparently EQUAL) alpha would pick its
        own dominated copy.  The datagram invalidation is what saves it.
        """
        system, fs_a, fs_b = two_host_world()
        # warm alpha's cache with beta's (currently equal) batch
        assert fs_a.read_file("/f") == b"v1"

        system.partition([{"alpha"}, {"beta"}])
        fs_b.write_file("/f", b"v2 during partition")  # datagram lost
        assert system.network.stats.datagrams_lost > 0

        system.heal()
        fs_b.write_file("/f", b"v3 after heal")  # datagram delivered
        cache = system.host("alpha").logical.attr_cache
        assert cache.stats.invalidations > 0
        assert fs_a.read_file("/f") == b"v3 after heal"

    def test_local_write_through_keeps_own_replica_fresh(self):
        """Updating locally refreshes the updater's cached batch without
        an RPC: the very next selection sees the new version vector."""
        system, fs_a, fs_b = two_host_world()
        assert fs_a.read_file("/f") == b"v1"
        refreshes_before = system.host("alpha").logical.attr_cache.stats.refreshes
        fs_a.write_file("/f", b"v2")
        cache = system.host("alpha").logical.attr_cache
        assert cache.stats.refreshes > refreshes_before
        assert fs_a.read_file("/f") == b"v2"

    def test_write_through_rereads_only_what_the_update_changed(self):
        """After each local update alpha's batch of its own replica is what
        a full fetch would return, yet it was never fully refetched: its
        ``fetched_at`` does not move, so siblings age as they were.  A file
        update keeps the name view; a namespace update decodes it again, to
        what a fresh read of the replica gives."""
        system, fs_a, fs_b = two_host_world()
        alpha = system.host("alpha")
        cache, root_fh = alpha.logical.attr_cache, alpha.logical.root().fh
        here = next(loc for loc in system.root_locations if loc.host == "alpha")
        local_dir = alpha.fabric.dir_by_handle("alpha", here.volrep, root_fh)
        assert fs_a.listdir("/") == ["f"]  # warm: alpha selects its own replica
        entry = cache.lookup(here.volrep, root_fh)
        fetched_at, names = entry.fetched_at, entry.names
        assert names is not None
        system.run_for(1.0)  # a full refetch would stamp a later time

        def written_through() -> bool:
            return entry.batch == local_dir.getattrs_batch() and entry.fetched_at == fetched_at

        def names_written_through() -> bool:
            fresh = effective_entries(decode_directory(read_whole(local_dir)))
            return entry.names is not names and entry.names == fresh

        fs_a.write_file("/f", b"v2")
        assert written_through() and entry.names is names
        fs_a.write_file("/new", b"created")
        assert written_through() and names_written_through()
        assert fs_a.listdir("/") == ["f", "new"] and entry.names is not None
        fs_a.unlink("/new")
        assert written_through() and names_written_through()
        assert fs_a.listdir("/") == ["f"]

    def test_an_update_outside_a_session_merges_as_a_close_does(self):
        """A local file update outside any session re-reads the file's
        record and merges it as a session's close merges the record it is
        answered: alpha's batch equals a fresh fetch, yet the directory's
        record, the name view and ``fetched_at`` are the ones it held."""
        system, fs_a, fs_b = two_host_world()
        alpha = system.host("alpha")
        cache, root_fh = alpha.logical.attr_cache, alpha.logical.root().fh
        here = next(loc for loc in system.root_locations if loc.host == "alpha")
        local_dir = alpha.fabric.dir_by_handle("alpha", here.volrep, root_fh)
        assert fs_a.listdir("/") == ["f"]  # warm: alpha selects its own replica
        entry = cache.lookup(here.volrep, root_fh)
        held, names, fetched_at = entry.batch, entry.names, entry.fetched_at
        system.run_for(1.0)  # a full refetch would stamp a later time
        vnode = fs_a.resolve("/f")
        vnode.write(0, b"outside")  # nothing opened it, so no session
        assert entry.batch == local_dir.getattrs_batch() and entry.batch.dir_aux is held.dir_aux
        assert entry.batch.child(vnode.fh).vv != held.child(vnode.fh).vv
        assert entry.names is names and entry.fetched_at == fetched_at
        assert fs_a.read_file("/f") == b"outside"

    def test_a_heard_notification_refreshes_stat_as_well_as_read(self):
        """beta reads alpha's copy over NFS (the lowest replica id wins the
        tie).  The notification of alpha's next write must also drop the
        NFS client's attributes of that copy, or ``stat`` reports the old
        size until their TTL while ``read_file`` returns the new bytes."""
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        fs_a, fs_b = system.host("alpha").fs(), system.host("beta").fs()
        fs_a.write_file("/f", b"1234")
        system.reconcile_everything()
        assert fs_b.stat("/f").size == 4
        fs_a.write_file("/f", b"12345678")  # beta hears the notification
        assert fs_b.stat("/f").size == 8
        assert fs_b.read_file("/f") == b"12345678"

    def test_a_heard_sync_notification_refreshes_stat_as_well_as_read(self):
        """y stats x's copy over NFS (the lowest replica id wins the tie)
        while z, cut off, writes.  x's reconciliation then pulls z's version
        and announces the install, naming the directory: y must drop the
        NFS client's attributes of the files it holds through x's replica,
        or ``stat`` reports the old size while ``read_file`` returns the
        new bytes."""
        system = FicusSystem(["x", "y", "z"], daemon_config=QUIET)
        fs_x, fs_y, fs_z = (system.host(h).fs() for h in ("x", "y", "z"))
        fs_x.write_file("/f", b"1234")
        system.reconcile_everything()
        system.partition([{"x", "y"}, {"z"}])
        fs_z.write_file("/f", b"12345678")
        assert fs_y.stat("/f").size == 4
        system.heal()
        x = system.host("x")
        here = next(loc for loc in system.root_locations if loc.host == "x")
        there = next(loc for loc in system.root_locations if loc.host == "z")
        x.recon_daemon.reconcile_with(here.volrep, there)
        assert fs_y.stat("/f").size == 8
        assert fs_y.read_file("/f") == b"12345678"


class TestTheWriterDropsOnlyWhatItChanged:
    """An update applies to one replica (paper Section 2.5): the updating
    host keeps its batches of every other replica, except those whose host
    the notification could not reach.  A sync install still drops them all."""

    @staticmethod
    def warm_world():
        """Three converged replicas; alpha holds all three root batches."""
        system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
        fs = system.host("alpha").fs()
        fs.write_file("/f", b"v1")
        system.reconcile_everything()
        assert fs.listdir("/") == ["f"] and fs.stat("/f").size == 2
        logical = system.host("alpha").logical
        record = logical.attr_cache._record(logical.root_volume, logical.root().fh)
        replicas = {loc.host: record.replicas[loc.volrep] for loc in system.root_locations}
        return system, fs, replicas

    def test_a_local_update_keeps_every_other_replicas_batch(self):
        system, fs, replicas = self.warm_world()
        others = {host: replicas[host].batch for host in ("beta", "gamma")}
        for update, names in (
            (lambda: fs.write_file("/f", b"v2"), ["f"]),
            (lambda: fs.write_file("/g", b"created"), ["f", "g"]),
            (lambda: fs.unlink("/g"), ["f"]),
        ):
            update()
            assert all(replicas[host].batch is held for host, held in others.items())
            before = system.network.stats.rpcs_sent
            assert fs.stat("/f").size == 2 and fs.listdir("/") == names
            assert system.network.stats.rpcs_sent == before

    def test_a_local_update_reads_through_the_held_directory(self, monkeypatch):
        """The writer re-reads its local replica's records through the
        directory vnode its batch came through: no update asks the fabric
        to resolve the directory again."""
        system, fs, replicas = self.warm_world()
        resolved = []
        real = Fabric.dir_by_handle
        monkeypatch.setattr(
            Fabric, "dir_by_handle", lambda self, *a: (resolved.append(a), real(self, *a))[1]
        )
        fs.write_file("/f", b"v2")
        fs.resolve("/f").write(0, b"v3")  # outside a session
        fs.write_file("/g", b"created")
        fs.unlink("/g")
        assert resolved == []
        assert replicas["alpha"].batch is not None

    def test_a_sync_install_fetches_no_batch(self, monkeypatch):
        """A sync install drops the installer's own replica's batch with the
        others and reads none back, locally or remotely: the next selection
        fetches what it needs."""
        system, fs, replicas = self.warm_world()
        alpha = system.host("alpha")
        here = next(loc for loc in system.root_locations if loc.host == "alpha")
        asked = []
        real = PhysicalDirVnode.getattrs_batch
        monkeypatch.setattr(
            PhysicalDirVnode,
            "getattrs_batch",
            lambda self, *a, **k: (asked.append(self.layer), real(self, *a, **k))[1],
        )
        before = system.network.stats.rpcs_sent
        announce_sync_install(alpha.logical, here.volrep, alpha.logical.root().fh)
        assert asked == [] and system.network.stats.rpcs_sent == before
        assert all(entry.batch is None for entry in replicas.values())

    def test_a_write_cut_off_from_a_replica_drops_its_batch(self):
        system, fs, replicas = self.warm_world()
        beta_batch = replicas["beta"].batch
        system.partition([{"alpha", "beta"}, {"gamma"}])
        fs.write_file("/f", b"v2 while gamma is away")
        assert replicas["gamma"].batch is None and replicas["beta"].batch is beta_batch
        system.heal()  # no reconciliation: gamma's replica is as it was
        logical = system.host("alpha").logical
        before = system.network.stats.rpcs_sent
        logical.select_dir_replica(logical.root_volume, logical.root().fh)
        assert system.network.stats.rpcs_sent - before == 1  # gamma's batch, refetched
        assert replicas["gamma"].batch is not None and replicas["beta"].batch is beta_batch

    def test_a_sync_install_drops_every_replicas_batch(self):
        """alpha still holds beta's pre-partition batch when its
        reconciliation pulls beta's newer ``/f``: the install it announces
        drops that batch with every other."""
        system, fs_a, fs_b = two_host_world()
        assert fs_a.listdir("/") == ["f"]
        alpha = system.host("alpha")
        record = alpha.logical.attr_cache._record(alpha.logical.root_volume, alpha.logical.root().fh)
        beta_entry = next(
            record.replicas[loc.volrep] for loc in system.root_locations if loc.host == "beta"
        )
        system.partition([{"alpha"}, {"beta"}])
        fs_b.write_file("/f", b"v2 unseen")  # datagram lost
        system.heal()
        assert beta_entry.batch is not None  # the pre-partition one, still held
        alpha.recon_daemon.tick()
        assert beta_entry.batch is None
        assert fs_a.read_file("/f") == b"v2 unseen"

    def test_a_sync_install_refreshes_stat_as_well_as_read(self):
        """beta stats alpha's copy over NFS (the lowest replica id wins the
        tie), so its NFS client holds that copy's attributes.  alpha's next
        write goes unheard, and beta's reconciliation pulls it as a block
        delta, which fetches no attributes.  The install beta announces
        must drop those it holds, or ``stat`` reports the size cached
        before the partition while ``read_file`` returns the new bytes."""
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        fs_a, fs_b = system.host("alpha").fs(), system.host("beta").fs()
        old = bytes(range(256)) * 40  # 10 KiB: three delta blocks
        fs_a.write_file("/f", old)
        system.reconcile_everything()
        assert fs_b.stat("/f").size == len(old)
        system.partition([{"alpha"}, {"beta"}])
        fs_a.write_file("/f", old + b"tail")  # datagram lost
        system.heal()
        system.host("beta").recon_daemon.tick()
        assert fs_b.stat("/f").size == len(old) + 4
        assert fs_b.read_file("/f") == old + b"tail"


class TestTheWriterKeepsWhatItWrote:
    """An update session's close answers the file's record, and the writer
    merges it into its batch of the replica it wrote, local or remote; the
    write's reply carries the file's attributes, so ``write_file`` trims
    only a file that the write left longer than the new contents."""

    @staticmethod
    def client_world():
        """A diskless client ``cl`` over three converged replicas, warm."""
        hosts = ["alpha", "beta", "gamma"]
        system = FicusSystem(hosts + ["cl"], root_volume_hosts=hosts, daemon_config=QUIET)
        system.host("alpha").fs().write_file("/f", b"v1")
        system.host("alpha").fs().write_file("/g", b"sibling")
        system.reconcile_everything()
        client = system.host("cl").fs()
        assert client.read_file("/f") == b"v1" and client.listdir("/") == ["f", "g"]
        return system, client

    def test_a_remote_overwrite_keeps_the_acting_replicas_batch(self):
        """The acting replica's batch stays held and equals what a fresh
        ``getattrs_batch`` of that replica answers (the file's new vector,
        the directory's record, nothing ``writing``), with its name view
        and ``fetched_at``; every other replica's batch is the very same
        object.  The next read of the file is its one ``read``."""
        system, client = self.client_world()
        logical = system.host("cl").logical
        root_fh = logical.root().fh
        record = logical.attr_cache._record(logical.root_volume, root_fh)
        held = {volrep: (e.batch, e.names, e.fetched_at) for volrep, e in record.replicas.items()}
        assert len(held) == 3 and all(batch is not None for batch, _, _ in held.values())
        system.run_for(1.0)  # a refetch would stamp a later time
        client.write_file("/f", b"v2")
        acting = [volrep for volrep, e in record.replicas.items() if e.batch is not held[volrep][0]]
        assert len(acting) == 1
        entry = record.replicas[acting[0]]
        host = next(loc.host for loc in system.root_locations if loc.volrep == acting[0])
        fresh = system.host(host).fabric.dir_by_handle(host, acting[0], root_fh).getattrs_batch()
        fh = client.resolve("/f").fh
        assert entry.batch == fresh and not entry.batch.writing
        assert entry.batch.child(fh).vv != held[acting[0]][0].child(fh).vv
        assert entry.names is held[acting[0]][1] and entry.fetched_at == held[acting[0]][2]
        before = system.network.stats.rpcs_sent
        assert client.read_file("/f") == b"v2" and client.listdir("/") == ["f", "g"]
        assert system.network.stats.rpcs_sent - before == 1

    def test_a_remote_overwrite_keeps_the_other_selections(self, monkeypatch):
        """The record a session's close merges changes one file's vector
        only: the directory's own selection and a sibling's stay
        remembered, and the next of each compares no vectors."""
        system, client = self.client_world()
        logical = system.host("cl").logical
        root_fh = logical.root().fh
        sibling = client.resolve("/g")
        client.read_file("/g")
        compares = []
        real = VersionVector.compare
        monkeypatch.setattr(
            VersionVector, "compare", lambda self, other: (compares.append(1), real(self, other))[1]
        )
        client.write_file("/f", b"v2")
        winners = logical.attr_cache._record(logical.root_volume, root_fh).winners
        assert None in winners and sibling.fh in winners
        assert client.resolve("/f").fh not in winners
        compares.clear()
        logical.select_dir_replica(logical.root_volume, root_fh)
        logical.select_read_replica(sibling.volume, sibling.parent_fh, sibling.fh)
        assert compares == []

    @pytest.mark.parametrize("writer", ["alpha", "cl"], ids=["local", "over-nfs"])
    def test_only_a_shorter_overwrite_trims(self, writer, monkeypatch):
        """A shorter overwrite still sends its size ``setattr`` and reads
        back exact, here and at every replica after reconciliation; a
        same-size or longer one sends none."""
        from repro.physical.vnodes import PhysicalFileVnode

        system, _ = self.client_world()
        fs = system.host(writer).fs()
        trims = []
        real = PhysicalFileVnode.setattr
        monkeypatch.setattr(
            PhysicalFileVnode,
            "setattr",
            lambda self, attrs, *a, **k: (trims.append(attrs.size), real(self, attrs, *a, **k))[1],
        )
        for data, sent in (
            (b"v2", []),
            (b"longer than before", []),
            (b"longer than before", []),
            (b"short", [5]),
            (b"", [0]),
        ):
            trims.clear()
            fs.write_file("/f", data)
            assert trims == sent
            assert fs.read_file("/f") == data and fs.stat("/f").size == len(data)
        system.reconcile_everything()
        for host in ("alpha", "beta", "gamma", "cl"):
            assert system.host(host).fs().read_file("/f") == b""


class TestSelectionMemo:
    """Replica selection compares vectors once per set of candidate batches,
    and the remembered winner obeys the batches' staleness rules."""

    @staticmethod
    def beta_ahead():
        """Three converged replicas, then beta, cut off, updates ``/f`` and
        creates ``/g`` in its own replica: after the heal beta's copies of
        both the file and the root dominate."""
        system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
        system.host("alpha").fs().write_file("/f", b"v1")
        system.reconcile_everything()
        system.partition([{"alpha", "gamma"}, {"beta"}])
        fs_b = system.host("beta").fs()
        fs_b.write_file("/f", b"v2 at beta")
        fs_b.write_file("/g", b"made at beta")
        system.heal()
        return system, system.host("gamma")

    def test_a_partitioned_winner_is_never_served(self):
        system, gamma = self.beta_ahead()
        logical = gamma.logical
        node = gamma.fs().resolve("/f")
        selections = {
            "file": lambda: logical.select_read_replica(node.volume, node.parent_fh, node.fh),
            "dir": lambda: logical.select_dir_replica(node.volume, node.parent_fh),
        }
        for select in selections.values():
            first = select()
            assert first.location.host == "beta"
            assert select() is first  # remembered, not compared again
        system.partition([{"alpha", "gamma"}, {"beta"}])
        for select in selections.values():
            assert select().location.host != "beta"
        system.heal()
        for select in selections.values():
            assert select().location.host == "beta"

    def test_a_remembered_winner_goes_with_the_directorys_batches(self):
        system, gamma = self.beta_ahead()
        logical = gamma.logical
        root_fh = logical.root().fh
        first = logical.select_dir_replica(logical.root_volume, root_fh)
        assert logical.attr_cache._record(logical.root_volume, root_fh).winners
        logical.attr_cache.invalidate_dir(logical.root_volume, root_fh)
        assert not logical.attr_cache._record(logical.root_volume, root_fh).winners
        again = logical.select_dir_replica(logical.root_volume, root_fh)
        assert again is not first and again.location == first.location

    def test_a_lone_candidate_is_not_remembered(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        fs = system.host("solo").fs()
        fs.write_file("/f", b"x")
        logical = system.host("solo").logical
        root_fh = logical.root().fh
        node = fs.resolve("/f")
        for _ in range(2):
            logical.select_dir_replica(logical.root_volume, root_fh)
            logical.select_read_replica(node.volume, node.parent_fh, node.fh)
        assert not logical.attr_cache._record(logical.root_volume, root_fh).winners


def _file_selection(host, path="/f"):
    logical, node = host.logical, host.fs().resolve(path)
    return lambda ctx=ROOT_CTX: logical.select_read_replica(node.volume, node.parent_fh, node.fh, ctx)


def _stale_at_gamma():
    """Three converged replicas whose batches gamma holds; then beta, cut
    off with every datagram lost, updates ``/f`` in its own replica and
    the network heals.  gamma's batch of beta is stale, so its selection
    of ``/f`` keeps picking another replica until it refetches."""
    system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
    system.host("alpha").fs().write_file("/f", b"v1")
    system.reconcile_everything()
    gamma = system.host("gamma")
    gamma.fs().read_file("/f")
    system.network.faults.set_default(LinkFaults(drop=1.0))
    system.partition([{"alpha", "gamma"}, {"beta"}])
    system.host("beta").fs().write_file("/f", b"v2 at beta")
    system.heal()
    return system, gamma, _file_selection(gamma)


def _beta_ahead(*prepare):
    system, gamma = TestSelectionMemo.beta_ahead()
    select = _file_selection(gamma)
    for step in prepare:
        step(system)
    return system, gamma, select


def _cut_off_beta(system):
    system.partition([{"alpha", "gamma"}, {"beta"}])


def _crash_beta(system):
    system.host("beta").crash()


def _beta_degraded(system):
    system.host("gamma").health_plane.peer_health.record_failure("beta")


def _case_partition():
    system, gamma, select = _beta_ahead()
    return system, gamma, select, lambda: _cut_off_beta(system)


def _case_heal():
    system, gamma, select = _beta_ahead(_cut_off_beta)
    return system, gamma, select, system.heal


def _case_crash():
    system, gamma, select = _beta_ahead()
    return system, gamma, select, lambda: _crash_beta(system)


def _case_restart():
    system, gamma, select = _beta_ahead(_crash_beta)
    return system, gamma, select, lambda: system.host("beta").restart(system)


def _case_degraded():
    system, gamma, select = _beta_ahead()
    return system, gamma, select, lambda: _beta_degraded(system)


def _case_recovered():
    system, gamma, select = _beta_ahead(_beta_degraded)
    return system, gamma, select, lambda: gamma.health_plane.peer_health.record_success("beta")


def _case_ttl():
    system, gamma, select = _stale_at_gamma()
    return system, gamma, select, lambda: system.clock.advance(DEFAULT_TTL + 1)


def _case_no_cache():
    system, gamma, select = _stale_at_gamma()
    return system, gamma, select, lambda: None


def _case_learn():
    """gamma knows the root volume's replicas at alpha and beta; delta's
    replica, cut off and updated, is one gamma has not learnt of."""
    system = FicusSystem(
        ["alpha", "beta", "gamma", "delta"], root_volume_hosts=["alpha", "beta"], daemon_config=QUIET
    )
    system.host("alpha").fs().write_file("/f", b"v1")
    system.reconcile_everything()
    added = system.add_volume_replica(system.root_volume, system.root_locations, "delta")
    system.partition([{"alpha", "beta", "gamma"}, {"delta"}])
    system.host("delta").fs().write_file("/f", b"v2 at delta")
    system.heal()
    gamma = system.host("gamma")
    return system, gamma, _file_selection(gamma), lambda: gamma.graft_table.learn(system.root_volume, [added])


def _case_unstored():
    """``/d`` is made at alpha and reconciled to gamma only: beta answers
    ``FileNotFound``.  Then beta, every datagram lost, takes ``/d`` by
    reconciliation and adds a name to it, so its replica dominates."""
    system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
    alpha, beta, gamma = (system.host(name) for name in ("alpha", "beta", "gamma"))
    _cut_off_beta(system)
    alpha.fs().mkdir("/d")
    system.heal()
    by_host = {loc.host: loc for loc in system.root_locations}
    gamma.recon_daemon.reconcile_with(by_host["gamma"].volrep, by_host["alpha"])
    logical, node = gamma.logical, gamma.fs().resolve("/d")

    def event():
        system.network.faults.set_default(LinkFaults(drop=1.0))
        beta.recon_daemon.reconcile_with(by_host["beta"].volrep, by_host["alpha"])
        beta.fs().write_file("/d/y", b"made at beta")

    return system, gamma, lambda ctx=ROOT_CTX: logical.select_dir_replica(node.volume, node.fh, ctx), event


#: case -> (its builder, returning (system, observer, select, event); the
#: selection's context after the event; the host of the winner after it;
#: whether the observer serves a remembered winner before it)
MEMO_CASES = {
    "partition": (_case_partition, ROOT_CTX, "alpha", True),
    "heal": (_case_heal, ROOT_CTX, "beta", True),
    "crash": (_case_crash, ROOT_CTX, "alpha", True),
    "restart": (_case_restart, ROOT_CTX, "beta", True),
    "degraded": (_case_degraded, ROOT_CTX, "alpha", True),
    # no winner is remembered while beta is deferred, so this case holds by
    # the every-candidate-answered check alone
    "recovered": (_case_recovered, ROOT_CTX, "beta", False),
    "ttl": (_case_ttl, ROOT_CTX, "beta", True),
    "learn": (_case_learn, ROOT_CTX, "delta", True),
    "unstored": (_case_unstored, ROOT_CTX, "beta", False),
    "no_cache": (_case_no_cache, ROOT_CTX.with_no_cache(), "beta", True),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_a_remembered_winner_is_the_winner_of_a_fresh_selection(case):
    """For each input of the memo's stamp (reachability, peer health, the
    known replicas), for the TTL and the every-candidate-answered checks
    beside it, and for ``no_cache``: an event that changes the right
    winner without touching a held batch, after which the winner served
    is the one a selection with every memo dropped picks."""
    build, ctx, host_after, remembered = MEMO_CASES[case]
    system, observer, select, event = build()
    logical = observer.logical
    before = select()
    assert select() is before or not remembered
    assert any(record.winners for record in logical.attr_cache._dirs.values()) or not remembered
    event()
    served = select(ctx)
    for record in logical.attr_cache._dirs.values():
        record.winners.clear()
    fresh = select(ctx)
    assert served.location == fresh.location
    assert served.location.host == host_after != before.location.host


class TestLostDatagramTtl:
    def test_ttl_bounds_staleness_when_notification_is_lost(self):
        """The partition eats the notification; after heal the stale
        batch may answer for at most the TTL, then selection refetches
        and finds the dominating remote version."""
        system, fs_a, fs_b = two_host_world()
        assert fs_a.read_file("/f") == b"v1"  # alpha caches beta's batch

        system.partition([{"alpha"}, {"beta"}])
        fs_b.write_file("/f", b"v2 unseen")  # notification lost for good
        system.heal()
        # no further writes: nothing will ever invalidate alpha's cache
        system.run_for(DEFAULT_TTL + 1.0)

        cache = system.host("alpha").logical.attr_cache
        expirations_before = cache.stats.expirations
        assert fs_a.read_file("/f") == b"v2 unseen"
        assert cache.stats.expirations > expirations_before


class TestPartitionReachability:
    def test_cached_batch_of_unreachable_replica_is_not_served(self):
        """During the partition the missing replica simply vanishes from
        the candidate set — its cached batch must not ghost-vote."""
        system, fs_a, fs_b = two_host_world()
        assert fs_a.read_file("/f") == b"v1"  # cache both replicas
        logical = system.host("alpha").logical
        root_fh = logical.root().fh

        system.partition([{"alpha"}, {"beta"}])
        views = [view for view, _ in logical.replica_batches(logical.root_volume, root_fh)]
        assert [v.location.host for v in views] == ["alpha"]
        # reads stay available from the local replica
        assert fs_a.read_file("/f") == b"v1"

    def test_warm_read_path_issues_no_rpcs(self):
        """The acceptance criterion for the attribute plane: a fully
        warm read on the replica-holding host touches the network zero
        times."""
        system, fs_a, fs_b = two_host_world()
        fs_a.read_file("/f")  # warm every batch
        before = system.network.stats.rpcs_sent
        hits_before = system.host("alpha").logical.attr_cache.stats.hits
        assert fs_a.read_file("/f") == b"v1"
        assert system.network.stats.rpcs_sent == before
        assert system.host("alpha").logical.attr_cache.stats.hits > hits_before


class TestNameViews:
    """Staleness of cached names: the batch rules, plus the negative re-read."""

    @staticmethod
    def beta_selected_world():
        """alpha's selection prefers beta's root directory (it dominates:
        ``/g`` exists only there), and alpha holds its view warm."""
        system, fs_a, fs_b = two_host_world()
        fs_b.write_file("/g", b"made at beta")  # notification delivered
        assert fs_a.listdir("/") == ["f", "g"]
        before = system.network.stats.rpcs_sent
        assert fs_a.listdir("/") == ["f", "g"] and fs_a.exists("/g")
        assert system.network.stats.rpcs_sent == before  # warm: no directory read
        return system, fs_a, fs_b

    def test_cached_view_of_unreachable_replica_is_not_served(self):
        system, fs_a, fs_b = self.beta_selected_world()
        system.partition([{"alpha"}, {"beta"}])
        # alpha's own replica never heard of /g, and beta's view must not ghost
        assert fs_a.listdir("/") == ["f"]
        assert not fs_a.exists("/g")

    def lose_a_remove_and_a_create(self):
        system, fs_a, fs_b = self.beta_selected_world()
        system.partition([{"alpha"}, {"beta"}])
        fs_b.unlink("/g")
        fs_b.write_file("/h", b"also unseen")  # both datagrams lost
        system.heal()
        return system, fs_a, fs_b

    def test_ttl_bounds_a_stale_name_when_the_notification_is_lost(self):
        system, fs_a, fs_b = self.lose_a_remove_and_a_create()
        assert fs_a.listdir("/") == ["f", "g"]  # nothing told alpha: stale
        system.run_for(DEFAULT_TTL + 1.0)
        assert fs_a.listdir("/") == ["f", "h"]
        assert not fs_a.exists("/g")

    def test_heal_plus_notification_defeats_stale_view(self):
        system, fs_a, fs_b = self.lose_a_remove_and_a_create()
        fs_b.write_file("/f", b"v2")  # delivered, names the root directory
        assert fs_a.listdir("/") == ["f", "h"]
        assert not fs_a.exists("/g")

    def test_missing_name_is_reread_before_it_is_reported(self):
        """Reconciliation installs ``/g`` in alpha's replica without a
        notification; alpha's warm view lacks it, and the lookup must find
        it now, not after the TTL."""
        system, fs_a, fs_b = two_host_world()
        assert fs_a.listdir("/") == ["f"]  # warm: alpha selects its own replica
        system.partition([{"alpha"}, {"beta"}])
        fs_b.write_file("/g", b"made at beta")  # datagram lost
        system.heal()
        alpha = system.host("alpha")
        here, there = sorted(system.root_locations, key=lambda loc: loc.host != "alpha")
        reconcile_subtree(alpha.physical, here.volrep, alpha.fabric, there)
        assert fs_a.listdir("/") == ["f"]  # still the cached view...
        assert fs_a.read_file("/g") == b"made at beta"  # ...but a miss is re-read
        assert fs_a.listdir("/") == ["f", "g"]

    def test_read_your_writes_with_the_view_warm(self):
        system, fs_a, fs_b = two_host_world()
        for fs in (fs_a, system.host("alpha").fs()):  # the view is per host
            assert fs.listdir("/") == ["f"]
        fs_a.write_file("/new", b"x")
        assert fs_a.exists("/new") and fs_a.listdir("/") == ["f", "new"]
        fs_a.rename("/new", "/moved")
        assert not fs_a.exists("/new") and fs_a.read_file("/moved") == b"x"
        fs_a.unlink("/moved")
        assert not fs_a.exists("/moved") and fs_a.listdir("/") == ["f"]
        fs_a.mkdir("/d")
        fs_a.write_file("/d/inner", b"y")
        assert fs_a.listdir("/d") == ["inner"]
        fs_a.unlink("/d/inner")
        fs_a.rmdir("/d")
        assert not fs_a.exists("/d")
        # a graft point is a namespace update too: the view must not survive it
        assert fs_a.listdir("/") == ["f"]
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        alpha.logical.create_graft_point(alpha.root(), "vol", volume, locations)
        assert fs_a.listdir("/") == ["f", "vol"]


class TestReservedNames:
    """The only names a Ficus directory refuses are the ones the UFS below
    it refuses (NUL, '/', empty, longer than MAX_NAME_LEN).  No prefix is
    reserved: an operation is never a name, so '@@' means nothing."""

    NUL = "/bad\x00name"

    def setup_method(self):
        self.system = FicusSystem(["solo"], daemon_config=QUIET)
        self.fs = self.system.host("solo").fs()

    def test_create_rejected(self):
        with pytest.raises(InvalidArgument):
            self.fs.write_file(self.NUL, b"x")

    def test_mkdir_rejected(self):
        with pytest.raises(InvalidArgument):
            self.fs.mkdir(self.NUL)

    def test_symlink_rejected(self):
        with pytest.raises(InvalidArgument):
            self.fs.symlink("/target", self.NUL)

    def test_rename_to_reserved_rejected(self):
        self.fs.write_file("/ok", b"x")
        with pytest.raises(InvalidArgument):
            self.fs.rename("/ok", self.NUL)
        assert self.fs.read_file("/ok") == b"x"

    def test_link_rejected(self):
        self.fs.write_file("/ok", b"x")
        with pytest.raises(InvalidArgument):
            self.fs.link("/ok", self.NUL)

    def test_plain_names_with_at_signs_still_work(self):
        """What used to look like an encoded operation is an ordinary name."""
        fs = self.fs
        fs.write_file("/user@host", b"mail-style")
        fs.write_file("/@@evil", b"leading")
        fs.mkdir("/@@dir|x")
        fs.write_file("/@@dir|x/a@@b", b"interior")
        fs.rename("/@@evil", "/@@dir|x/@@byfh|deadbeef")
        fs.link("/@@dir|x/a@@b", "/@@alias")
        fs.symlink("/@@alias", "/@@link")
        assert fs.listdir("/") == ["@@alias", "@@dir|x", "@@link", "user@host"]
        assert fs.listdir("/@@dir|x") == ["@@byfh|deadbeef", "a@@b"]
        assert fs.read_file("/@@dir|x/@@byfh|deadbeef") == b"leading"
        assert fs.read_file("/@@link") == b"interior"
