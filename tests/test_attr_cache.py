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
from repro.physical import AuxAttributes, EntryType
from repro.physical.wire import AttrBatch
from repro.recon import reconcile_subtree
from repro.sim import DaemonConfig, FicusSystem
from repro.util import FicusFileHandle, FileId, VirtualClock, VolumeId, VolumeReplicaId
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
        reconcile_subtree(
            alpha.physical, here.volrep, alpha.fabric.volume_root("beta", there.volrep), "beta"
        )
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
