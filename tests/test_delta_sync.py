"""Tests for the incremental sync plane: subtree pruning and block deltas.

The tentpole invariant: pruning and block deltas change what reconciliation
*costs*, never what it *does*.  Every test here pins either a cost bound
(zero directory reads when converged, one block copied for a one-block
change) or a safety property (fallbacks, mid-pull partition atomicity,
notification loop guard).
"""

import dataclasses

import pytest

from repro.errors import HostUnreachable
from repro.physical import PhysicalDirVnode, ReplicaStore
from repro.physical import store as store_module
from repro.physical.wire import DELTA_BLOCK_SIZE
from repro.recon import PullOutcome, protocol, pull_file, reconcile_directory, reconcile_subtree
from repro.resolvers import ResolveOutcome, auto_resolve_conflict
from repro.sim import DaemonConfig, FicusSystem
from repro.ufs import Ufs
from repro.vnode import SetAttrs

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


@pytest.fixture
def system():
    return FicusSystem(["alpha", "beta"], daemon_config=QUIET)


def volrep_of(system, host_name):
    return next(loc.volrep for loc in system.root_locations if loc.host == host_name)


def store_of(system, host_name):
    return system.host(host_name).physical.store_for(volrep_of(system, host_name))


def remote_root_vnode(system, at_host, of_host):
    host = system.host(at_host)
    return host.fabric.volume_root(of_host, volrep_of(system, of_host))


def seeded_file(system, size=10 * DELTA_BLOCK_SIZE):
    """A large file present on both hosts, returned as (fh, contents)."""
    contents = bytes((i * 7) % 256 for i in range(size))
    f = system.host("alpha").root().create("big")
    f.write(0, contents)
    system.reconcile_everything()
    return f.fh, contents


class _RemoteDirProxy:
    """Wraps a remote directory vnode, intercepting chosen operations."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestBlockDeltaPull:
    def test_single_block_change_copies_one_block(self, system):
        fh, contents = seeded_file(system)
        mutated = bytearray(contents)
        mutated[3 * DELTA_BLOCK_SIZE + 5] ^= 0xFF
        system.host("alpha").root().lookup("big").write(0, bytes(mutated))

        beta_store = store_of(system, "beta")
        root_fh = beta_store.root_handle()
        remote = remote_root_vnode(system, "beta", "alpha")
        result = pull_file(beta_store, root_fh, fh, remote)
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == DELTA_BLOCK_SIZE
        assert result.bytes_saved == len(contents) - DELTA_BLOCK_SIZE
        assert beta_store.stored_file(root_fh, fh).read_all() == bytes(mutated)

    def test_append_copies_only_new_blocks(self, system):
        fh, contents = seeded_file(system)
        grown = contents + b"tail" * 100
        system.host("alpha").root().lookup("big").write(0, grown)

        beta_store = store_of(system, "beta")
        root_fh = beta_store.root_handle()
        result = pull_file(
            beta_store, root_fh, fh, remote_root_vnode(system, "beta", "alpha")
        )
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == len(grown) - len(contents)
        assert beta_store.stored_file(root_fh, fh).read_all() == grown

    def test_truncation_propagates_without_refetch(self, system):
        fh, contents = seeded_file(system)
        shrunk = contents[: 4 * DELTA_BLOCK_SIZE]
        alpha_file = system.host("alpha").root().lookup("big")
        alpha_file.setattr(SetAttrs(size=len(shrunk)))

        beta_store = store_of(system, "beta")
        root_fh = beta_store.root_handle()
        result = pull_file(
            beta_store, root_fh, fh, remote_root_vnode(system, "beta", "alpha")
        )
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == 0  # every surviving block matched locally
        assert beta_store.stored_file(root_fh, fh).read_all() == shrunk

    def test_first_pull_is_whole_file(self, system):
        """A replica with no local copy has nothing to diff against."""
        f = system.host("alpha").root().create("f")
        f.write(0, b"version one")
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        result = pull_file(beta_store, beta_store.root_handle(), f.fh, remote)
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == len(b"version one")
        assert result.bytes_saved == 0

    def test_out_of_band_change_installs_nothing(self, system):
        """A transfer read at a different version than the attribute fetch
        promised (out-of-band recon between the two calls) is not
        installed: the pull is UNREACHABLE, the local copy untouched, and
        the next pull installs the remote's version."""
        fh, contents = seeded_file(system)
        mutated = bytearray(contents)
        mutated[0] ^= 0xFF
        system.host("alpha").root().lookup("big").write(0, bytes(mutated))

        class OutOfBand(_RemoteDirProxy):
            def read_blocks(self, fh, have, ctx=None):
                reply = self._inner.read_blocks(fh, have)
                # a version we did not fetch attrs for
                return dataclasses.replace(reply, vv=reply.vv.bump(99))

        beta_store = store_of(system, "beta")
        root_fh = beta_store.root_handle()
        local_vv = beta_store.read_record(fh).vv
        remote = remote_root_vnode(system, "beta", "alpha")
        result = pull_file(beta_store, root_fh, fh, OutOfBand(remote))
        assert result.outcome is PullOutcome.UNREACHABLE
        assert beta_store.stored_file(root_fh, fh).read_all() == contents
        assert beta_store.read_record(fh).vv == local_vv

        result = pull_file(beta_store, root_fh, fh, remote)
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == DELTA_BLOCK_SIZE
        assert beta_store.stored_file(root_fh, fh).read_all() == bytes(mutated)

    def test_mid_pull_partition_leaves_old_contents_intact(self, system):
        """The delta is installed only once every block has arrived, in one
        commit: a partition that cuts the transfer leaves the local replica
        exactly as it was."""
        fh, contents = seeded_file(system)
        mutated = bytearray(contents)
        mutated[2 * DELTA_BLOCK_SIZE] ^= 0xFF
        system.host("alpha").root().lookup("big").write(0, bytes(mutated))

        class PartitionsMidPull(_RemoteDirProxy):
            def read_blocks(self, fh, have, ctx=None):
                raise HostUnreachable("partitioned mid-pull")

        beta_store = store_of(system, "beta")
        root_fh = beta_store.root_handle()
        result = pull_file(
            beta_store,
            root_fh,
            fh,
            PartitionsMidPull(remote_root_vnode(system, "beta", "alpha")),
        )
        assert result.outcome is PullOutcome.UNREACHABLE
        assert beta_store.stored_file(root_fh, fh).read_all() == contents  # untouched

        # and the next (healed) pull still succeeds as a delta
        result = pull_file(
            beta_store, root_fh, fh, remote_root_vnode(system, "beta", "alpha")
        )
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == DELTA_BLOCK_SIZE
        assert beta_store.stored_file(root_fh, fh).read_all() == bytes(mutated)


def rpcs_during(system, call):
    """``call()``'s result and the RPCs the network carried meanwhile."""
    before = system.network.stats.rpcs_sent
    result = call()
    return result, system.network.stats.rpcs_sent - before


class TestOneTransfer:
    """A pull or a resolver's fetch is one ``read_blocks`` RPC, installed
    only when its vector is the one the caller decided on."""

    def decided(self, system, name):
        """beta's store, root, the remote root at alpha and alpha's record
        of ``name`` — everything a pull decides from — fetched up front."""
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        fh = system.host("alpha").root().lookup(name).fh
        return beta_store, beta_store.root_handle(), remote, fh, remote.getattrs_batch([fh])

    def test_a_first_pull_is_one_rpc(self, system):
        system.host("alpha").fs().write_file("/f", b"version one" * 1000)
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(system.host("beta").physical, beta_store, beta_store.root_handle(), remote)
        store, root_fh, remote, fh, batch = self.decided(system, "f")
        assert store.stored_file(root_fh, fh) is None
        pull, rpcs = rpcs_during(
            system, lambda: pull_file(store, root_fh, fh, remote, batch=batch, live=True)
        )
        assert (pull.outcome, rpcs) == (PullOutcome.PULLED, 1)
        assert store.stored_file(root_fh, fh).read_all() == b"version one" * 1000

    def test_a_one_block_delta_of_a_16_block_file_is_one_rpc(self, system):
        fh, contents = seeded_file(system, size=16 * DELTA_BLOCK_SIZE)
        mutated = bytearray(contents)
        mutated[9 * DELTA_BLOCK_SIZE] ^= 0xFF
        system.host("alpha").root().lookup("big").write(0, bytes(mutated))
        store, root_fh, remote, fh, batch = self.decided(system, "big")
        pull, rpcs = rpcs_during(system, lambda: pull_file(store, root_fh, fh, remote, batch=batch))
        assert (pull.outcome, rpcs, pull.bytes_copied) == (PullOutcome.PULLED, 1, DELTA_BLOCK_SIZE)
        assert store.stored_file(root_fh, fh).read_all() == bytes(mutated)

    def conflicted(self):
        """A two-host resolver system whose append log took a write on each
        side of a partition, and beta's CONFLICT pull of it from alpha."""
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        system.enable_resolvers()
        system.host("alpha").fs().write_file("/inbox.log", b"seed\n")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        system.host("alpha").fs().write_file("/inbox.log", b"seed\nalpha\n")
        system.host("beta").fs().write_file("/inbox.log", b"seed\nbravo\n")
        system.heal()
        system.run_for(3.5)  # past the NFS name cache, as any recon pass is
        store, root_fh, remote, fh, batch = self.decided(system, "inbox.log")
        pull = pull_file(store, root_fh, fh, remote, batch=batch)
        assert pull.outcome is PullOutcome.CONFLICT
        return system, store, root_fh, remote, fh, pull

    def test_a_resolver_merges_fetch_is_one_rpc(self):
        system, store, root_fh, remote, fh, pull = self.conflicted()
        outcome, rpcs = rpcs_during(
            system,
            lambda: auto_resolve_conflict(store, root_fh, fh, "inbox.log", remote, pull, system.resolvers),
        )
        assert (outcome, rpcs) == (ResolveOutcome.RESOLVED, 1)
        assert store.stored_file(root_fh, fh).read_all() == b"alpha\nbravo\nseed\n"

    def test_a_resolver_merges_only_the_version_its_conflict_named(self):
        system, store, root_fh, remote, fh, pull = self.conflicted()
        system.host("alpha").fs().write_file("/inbox.log", b"seed\nalpha\nagain\n")
        before = (store.stored_file(root_fh, fh).read_all(), store.read_record(fh).vv)
        outcome = auto_resolve_conflict(store, root_fh, fh, "inbox.log", remote, pull, system.resolvers)
        assert outcome is ResolveOutcome.UNREACHABLE
        assert (store.stored_file(root_fh, fh).read_all(), store.read_record(fh).vv) == before


def build_tree(system, dirs=6, files_per_dir=2):
    fs = system.host("alpha").fs()
    for d in range(dirs):
        fs.mkdir(f"/d{d}")
        for f in range(files_per_dir):
            fs.write_file(f"/d{d}/f{f}", bytes(50 * (d + f + 1)))
    system.reconcile_everything()
    system.reconcile_everything()


class TestSubtreePruning:
    def test_converged_system_reconciles_with_zero_directory_reads(self, monkeypatch):
        system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
        build_tree(system)
        served = []
        read = PhysicalDirVnode.read

        def counted_read(vnode, *args, **kwargs):
            served.append(vnode.layer.host_addr)
            return read(vnode, *args, **kwargs)

        monkeypatch.setattr(PhysicalDirVnode, "read", counted_read)
        for host in system.hosts.values():
            for result in host.recon_daemon.tick():
                assert result.directories_reconciled == 0
                assert result.subtrees_pruned >= 1
                assert result.files_pulled == 0
        assert served == [], "hosts served directory reads during a converged recon round"

    def test_no_change_round_is_constant_rpcs(self, system):
        build_tree(system, dirs=10)
        before = system.network.stats.rpcs_sent
        results = system.host("beta").recon_daemon.tick()
        assert len(results) == 1
        # volume root fetch + (possibly) the replica-name lookup + one probe
        assert system.network.stats.rpcs_sent - before <= 3

    def test_descends_only_into_changed_subtrees(self, system):
        build_tree(system, dirs=8)
        system.host("alpha").fs().write_file("/d3/f0", b"fresh contents")
        beta_volrep = volrep_of(system, "beta")
        alpha_loc = next(loc for loc in system.root_locations if loc.host == "alpha")
        result = system.host("beta").recon_daemon.reconcile_with(beta_volrep, alpha_loc)
        # root diverged (child digest changed) and d3 diverged; the other
        # seven subtrees were pruned without a directory read
        assert result.directories_reconciled == 2
        assert result.subtrees_pruned >= 7
        assert result.files_pulled == 1
        assert system.host("beta").fs().read_file("/d3/f0") == b"fresh contents"

    def test_pruning_preserves_convergence_semantics(self):
        """Divergence under partition still converges to identical trees."""
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        build_tree(system, dirs=4)
        system.partition([{"alpha"}, {"beta"}])
        system.host("alpha").fs().write_file("/d0/new-a", b"a side")
        system.host("beta").fs().write_file("/d2/new-b", b"b side")
        system.heal()
        system.reconcile_everything()
        a, b = system.host("alpha").fs(), system.host("beta").fs()
        assert sorted(a.listdir("/d0")) == sorted(b.listdir("/d0"))
        assert sorted(a.listdir("/d2")) == sorted(b.listdir("/d2"))
        assert a.read_file("/d2/new-b") == b"b side"
        assert b.read_file("/d0/new-a") == b"a side"

    def test_a_write_refolds_only_its_path(self, system, monkeypatch):
        """A write drops the subtree digests of its own path and no other:
        the next probe digests the written directory and each directory
        above it once, and a repeated probe digests nothing."""
        build_tree(system, dirs=13)
        fs = system.host("alpha").fs()
        fs.makedirs("/n1/n2/n3")
        fs.write_file("/n1/n2/n3/f", b"one")
        system.reconcile_everything()
        store = store_of(system, "alpha")
        root = store.root_handle()
        assert len(store.all_directory_handles()) == 16 + 1
        store.subtree_digest(root)
        fs.write_file("/n1/n2/n3/f", b"two")

        digested = []
        digest = ReplicaStore.directory_digest

        def counted_digest(self, fh):
            digested.append(fh)
            return digest(self, fh)

        monkeypatch.setattr(ReplicaStore, "directory_digest", counted_digest)
        refolded = store.subtree_digest(root)
        assert len(digested) == 3 + 1
        digested.clear()
        assert store.subtree_digest(root) == refolded
        assert digested == []
        monkeypatch.undo()
        assert ReplicaStore.attach(store.lower_root, store.volrep).subtree_digest(root) == refolded

    def test_a_write_rehashes_only_its_file(self, system, monkeypatch):
        """A directory's file fold reads each file's component memoized at
        its vector: after one write in a 16-file directory the refold
        hashes the written file alone, not all 16."""
        fs = system.host("alpha").fs()
        fs.mkdir("/d")
        for i in range(16):
            fs.write_file(f"/d/f{i}", bytes([i]) * 10)
        store = store_of(system, "alpha")
        root = store.root_handle()
        store.subtree_digest(root)
        fs.write_file("/d/f7", b"rewritten")

        hashed = []
        component = store_module.file_component

        def counted_component(fh, vv):
            hashed.append(fh)
            return component(fh, vv)

        monkeypatch.setattr(store_module, "file_component", counted_component)
        refolded = store.subtree_digest(root)
        assert len(hashed) == 1
        monkeypatch.undo()
        assert ReplicaStore.attach(store.lower_root, store.volrep).subtree_digest(root) == refolded

    def test_an_attribute_batch_after_a_probe_looks_up_no_name(self, system, monkeypatch):
        """The digest and the attribute batch read one memoized scan of a
        directory's stored files: a batch right after a probe of the same
        directory resolves no name, and still lists every stored file."""
        build_tree(system, dirs=2, files_per_dir=5)
        root = system.host("alpha").physical.root().lookup(volrep_of(system, "alpha").to_hex())
        d1 = root.lookup("d1")
        d1.sync_probe()
        lookups = []
        lookup = Ufs.lookup

        def counted_lookup(ufs, dir_ino, name):
            lookups.append(name)
            return lookup(ufs, dir_ino, name)

        monkeypatch.setattr(Ufs, "lookup", counted_lookup)
        batch = d1.getattrs_batch()
        assert lookups == []
        assert len(batch.children) == 5

    def test_up_to_date_children_cost_one_name_probe_each(self, system, monkeypatch):
        """A directory reconciled over N children already up to date probes
        each child's stored name once on the puller while it settles them:
        the pull's probe decides the file is stored, and the EQUAL sync
        point after it asks no more."""
        build_tree(system, dirs=1, files_per_dir=8)
        system.host("alpha").fs().mkdir("/d0/sub")  # the directory diverges; its files do not
        beta = system.host("beta")
        store = store_of(system, "beta")
        d0 = next(entry.fh for entry in store.read_entries(store.root_handle()) if entry.name == "d0")
        names = {entry.fh.to_hex() for entry in store.read_entries(d0) if entry.name.startswith("f")}
        assert len(names) == 8
        probes, settling = [], []
        lookup, children = Ufs.lookup, protocol.pull_children

        def counted_lookup(ufs, dir_ino, name):
            if settling and ufs is beta.ufs and name in names:
                probes.append(name)
            return lookup(ufs, dir_ino, name)

        def settled_children(*args, **kwargs):
            # the pulls and the walk's handling of each, between the yields
            settling.append(True)
            try:
                yield from children(*args, **kwargs)
            finally:
                settling.pop()

        monkeypatch.setattr(Ufs, "lookup", counted_lookup)
        monkeypatch.setattr(protocol, "pull_children", settled_children)
        alpha_loc = next(loc for loc in system.root_locations if loc.host == "alpha")
        result = beta.recon_daemon.reconcile_with(volrep_of(system, "beta"), alpha_loc)
        assert result.files_checked == 8 and result.files_pulled == 0
        assert len(probes) <= len(names)


class TestSyncNotifications:
    def test_recon_install_invalidates_peer_caches_without_pull_notes(self):
        """A reconciliation install routes through the notification path:
        peers' attribute caches drop the directory, but — because the
        notification is marked origin="sync" — no peer mints a pull note,
        which is what prevents the two pullers from looping."""
        system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
        system.host("alpha").fs().write_file("/f", b"contents")
        gamma = system.host("gamma")
        # prime gamma's attribute cache with the root directory's batch,
        # then forget the original update's own notifications
        assert gamma.fs().read_file("/f") == b"contents"
        for note in gamma.physical.pending_new_versions():
            gamma.physical.clear_new_version(note.key)
        invalidations_before = gamma.logical.attr_cache.stats.invalidations

        beta_volrep = volrep_of(system, "beta")
        alpha_loc = next(loc for loc in system.root_locations if loc.host == "alpha")
        result = system.host("beta").recon_daemon.reconcile_with(beta_volrep, alpha_loc)
        assert result.files_pulled == 1

        assert gamma.logical.attr_cache.stats.invalidations > invalidations_before
        assert gamma.physical.new_version_cache_size == 0  # the loop guard

    def test_converged_system_sends_no_sync_notifications(self):
        system = FicusSystem(["alpha", "beta"], daemon_config=QUIET)
        build_tree(system, dirs=3)
        sent_before = system.network.stats.datagrams_sent
        system.reconcile_everything()
        assert system.network.stats.datagrams_sent == sent_before

    def test_daemon_driven_system_settles(self):
        """With all daemons live, one update propagates everywhere and the
        system goes quiet — no notification ping-pong between pullers."""
        system = FicusSystem(
            ["alpha", "beta", "gamma"],
            daemon_config=DaemonConfig(propagation_period=2.0, recon_period=30.0),
        )
        system.host("alpha").fs().write_file("/f", b"v1")
        system.run_for(120)
        for host in system.hosts.values():
            assert host.physical.new_version_cache_size == 0
        sent_settled = system.network.stats.datagrams_sent
        system.run_for(300)
        assert system.network.stats.datagrams_sent == sent_settled


# -- the directory-at-a-time sync plane ------------------------------------------


def diverged_directory(hosts, files, overwritten, create=True):
    """A converged cluster with one ``files``-file directory, then
    ``overwritten`` files rewritten (and one created) on the first host."""
    system = FicusSystem(list(hosts), daemon_config=QUIET)
    fs = system.host(hosts[0]).fs()
    fs.mkdir("/d")
    for i in range(files):
        fs.write_file(f"/d/f{i}", bytes([i]) * 100)
    system.reconcile_everything()
    for name in hosts:
        system.host(name).propagation_daemon.tick()
        assert system.host(name).physical.new_version_cache_size == 0
    for i in range(overwritten):
        fs.write_file(f"/d/f{i}", bytes([100 + i]) * 100)
    if create:
        fs.write_file("/d/new", b"created")
    return system


def record_rpcs(system, calls):
    """Append ``(src, op, args)`` to ``calls`` for every RPC sent from now on."""
    real = system.network.rpc

    def rpc(src, dst, service, *args, **kwargs):
        calls.append((src, service.rsplit(".", 1)[-1], args))
        return real(src, dst, service, *args, **kwargs)

    system.network.rpc = rpc


class TestDirectoryAtATime:
    @pytest.mark.parametrize("overwritten", [0, 1, 5])
    def test_tick_rpc_budget_is_independent_of_directory_size(self, overwritten):
        """One (source, directory) costs one resolve, one directory read
        and one attribute batch however many notes and files it holds."""
        totals = {}
        for files in (8, 32):
            system = diverged_directory(["alpha", "beta", "gamma"], files, overwritten)
            beta = system.host("beta")
            assert beta.physical.new_version_cache_size == overwritten + 1
            calls = []
            record_rpcs(system, calls)
            assert beta.propagation_daemon.tick() == overwritten + 1
            assert beta.physical.new_version_cache_size == 0
            totals[files] = len(calls)

            assert {src for src, _, _ in calls} == {"beta"}
            ops = [op for _, op, _ in calls]
            assert ops.count("root") <= 1
            assert ops.count("getattrs_batch") == 1
            assert ops.count("lookup_fh") <= 1
            d_fh = system.host("alpha").root().lookup("d").fh
            dir_handle = beta.fabric.dir_by_handle("alpha", volrep_of(system, "alpha"), d_fh).handle
            dir_reads = [args for _, op, args in calls if op == "read" and args[0] == dir_handle]
            assert len(dir_reads) <= 1
            for i in range(overwritten):
                assert beta.fs().read_file(f"/d/f{i}") == bytes([100 + i]) * 100
            assert beta.fs().read_file("/d/new") == b"created"
        assert totals[8] == totals[32]

    def test_create_and_write_settle_in_one_tick(self):
        system = diverged_directory(["alpha", "beta"], files=2, overwritten=0)
        beta = system.host("beta")
        stats = beta.propagation_daemon.stats
        before = stats.pulls_succeeded
        assert beta.propagation_daemon.tick() == 1
        assert beta.physical.new_version_cache_size == 0
        assert stats.pulls_succeeded - before == 1
        assert beta.fs().read_file("/d/new") == b"created"

    def test_stale_batch_falls_back_to_a_version_the_remote_held(self, system):
        """The remote file really changes between the directory's batch
        and the transfer: the reply is at a newer vector than the batch's,
        so the pull installs nothing — never new bytes under the batch's
        older version vector — and the next pull, from a fresh record,
        installs a (contents, vv) pair the remote actually held."""
        from repro.recon import pull_children

        fh, contents = seeded_file(system)
        alpha_big = system.host("alpha").root().lookup("big")
        second = bytes(b ^ 0x55 for b in contents)
        alpha_big.write(0, second)

        beta = system.host("beta")
        beta_store = store_of(system, "beta")
        root_fh = beta_store.root_handle()
        remote = remote_root_vnode(system, "beta", "alpha")
        merged = reconcile_directory(beta.physical, beta_store, root_fh, remote)
        batch_vv = merged.remote_attrs.child(fh).vv

        third = bytes(b ^ 0xAA for b in contents) + b"tail"
        alpha_big.write(0, third)  # out of band: after the batch
        alpha_store = store_of(system, "alpha")
        third_vv = alpha_store.read_record(fh).vv
        assert third_vv.strictly_dominates(batch_vv)

        ((entry, pull),) = [
            (e, p)
            for e, p in pull_children(
                beta_store, root_fh, remote, merged.remote_attrs, merged.child_files
            )
            if e.fh == fh
        ]
        assert pull.outcome is PullOutcome.UNREACHABLE
        assert beta_store.stored_file(root_fh, fh).read_all() == contents
        assert beta_store.read_record(fh).vv == pull.local_vv

        pull = pull_file(beta_store, root_fh, fh, remote, live=True)
        assert pull.outcome is PullOutcome.PULLED
        assert beta_store.stored_file(root_fh, fh).read_all() == third
        assert beta_store.read_record(fh).vv == third_vv

    def test_entry_only_remote_child_is_missing_not_materialised(self):
        """Selective replication: the remote names a file it does not
        store, so its batch carries no record for it."""
        from repro.physical.policy import GlobPolicy

        system = FicusSystem(["full", "cache", "late"], daemon_config=QUIET)
        system.host("cache").physical.set_storage_policy(
            volrep_of(system, "cache"), GlobPolicy(include=("*.txt",))
        )
        fs = system.host("full").fs()
        fs.write_file("/kept.txt", b"text")
        fs.write_file("/declined.bin", b"blob")
        cache_store = store_of(system, "cache")
        reconcile_subtree(
            system.host("cache").physical,
            volrep_of(system, "cache"),
            system.host("cache").fabric,
            next(loc for loc in system.root_locations if loc.host == "full"),
            policy=system.host("cache").physical.policy_for(volrep_of(system, "cache")),
        )
        names = {e.name: e for e in cache_store.read_entries(cache_store.root_handle()) if e.live}
        assert cache_store.stored_file(cache_store.root_handle(), names["declined.bin"].fh) is None

        # "late" learns both names from the cache replica alone
        late_store = store_of(system, "late")
        root_fh = late_store.root_handle()
        remote = remote_root_vnode(system, "late", "cache")
        merged = reconcile_directory(system.host("late").physical, late_store, root_fh, remote)
        from repro.recon import pull_children

        outcomes = {
            entry.name: pull.outcome
            for entry, pull in pull_children(
                late_store, root_fh, remote, merged.remote_attrs, merged.child_files
            )
        }
        assert outcomes == {
            "kept.txt": PullOutcome.PULLED,
            "declined.bin": PullOutcome.REMOTE_MISSING,
        }
        assert late_store.stored_file(root_fh, names["declined.bin"].fh) is None

    def test_mid_group_partition_leaves_unsettled_notes_pending(self):
        system = diverged_directory(["alpha", "beta"], files=4, overwritten=3, create=False)
        beta = system.host("beta")
        real = system.network.rpc
        transfers = []

        def rpc(src, dst, service, *args, **kwargs):
            if service.endswith(".read_blocks"):
                transfers.append(args)
                if len(transfers) == 2:  # the group's second file
                    system.partition([{"alpha"}, {"beta"}])
            return real(src, dst, service, *args, **kwargs)

        system.network.rpc = rpc
        stats = beta.propagation_daemon.stats
        failures_before = dict(beta.health_plane.peer_health._failures)
        assert beta.propagation_daemon.tick() == 1
        assert beta.physical.new_version_cache_size == 2  # the unsettled notes
        assert stats.unreachable == 2
        # a partition is not flapping: no strike against the peer
        assert beta.health_plane.peer_health._failures == failures_before
        beta_store = store_of(system, "beta")
        d_fh = system.host("alpha").root().lookup("d").fh
        old_and_new = sorted(
            beta_store.stored_file(d_fh, e.fh).read_all()[:1]
            for e in beta_store.read_entries(d_fh)
            if e.live
        )
        # one file installed, the others byte-for-byte what they were
        assert old_and_new == sorted([bytes([100]), bytes([1]), bytes([2]), bytes([3])])

        system.network.rpc = real
        system.heal()
        assert beta.propagation_daemon.tick() == 2
        assert beta.physical.new_version_cache_size == 0
        for i in range(3):
            assert beta.fs().read_file(f"/d/f{i}") == bytes([100 + i]) * 100

    def test_one_unreachable_directory_is_one_strike(self):
        """Peer health is charged per group: N notes for one directory
        that keeps failing while reachable cost the source one strike."""
        system = diverged_directory(["alpha", "beta"], files=4, overwritten=3, create=False)
        beta = system.host("beta")
        real = system.network.rpc

        def rpc(src, dst, service, *args, **kwargs):
            if service.endswith(".getattrs_batch"):
                raise HostUnreachable("flapping")
            return real(src, dst, service, *args, **kwargs)

        system.network.rpc = rpc
        beta.propagation_daemon.tick()
        assert beta.propagation_daemon.stats.unreachable == 3
        assert beta.health_plane.peer_health._failures == {"alpha": 1}
        assert beta.physical.new_version_cache_size == 3
