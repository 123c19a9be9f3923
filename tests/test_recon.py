"""Tests for reconciliation: file pulls, directory merge, subtree protocol."""

import pytest

from repro.recon import (
    ConflictKind,
    PullOutcome,
    pull_file,
    reconcile_directory,
    reconcile_subtree,
    resolve_file_conflict,
)
from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


@pytest.fixture
def system():
    return FicusSystem(["alpha", "beta"], daemon_config=QUIET)


def volrep_of(system, host_name):
    return next(loc.volrep for loc in system.root_locations if loc.host == host_name)


def store_of(system, host_name):
    return system.host(host_name).physical.store_for(volrep_of(system, host_name))


def remote_root_vnode(system, at_host, of_host):
    """Access ``of_host``'s volume-root physical vnode from ``at_host``."""
    host = system.host(at_host)
    return host.fabric.volume_root(of_host, volrep_of(system, of_host))


class TestPullFile:
    def test_pull_newer_version(self, system):
        alpha = system.host("alpha")
        f = alpha.root().create("f")
        f.write(0, b"version one")
        # beta learns the entry via dir recon, then pulls the contents
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        result = pull_file(beta_store, beta_store.root_handle(), f.fh, remote)
        assert result.outcome is PullOutcome.PULLED
        assert result.bytes_copied == len(b"version one")
        assert beta_store.file_vnode(beta_store.root_handle(), f.fh).read_all() == b"version one"

    def test_pull_is_idempotent(self, system):
        alpha = system.host("alpha")
        f = alpha.root().create("f")
        f.write(0, b"x")
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        assert pull_file(beta_store, beta_store.root_handle(), f.fh, remote).outcome is PullOutcome.PULLED
        assert pull_file(beta_store, beta_store.root_handle(), f.fh, remote).outcome is PullOutcome.UP_TO_DATE

    def test_concurrent_versions_conflict_not_merged(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("f").write(0, b"base")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().lookup("f").write(0, b"alpha side")
        beta.root().lookup("f").write(0, b"beta side")
        system.heal()
        f = alpha.root().lookup("f")
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        result = pull_file(beta_store, beta_store.root_handle(), f.fh, remote)
        assert result.outcome is PullOutcome.CONFLICT
        # neither side's data was clobbered
        assert beta_store.file_vnode(beta_store.root_handle(), f.fh).read_all() == b"beta side"

    def test_a_file_created_empty_reaches_the_other_replica(self, system):
        # never written, its vector is the empty one an unstored replica's
        # equals: EQUAL must not read as up to date where nothing is stored
        system.host("alpha").fs().create_file("/bare")
        system.reconcile_everything()
        system.reconcile_everything()
        beta_store = store_of(system, "beta")
        fh = next(e.fh for e in beta_store.read_entries(beta_store.root_handle()) if e.name == "bare")
        assert beta_store.has_file(beta_store.root_handle(), fh)
        alpha_store = store_of(system, "alpha")
        assert beta_store.subtree_digest(beta_store.root_handle()) == alpha_store.subtree_digest(
            alpha_store.root_handle()
        )
        system.partition([{"alpha"}, {"beta"}])
        assert system.host("beta").fs().read_file("/bare") == b""

    def test_a_pull_never_lands_on_an_open_written_session(self):
        # alpha's session has written and not closed when beta's version
        # arrives: installing it would lose alpha's write to the close's
        # bump, which then dominates.  The pull defers; the close makes the
        # two versions concurrent, and the next pass reports the conflict.
        system = FicusSystem(["alpha", "beta"])
        system.host("alpha").fs().write_file("/f", b"base")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        session = system.host("alpha").fs().open("/f", "r+")
        session.write(b"alpha's")
        system.host("beta").fs().write_file("/f", b"beta's version")
        system.heal()
        system.run_for(120)
        system.reconcile_everything()
        session.write(b"!")
        session.close()
        system.reconcile_everything()
        assert system.total_conflicts() > 0
        alpha_store = store_of(system, "alpha")
        fh = next(e.fh for e in alpha_store.read_entries(alpha_store.root_handle()) if e.name == "f")
        assert alpha_store.file_vnode(alpha_store.root_handle(), fh).read_all() == b"alpha's!"

    def test_pull_unreachable(self, system):
        alpha = system.host("alpha")
        f = alpha.root().create("f")
        f.write(0, b"x")
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        system.partition([{"alpha"}, {"beta"}])
        result = pull_file(beta_store, beta_store.root_handle(), f.fh, remote)
        assert result.outcome is PullOutcome.UNREACHABLE


class TestDirectoryRecon:
    def test_inserts_propagate(self, system):
        alpha = system.host("alpha")
        alpha.root().create("a")
        alpha.root().create("b")
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        result = reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        assert result.inserts_applied == 2
        names = {e.name for e in beta_store.read_entries(beta_store.root_handle()) if e.live}
        assert names == {"a", "b"}

    def test_recon_is_idempotent(self, system):
        alpha = system.host("alpha")
        alpha.root().create("a")
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        phys = system.host("beta").physical
        first = reconcile_directory(phys, beta_store, beta_store.root_handle(), remote)
        second = reconcile_directory(phys, beta_store, beta_store.root_handle(), remote)
        assert first.changed and not second.changed

    def test_deletes_win_over_stale_entries(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("doomed")
        system.reconcile_everything()
        assert "doomed" in [e.name for e in beta.root().readdir()]
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().remove("doomed")
        system.heal()
        system.reconcile_everything()
        assert "doomed" not in [e.name for e in beta.root().readdir()]
        assert "doomed" not in [e.name for e in alpha.root().readdir()]

    def test_insert_then_delete_while_apart_never_resurrects(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().create("ephemeral")
        alpha.root().remove("ephemeral")
        system.heal()
        # one single recon pass: beta records the tombstone
        beta_store = store_of(system, "beta")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        entries = beta_store.read_entries(beta_store.root_handle())
        ghost = [e for e in entries if e.name == "ephemeral"]
        assert len(ghost) == 1 and not ghost[0].live
        assert "ephemeral" not in [e.name for e in beta.root().readdir()]
        # full convergence eventually garbage-collects the tombstone
        system.reconcile_everything(rounds=4)
        assert "ephemeral" not in [e.name for e in alpha.root().readdir()]
        assert "ephemeral" not in [e.name for e in beta.root().readdir()]

    def test_concurrent_same_name_creates_both_kept(self, system):
        """Directory conflict auto-repair: both files survive under
        deterministic names on every replica."""
        alpha, beta = system.host("alpha"), system.host("beta")
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().create("clash").write(0, b"from alpha")
        beta.root().create("clash").write(0, b"from beta")
        system.heal()
        system.reconcile_everything()
        system.host("alpha").propagation_daemon.tick()
        system.host("beta").propagation_daemon.tick()
        names_a = [e.name for e in alpha.root().readdir()]
        names_b = [e.name for e in beta.root().readdir()]
        assert names_a == names_b
        assert len([n for n in names_a if n.startswith("clash")]) == 2
        contents = {
            alpha.root().lookup(n).read_all() for n in names_a if n.startswith("clash")
        }
        assert contents == {b"from alpha", b"from beta"}

    def test_concurrent_rename_of_directory_keeps_both_names(self, system):
        """Paper footnote 3: 'When non-communicating directory replicas are
        concurrently given new names, it is often later necessary to
        retain multiple names.'"""
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().mkdir("project")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().rename("project", alpha.root(), "project-alpha")
        beta.root().rename("project", beta.root(), "project-beta")
        system.heal()
        system.reconcile_everything()
        names = [e.name for e in alpha.root().readdir()]
        assert "project-alpha" in names and "project-beta" in names
        assert "project" not in names
        # and both names reach the SAME directory
        a = alpha.root().lookup("project-alpha")
        b = alpha.root().lookup("project-beta")
        assert a.fh == b.fh

    def test_concurrent_rename_to_same_name_resolves_duplicate(self, system):
        """The cross-host rename bug.  A rename is insert(new entry id) +
        remove(old one), so when both replicas rename the same file to the
        same name while apart, the merge sees two unknown live inserts
        with identical (name, fh) and used to keep both — a permanent
        spurious ``n2#<eid>`` alias that no later operation ever removed.
        Reconciliation must recognize the pair as one user-level operation
        and keep only the lowest entry id, identically on every replica."""
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("n1").write(0, b"payload")
        system.reconcile_everything()
        beta.propagation_daemon.tick()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().rename("n1", alpha.root(), "n2")
        beta.root().rename("n1", beta.root(), "n2")
        system.heal()
        system.reconcile_everything()
        for host_name in ("alpha", "beta"):
            store = store_of(system, host_name)
            live = [e for e in store.read_entries(store.root_handle()) if e.live]
            assert [e.name for e in live] == ["n2"], f"{host_name}: {live}"
        assert alpha.root().lookup("n2").read_all() == b"payload"
        assert beta.root().lookup("n2").read_all() == b"payload"
        # not just converged views: the very same entry id survived everywhere
        def live_entries(host_name):
            store = store_of(system, host_name)
            return [e for e in store.read_entries(store.root_handle()) if e.live]

        assert live_entries("alpha")[0].eid == live_entries("beta")[0].eid

    def test_duplicate_resolution_is_counted_and_symmetric(self, system):
        """Each side resolves the duplicate in its own merge pass and
        reports it, so experiments can see the repair happen."""
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("doc").write(0, b"v1")
        system.reconcile_everything()
        beta.propagation_daemon.tick()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().rename("doc", alpha.root(), "final")
        beta.root().rename("doc", beta.root(), "final")
        system.heal()
        alpha_store = store_of(system, "alpha")
        beta_store = store_of(system, "beta")
        result_b = reconcile_directory(
            beta.physical,
            beta_store,
            beta_store.root_handle(),
            remote_root_vnode(system, "beta", "alpha"),
        )
        assert result_b.duplicates_resolved == 1
        assert result_b.changed
        result_a = reconcile_directory(
            alpha.physical,
            alpha_store,
            alpha_store.root_handle(),
            remote_root_vnode(system, "alpha", "beta"),
        )
        # beta's merge already picked the winner, so alpha receives the
        # resolution as an ordinary tombstone instead of re-deriving it
        assert result_a.duplicates_resolved == 0
        assert result_a.changed
        live_a = [e for e in alpha_store.read_entries(alpha_store.root_handle()) if e.live]
        assert [e.name for e in live_a] == ["final"]
        # a second pass has nothing left to resolve
        again = reconcile_directory(
            beta.physical,
            beta_store,
            beta_store.root_handle(),
            remote_root_vnode(system, "beta", "alpha"),
        )
        assert again.duplicates_resolved == 0

    def test_duplicate_resolution_reaches_third_replica(self):
        """A replica that never merged the duplicate itself learns the
        resolution through ordinary tombstone propagation."""
        system = FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)
        alpha = system.host("alpha")
        alpha.root().create("n1").write(0, b"payload")
        system.reconcile_everything(rounds=3)
        system.partition([{"alpha"}, {"beta"}, {"gamma"}])
        system.host("alpha").root().rename("n1", system.host("alpha").root(), "n2")
        system.host("beta").root().rename("n1", system.host("beta").root(), "n2")
        system.heal()
        system.reconcile_everything(rounds=4)
        for host_name in ("alpha", "beta", "gamma"):
            store = next(iter(system.host(host_name).physical.stores.values()))
            live = [e for e in store.read_entries(store.root_handle()) if e.live]
            assert [e.name for e in live] == ["n2"], f"{host_name}: {live}"

    def test_dir_vvs_merge_after_recon(self, system):
        alpha = system.host("alpha")
        alpha.root().create("x")
        beta_store = store_of(system, "beta")
        alpha_store = store_of(system, "alpha")
        remote = remote_root_vnode(system, "beta", "alpha")
        reconcile_directory(
            system.host("beta").physical, beta_store, beta_store.root_handle(), remote
        )
        beta_vv = beta_store.read_record(beta_store.root_handle()).vv
        alpha_vv = alpha_store.read_record(alpha_store.root_handle()).vv
        assert beta_vv.dominates(alpha_vv)


class TestSubtreeRecon:
    def test_subtree_covers_nested_directories(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        d = alpha.root().mkdir("a")
        e = d.mkdir("b")
        e.create("deep.txt").write(0, b"deep contents")
        result = reconcile_subtree(
            beta.physical,
            volrep_of(system, "beta"),
            remote_root_vnode(system, "beta", "alpha"),
            "alpha",
            conflict_log=beta.conflict_log,
        )
        assert result.directories_reconciled == 3
        assert result.files_pulled == 1
        assert beta.root().walk("a/b/deep.txt").read_all() == b"deep contents"

    def test_subtree_reports_file_conflicts(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("f").write(0, b"base")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().lookup("f").write(0, b"A")
        beta.root().lookup("f").write(0, b"B")
        system.heal()
        result = reconcile_subtree(
            beta.physical,
            volrep_of(system, "beta"),
            remote_root_vnode(system, "beta", "alpha"),
            "alpha",
            conflict_log=beta.conflict_log,
        )
        assert result.file_conflicts == 1
        reports = beta.conflict_log.unresolved()
        assert len(reports) == 1
        assert reports[0].kind is ConflictKind.FILE_UPDATE
        assert reports[0].name == "f"

    def test_subtree_aborts_cleanly_on_partition(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().mkdir("d").create("f")
        # grab the remote root while reachable, then partition mid-run
        remote = remote_root_vnode(system, "beta", "alpha")
        system.partition([{"alpha"}, {"beta"}])
        result = reconcile_subtree(
            beta.physical, volrep_of(system, "beta"), remote, "alpha"
        )
        assert result.aborted_by_partition
        assert result.directories_reconciled == 0
        # healing lets the next periodic run finish the job
        system.heal()
        result = reconcile_subtree(
            beta.physical, volrep_of(system, "beta"), remote, "alpha"
        )
        assert result.directories_reconciled >= 2
        assert beta.root().walk("d").readdir()

    def test_convergence_all_replicas_identical(self, system):
        """The convergence invariant: after mutual reconciliation the
        directory trees and file contents agree everywhere."""
        alpha, beta = system.host("alpha"), system.host("beta")
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().mkdir("docs").create("a.txt").write(0, b"AAA")
        beta.root().mkdir("pics").create("b.png").write(0, b"BBB")
        system.heal()
        system.reconcile_everything()
        fs_a = system.host("alpha").fs()
        fs_b = system.host("beta").fs()
        tree_a = sorted(fs_a.walk_tree())
        tree_b = sorted(fs_b.walk_tree())
        assert tree_a == tree_b
        for path in tree_a:
            if fs_a.stat(path).is_file:
                assert fs_a.read_file(path) == fs_b.read_file(path)


class TestConflictResolution:
    def test_resolution_dominates_and_propagates(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("f").write(0, b"base")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().lookup("f").write(0, b"A")
        beta.root().lookup("f").write(0, b"B")
        system.heal()
        reconcile_subtree(
            beta.physical,
            volrep_of(system, "beta"),
            remote_root_vnode(system, "beta", "alpha"),
            "alpha",
            conflict_log=beta.conflict_log,
        )
        report = beta.conflict_log.unresolved()[0]
        beta_store = store_of(system, "beta")
        resolved_vv = resolve_file_conflict(
            beta_store,
            report.parent_fh,
            report.fh,
            b"merged by owner",
            [report.local_vv, report.remote_vv],
            beta.conflict_log,
        )
        assert resolved_vv.strictly_dominates(report.local_vv)
        assert resolved_vv.strictly_dominates(report.remote_vv)
        assert not beta.conflict_log.unresolved()
        system.reconcile_everything()
        assert alpha.root().lookup("f").read_all() == b"merged by owner"

    def test_duplicate_reports_deduplicated(self, system):
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.root().create("f").write(0, b"base")
        system.reconcile_everything()
        system.partition([{"alpha"}, {"beta"}])
        alpha.root().lookup("f").write(0, b"A")
        beta.root().lookup("f").write(0, b"B")
        system.heal()
        for _ in range(3):  # periodic recon keeps finding the same conflict
            reconcile_subtree(
                beta.physical,
                volrep_of(system, "beta"),
                remote_root_vnode(system, "beta", "alpha"),
                "alpha",
                conflict_log=beta.conflict_log,
            )
        assert len(beta.conflict_log.unresolved()) == 1
