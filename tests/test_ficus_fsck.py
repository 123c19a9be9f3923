"""Tests for the physical-layer integrity checker and its use as an
oracle after complex operation sequences."""

import random


from repro.errors import FicusError
from repro.physical import ficus_fsck
from repro.sim import DaemonConfig, FicusSystem
from repro.ufs import fsck
from repro.util import FicusFileHandle

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def check_host(system, host_name):
    host = system.host(host_name)
    reports = []
    for volrep, store in host.physical.stores.items():
        reports.append((volrep, ficus_fsck(store)))
    return reports


def assert_all_clean(system):
    for name in system.hosts:
        for volrep, report in check_host(system, name):
            assert report.clean, f"{name}/{volrep}: {report.problems}"
        assert fsck(system.host(name).ufs).clean


class TestCleanStates:
    def test_fresh_system_is_clean(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        assert_all_clean(system)

    def test_clean_after_namespace_churn(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        fs = system.host("a").fs()
        fs.makedirs("/x/y")
        fs.write_file("/x/y/f", b"1")
        fs.link("/x/y/f", "/x/alias")
        fs.rename("/x/y/f", "/x/moved")
        fs.unlink("/x/alias")
        fs.symlink("/x/moved", "/lnk")
        assert_all_clean(system)

    def test_clean_after_recon_convergence(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.partition([{"a"}, {"b"}, {"c"}])
        for name in ["a", "b", "c"]:
            fsx = system.host(name).fs()
            fsx.write_file(f"/{name}.txt", name.encode())
            fsx.mkdir(f"/{name}-dir")
        system.heal()
        system.reconcile_everything(rounds=4)
        for host in system.hosts.values():
            host.propagation_daemon.tick()
        assert_all_clean(system)

    def test_entry_awaiting_contents_is_not_a_problem(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        # reconcile directories only (no propagation tick): b has the
        # entry without contents
        b = system.host("b")
        b.recon_daemon.tick()
        volrep = next(l.volrep for l in system.root_locations if l.host == "b")
        report = ficus_fsck(b.physical.store_for(volrep))
        assert report.clean
        # contents may or may not have been pulled by the subtree pass;
        # either way the structure must be consistent
        assert report.entries_awaiting_contents in (0, 1)

    def test_clean_after_crash_and_restart(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        fs = system.host("a").fs()
        fs.write_file("/f", b"x")
        system.reconcile_everything()
        system.host("a").crash()
        system.host("a").restart(system)
        assert_all_clean(system)


class TestDetectsCorruption:
    def test_stray_object_detected(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        store = host.physical.store_for(system.root_locations[0].volrep)
        # plant a stray file in the root's unix directory
        store.dir_unix_vnode(store.root_handle()).create("not-a-ficus-name")
        report = ficus_fsck(store)
        assert not report.clean
        assert any("unrecognized" in p for p in report.problems)

    def test_a_name_with_a_replica_id_is_no_files_name(self):
        """A stored name is a handle's only with the constant fifth field:
        a copy of a file's name carrying a replica-id there is not that
        file's storage, so it neither counts as a stored name nor hides as
        a stray copy of the file."""
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        host.fs().write_file("/f", b"x")
        store = host.physical.store_for(system.root_locations[0].volrep)
        root = store.root_handle()
        (entry,) = [e for e in store.read_entries(root) if e.live and e.name == "f"]
        bound = entry.fh.to_hex()[: -len("ffffffff")] + "00000005"
        store.dir_unix_vnode(root).create(bound)
        report = ficus_fsck(store)
        assert report.problems == [f"dir {root}: unrecognized name {bound!r}"]

    def test_mint_regression_detected(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        for i in range(3):
            fs.write_file(f"/f{i}", b"x")
        store = host.physical.store_for(system.root_locations[0].volrep)
        meta = store._read_meta()
        meta["next_unique"] = "1"  # simulate lost counter state
        store._write_meta(meta)
        report = ficus_fsck(store)
        assert any("mint behind" in p for p in report.problems)

    def test_duplicate_live_name_fh_detected(self):
        """Two live entries naming the same file under the same name is
        the merge artifact of the cross-host same-name rename bug; the
        checker must flag it if reconciliation ever lets one persist."""
        from repro.physical.wire import DirectoryEntry, EntryId

        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        host.fs().write_file("/f", b"x")
        store = host.physical.store_for(system.root_locations[0].volrep)
        entries = store.read_entries(store.root_handle())
        original = next(e for e in entries if e.name == "f")
        clone = DirectoryEntry(
            eid=EntryId(original.eid.replica_id + 1, 1),
            name=original.name,
            fh=original.fh,
            etype=original.etype,
        )
        store.write_entries(store.root_handle(), entries + [clone])
        report = ficus_fsck(store)
        assert any("duplicate live entry" in p for p in report.problems)

    def test_refcount_mismatch_detected(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.mkdir("/d")
        store = host.physical.store_for(system.root_locations[0].volrep)
        entries = store.read_entries(store.root_handle())
        dfh = next(e.fh for e in entries if e.name == "d")
        aux = store.read_record(dfh)._replace(refs=5)
        store.write_record(dfh, aux)
        report = ficus_fsck(store)
        assert any("refs=5" in p for p in report.problems)

    def test_contents_without_a_record_detected(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        store = host.physical.store_for(system.root_locations[0].volrep)
        # a create cut short after its contents, before its record
        orphan = FicusFileHandle(store.volume, store.new_file_id())
        store.dir_unix_vnode(store.root_handle()).create(orphan.to_hex())
        report = ficus_fsck(store)
        assert report.problems == [f"dir {store.root_handle()}: contents without a record {orphan.to_hex()!r}"]

    def test_a_record_stored_nowhere_detected(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        host.fs().write_file("/f", b"x")
        store = host.physical.store_for(system.root_locations[0].volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        # the contents' last name gone, the record not cleared with it
        store.dir_unix_vnode(store.root_handle()).remove(fh.to_hex())
        store._known.clear()
        assert f"record of file {fh} stored nowhere" in ficus_fsck(store).problems

    def test_a_file_record_counts_its_stored_names(self):
        system = FicusSystem(["solo"], daemon_config=QUIET)
        host = system.host("solo")
        fs = host.fs()
        fs.mkdir("/d")
        fs.write_file("/f", b"x")
        fs.link("/f", "/d/alias")
        store = host.physical.store_for(system.root_locations[0].volrep)
        fh = next(e.fh for e in store.read_entries(store.root_handle()) if e.name == "f")
        assert store.read_record(fh).refs == 2 and ficus_fsck(store).clean
        aux = store.read_record(fh)._replace(refs=1)
        store.write_record(fh, aux)
        assert f"file {fh}: record refs=1 but 2 stored names" in ficus_fsck(store).problems


class TestRandomizedOracle:
    def test_random_cluster_workload_stays_clean(self):
        """The soak: random ops, partitions, daemons, restarts — the
        structural invariants must hold at every host throughout."""
        rng = random.Random(20260704)
        system = FicusSystem(
            ["a", "b", "c"],
            daemon_config=DaemonConfig(
                propagation_period=5.0, recon_period=25.0, graft_prune_period=None
            ),
        )
        hosts = list(system.hosts)
        paths: list[str] = []
        for step in range(80):
            roll = rng.random()
            actor = system.host(rng.choice(hosts))
            try:
                if roll < 0.30:
                    path = f"/file{step}"
                    actor.fs().write_file(path, rng.randbytes(rng.randint(0, 2000)))
                    paths.append(path)
                elif roll < 0.45 and paths:
                    actor.fs().write_file(rng.choice(paths), b"rewrite")
                elif roll < 0.55 and paths:
                    victim = rng.choice(paths)
                    actor.fs().unlink(victim)
                    paths.remove(victim)
                elif roll < 0.65:
                    actor.fs().mkdir(f"/dir{step}")
                elif roll < 0.75:
                    if rng.random() < 0.5:
                        system.heal()
                    else:
                        cut = rng.randint(1, 2)
                        shuffled = hosts[:]
                        rng.shuffle(shuffled)
                        system.partition([set(shuffled[:cut]), set(shuffled[cut:])])
                elif roll < 0.82:
                    name = rng.choice(hosts)
                    system.host(name).crash()
                    system.host(name).restart(system)
                else:
                    system.run_for(rng.uniform(1.0, 30.0))
            except FicusError:
                pass  # partitions legitimately fail some ops
        system.heal()
        system.run_for(120.0)
        system.reconcile_everything(rounds=4)
        assert_all_clean(system)
