"""End-to-end scenarios exercising the whole stack at once.

These are the behaviours the paper's abstract promises, driven through the
public API over multi-host clusters with partitions, daemons, and healing.
"""

import random


from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def converged_views(system):
    """Every host's (tree, contents) view; equal views = convergence."""
    views = []
    for host in system.hosts.values():
        fs = host.fs()
        tree = sorted(fs.walk_tree())
        contents = {}
        for path in tree:
            if fs.stat(path).is_file:
                contents[path] = fs.read_file(path)
        views.append((tree, contents))
    return views


class TestUpdateAnywhere:
    def test_update_during_partition_any_single_copy(self):
        """The headline behaviour: 'permits update during network
        partition if any copy of a file is accessible'."""
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/doc", b"v0")
        system.reconcile_everything()
        system.partition([{"a"}, {"b"}, {"c"}])  # total fragmentation
        for name in ["a", "b", "c"]:
            fs = system.host(name).fs()
            fs.write_file(f"/only-{name}", f"written at {name}".encode())
            assert fs.read_file(f"/only-{name}") == f"written at {name}".encode()

    def test_all_partition_era_files_survive_healing(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.partition([{"a"}, {"b"}, {"c"}])
        for name in ["a", "b", "c"]:
            system.host(name).fs().write_file(f"/from-{name}", name.encode())
        system.heal()
        system.reconcile_everything()
        for reader in ["a", "b", "c"]:
            fs = system.host(reader).fs()
            for writer in ["a", "b", "c"]:
                assert fs.read_file(f"/from-{writer}") == writer.encode()


class TestConvergence:
    def test_randomized_partitioned_workload_converges(self):
        """Convergence invariant under a random mix of creates, writes,
        removes, mkdirs and partitions (seeded, deterministic)."""
        rng = random.Random(1234)
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        hosts = list(system.hosts)
        created: list[str] = []
        for step in range(60):
            if rng.random() < 0.15:
                # random partition or heal
                if rng.random() < 0.5:
                    system.heal()
                    system.reconcile_everything()
                else:
                    shuffled = hosts[:]
                    rng.shuffle(shuffled)
                    cut = rng.randint(1, len(shuffled) - 1)
                    system.partition([set(shuffled[:cut]), set(shuffled[cut:])])
            actor = system.host(rng.choice(hosts)).fs()
            op = rng.random()
            try:
                if op < 0.4:
                    path = f"/f{step}"
                    actor.write_file(path, f"step {step}".encode())
                    created.append(path)
                elif op < 0.6 and created:
                    actor.write_file(rng.choice(created), f"rewrite {step}".encode())
                elif op < 0.75 and created:
                    victim = rng.choice(created)
                    actor.unlink(victim)
                    created.remove(victim)
                else:
                    actor.mkdir(f"/d{step}")
            except Exception:
                # unreachable replicas / names trimmed by another side are
                # acceptable; optimistic operation continues
                pass
        system.heal()
        system.reconcile_everything(rounds=6)
        # resolve any file conflicts deterministically so contents converge
        for host in system.hosts.values():
            for report in host.conflict_log.unresolved():
                from repro.recon import resolve_file_conflict

                volrep = next(
                    loc.volrep for loc in system.root_locations if loc.host == host.name
                )
                store = host.physical.store_for(volrep)
                try:
                    contents = store.stored_file(report.parent_fh, report.fh).read_all()
                except Exception:
                    continue
                resolve_file_conflict(
                    store, report.parent_fh, report.fh, contents,
                    [report.local_vv, report.remote_vv], host.conflict_log,
                )
        system.reconcile_everything(rounds=6)
        views = converged_views(system)
        assert views[0][0] == views[1][0] == views[2][0], "trees diverged"
        assert views[0][1] == views[1][1] == views[2][1], "contents diverged"

    def test_no_lost_updates(self):
        """After a conflicting pair, NEITHER version is overwritten: each
        replica keeps its own version until the owner resolves, and the
        conflict is reported.  (The logical read is deterministic — both
        hosts see the same maximal candidate — but no data is lost.)"""
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        fs_a, fs_b = system.host("a").fs(), system.host("b").fs()
        fs_a.write_file("/f", b"base")
        system.reconcile_everything()
        system.partition([{"a"}, {"b"}])
        fs_a.write_file("/f", b"alpha version")
        fs_b.write_file("/f", b"beta version")
        system.heal()
        system.reconcile_everything()
        stored = set()
        for name in ["a", "b"]:
            host = system.host(name)
            volrep = next(l.volrep for l in system.root_locations if l.host == name)
            store = host.physical.store_for(volrep)
            fh = next(
                e.fh for e in store.read_entries(store.root_handle()) if e.name == "f"
            )
            stored.add(store.stored_file(store.root_handle(), fh).read_all())
        assert stored == {b"alpha version", b"beta version"}
        assert system.total_conflicts() > 0
        # both hosts present the SAME deterministic logical view
        assert system.host("a").fs().read_file("/f") == system.host("b").fs().read_file("/f")


class TestDaemonDrivenOperation:
    def test_steady_state_with_all_daemons(self):
        config = DaemonConfig(
            propagation_period=5.0, propagation_min_age=0.0,
            recon_period=30.0, graft_prune_period=120.0, graft_idle_timeout=600.0,
        )
        system = FicusSystem(["a", "b", "c"], daemon_config=config)
        fs_a = system.host("a").fs()
        for i in range(5):
            fs_a.write_file(f"/file{i}", f"gen {i}".encode())
            system.run_for(7.0)
        system.run_for(120.0)
        for name in ["b", "c"]:
            fs = system.host(name).fs()
            for i in range(5):
                assert fs.read_file(f"/file{i}") == f"gen {i}".encode()

    def test_partition_heals_without_intervention(self):
        config = DaemonConfig(propagation_period=5.0, recon_period=20.0, graft_prune_period=None)
        system = FicusSystem(["a", "b"], daemon_config=config)
        system.host("a").fs().write_file("/f", b"v0")
        system.run_for(30.0)
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file("/g", b"made during partition")
        system.run_for(60.0)
        system.heal()
        system.run_for(60.0)  # periodic recon picks it up, no manual calls
        assert system.host("b").fs().read_file("/g") == b"made during partition"


class TestVolumeScenarios:
    def test_project_volume_shared_across_hosts(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        volume, locations = system.create_volume(["b", "c"])
        a = system.host("a")
        a.logical.create_graft_point(a.root(), "proj", volume, locations)
        system.reconcile_everything()
        fs_a = system.host("a").fs()
        fs_b = system.host("b").fs()
        fs_a.write_file("/proj/design.md", b"# plan")
        assert fs_b.read_file("/proj/design.md") == b"# plan"

    def test_volume_updates_survive_one_replica_loss(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        volume, locations = system.create_volume(["b", "c"])
        a = system.host("a")
        a.logical.create_graft_point(a.root(), "proj", volume, locations)
        fs_a = a.fs()
        fs_a.write_file("/proj/f", b"both replicas up")
        # replicate within the project volume
        b_loc = next(l for l in locations if l.host == "b")
        c_loc = next(l for l in locations if l.host == "c")
        from repro.recon import reconcile_subtree

        reconcile_subtree(system.host("c").physical, c_loc.volrep, system.host("c").fabric, b_loc)
        system.network.set_host_up("b", False)
        assert fs_a.read_file("/proj/f") == b"both replicas up"
        fs_a.write_file("/proj/g", b"written with b down")
        assert fs_a.read_file("/proj/g") == b"written with b down"
