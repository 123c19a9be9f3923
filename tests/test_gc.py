"""Tests for two-phase tombstone garbage collection."""


from repro.recon import collect_volume_replica
from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


def tombstones_at(system, host_name):
    host = system.host(host_name)
    volrep = next(l.volrep for l in system.root_locations if l.host == host_name)
    store = host.physical.store_for(volrep)
    return [e for e in store.read_entries(store.root_handle()) if not e.live]


class TestAckPropagation:
    def test_local_delete_acks_self(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.host("a").fs().unlink("/f")
        (tomb,) = tombstones_at(system, "a")
        assert tomb.acks == {1}  # replica 1 = host a

    def test_acks_accumulate_through_recon(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.reconcile_everything()
        system.host("a").fs().unlink("/f")
        # one round: b learns the delete from a
        system.host("b").recon_daemon.reconcile_with(
            next(l.volrep for l in system.root_locations if l.host == "b"),
            next(l for l in system.root_locations if l.host == "a"),
        )
        (tomb_b,) = tombstones_at(system, "b")
        assert tomb_b.acks >= {1, 2}

    def test_full_ack_set_after_ring_convergence(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.reconcile_everything()
        system.host("a").fs().unlink("/f")
        system.reconcile_everything(rounds=4)
        # GC runs inside the daemon; once acks covered {1,2,3} everywhere,
        # every tombstone is purged
        for name in ["a", "b", "c"]:
            assert tombstones_at(system, name) == []
        purged = sum(h.recon_daemon.tombstones_purged for h in system.hosts.values())
        assert purged >= 3


class TestGcSafety:
    def test_tombstone_kept_while_any_replica_unaware(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.reconcile_everything()
        system.partition([{"a", "b"}, {"c"}])  # c cannot learn the delete
        system.host("a").fs().unlink("/f")
        for _ in range(4):
            for name in ["a", "b"]:
                system.host(name).recon_daemon.tick()
        # a and b know the delete but c does not: tombstones must survive
        assert tombstones_at(system, "a")
        assert tombstones_at(system, "b")

    def test_no_resurrection_after_gc(self):
        """After tombstones are collected everywhere, the deleted name
        must not reappear through any further reconciliation order."""
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        system.reconcile_everything()
        system.host("a").fs().unlink("/f")
        system.reconcile_everything(rounds=4)
        system.reconcile_everything(rounds=4)  # extra rounds post-GC
        for name in ["a", "b", "c"]:
            assert "f" not in system.host(name).fs().listdir("/")
            assert tombstones_at(system, name) == []

    def test_delete_still_wins_against_straggler(self):
        """The reason tombstones exist: a replica that was partitioned
        through the whole delete must not resurrect the file when it
        finally reconciles — even while GC runs on the others."""
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        system.host("a").fs().write_file("/doomed", b"x")
        system.reconcile_everything()
        system.partition([{"a", "b"}, {"c"}])
        system.host("a").fs().unlink("/doomed")
        for _ in range(3):  # a and b converge on the delete; GC cannot
            for name in ["a", "b"]:  # finish because c has not acked
                system.host(name).recon_daemon.tick()
        system.heal()
        system.reconcile_everything(rounds=4)
        for name in ["a", "b", "c"]:
            assert "doomed" not in system.host(name).fs().listdir("/")
        # and once c acked, collection completes everywhere
        system.reconcile_everything(rounds=2)
        for name in ["a", "b", "c"]:
            assert tombstones_at(system, name) == []

    def test_collect_is_noop_without_replica_set(self):
        system = FicusSystem(["a"], daemon_config=QUIET)
        host = system.host("a")
        fs = host.fs()
        fs.write_file("/f", b"x")
        fs.unlink("/f")
        store = host.physical.store_for(system.root_locations[0].volrep)
        result = collect_volume_replica(store, frozenset())
        assert result.tombstones_purged == 0

    def test_single_replica_volume_collects_immediately(self):
        system = FicusSystem(["a"], daemon_config=QUIET)
        host = system.host("a")
        fs = host.fs()
        fs.write_file("/f", b"x")
        fs.unlink("/f")
        store = host.physical.store_for(system.root_locations[0].volrep)
        result = collect_volume_replica(store, frozenset({1}))
        assert result.tombstones_purged == 1
        assert tombstones_at(system, "a") == []
