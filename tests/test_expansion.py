"""Dynamic replica placement (paper Section 3.1 / 4.3)."""

import pytest

from repro.sim import DaemonConfig, FicusSystem

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


class TestRootVolumeExpansion:
    def test_new_replica_catches_up(self):
        system = FicusSystem(["a", "b", "c"], root_volume_hosts=["a", "b"], daemon_config=QUIET)
        fs_a = system.host("a").fs()
        fs_a.makedirs("/docs")
        fs_a.write_file("/docs/x", b"existing data")
        system.reconcile_everything()
        location = system.add_root_replica("c")
        assert location.host == "c"
        # c now serves the whole tree from ITS OWN replica
        system.partition([{"c"}, {"a", "b"}])
        assert system.host("c").fs().read_file("/docs/x") == b"existing data"

    def test_new_replica_participates_in_updates(self):
        system = FicusSystem(["a", "b", "c"], root_volume_hosts=["a"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"v1")
        system.add_root_replica("c")
        # an update made at c's replica reaches a through recon
        system.partition([{"c"}, {"a", "b"}])
        system.host("c").fs().write_file("/from-c", b"written at the new replica")
        system.heal()
        system.reconcile_everything()
        assert system.host("a").fs().read_file("/from-c") == b"written at the new replica"

    def test_replica_ids_stay_unique(self):
        system = FicusSystem(["a", "b", "c"], root_volume_hosts=["a"], daemon_config=QUIET)
        loc_b = system.add_root_replica("b")
        loc_c = system.add_root_replica("c")
        ids = [loc.volrep.replica_id for loc in system.root_locations]
        assert len(ids) == len(set(ids)) == 3
        assert loc_b.volrep.replica_id != loc_c.volrep.replica_id

    def test_availability_improves_after_expansion(self):
        system = FicusSystem(["a", "b"], root_volume_hosts=["a"], daemon_config=QUIET)
        system.host("a").fs().write_file("/f", b"x")
        # before: b depends on a
        system.partition([{"a"}, {"b"}])
        from repro.errors import AllReplicasUnavailable

        with pytest.raises(AllReplicasUnavailable):
            system.host("b").fs().read_file("/f")
        system.heal()
        system.add_root_replica("b")
        system.partition([{"a"}, {"b"}])
        assert system.host("b").fs().read_file("/f") == b"x"


class TestGraftedVolumeExpansion:
    def test_expand_and_register_in_graft_point(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        volume, locations = system.create_volume(["b"])
        a = system.host("a")
        a.logical.create_graft_point(a.root(), "proj", volume, locations)
        a.fs().write_file("/proj/data", b"original")
        # place a second replica on c and register it in the graft point
        new_loc = system.add_volume_replica(volume, locations, "c")
        a.logical.add_graft_location(a.root(), "proj", new_loc)
        # with b gone, the graft falls over to c's (synced) replica
        system.network.set_host_up("b", False)
        a.logical.attr_cache.clear()
        assert a.fs().read_file("/proj/data") == b"original"
        assert ("c", new_loc.volrep) in a.fabric._roots
