"""Tests for volumes, graft points, and autografting (paper Section 4)."""

import pytest

from repro.errors import AllReplicasUnavailable, InvalidArgument
from repro.physical import EntryType
from repro.physical.wire import DirectoryEntry, EntryId
from repro.sim import DaemonConfig, FicusSystem
from repro.util import FicusFileHandle, FileId, VolumeId, VolumeReplicaId
from repro.volume import (
    GraftTable,
    ReplicaLocation,
    location_entry_name,
    locations_from_entries,
)

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


@pytest.fixture
def system():
    return FicusSystem(["alpha", "beta", "gamma"], daemon_config=QUIET)


class TestGraftTable:
    def test_learn_and_lookup(self):
        table = GraftTable()
        vol = VolumeId(1, 5)
        locs = [ReplicaLocation(VolumeReplicaId(vol, 1), "h1")]
        table.learn(vol, locs)
        assert table.knows(vol)
        assert table.locations(vol) == locs

    def test_empty_locations_rejected(self):
        with pytest.raises(InvalidArgument):
            GraftTable().learn(VolumeId(1, 1), [])

    def test_locations_sorted_by_replica(self):
        table = GraftTable()
        vol = VolumeId(1, 1)
        table.learn(
            vol,
            [
                ReplicaLocation(VolumeReplicaId(vol, 2), "h2"),
                ReplicaLocation(VolumeReplicaId(vol, 1), "h1"),
            ],
        )
        assert [loc.volrep.replica_id for loc in table.locations(vol)] == [1, 2]


class TestLocationEntries:
    def test_round_trip_via_directory_entries(self):
        vol = VolumeId(2, 3)
        entries = [
            DirectoryEntry(
                eid=EntryId(1, i),
                name=location_entry_name(i),
                fh=FicusFileHandle(vol, FileId(1, i)),
                etype=EntryType.LOCATION,
                data=f"host{i}",
            )
            for i in (1, 2)
        ]
        locations = locations_from_entries(vol, entries)
        assert [(l.volrep.replica_id, l.host) for l in locations] == [(1, "host1"), (2, "host2")]

    def test_dead_and_foreign_entries_ignored(self):
        vol = VolumeId(2, 3)
        entries = [
            DirectoryEntry(
                eid=EntryId(1, 1),
                name=location_entry_name(1),
                fh=FicusFileHandle(vol, FileId(1, 1)),
                etype=EntryType.LOCATION,
                data="dead-host",
                status="dead",
            ),
            DirectoryEntry(
                eid=EntryId(1, 2),
                name="regular-file",
                fh=FicusFileHandle(vol, FileId(1, 2)),
                etype=EntryType.FILE,
            ),
        ]
        assert locations_from_entries(vol, entries) == []


class TestAutografting:
    def test_graft_point_crossed_transparently(self, system):
        """A path lookup walks through a graft point into the target
        volume without the client noticing (Section 4.4)."""
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "projects", volume, locations)
        projects = root.lookup("projects")
        projects.create("readme").write(0, b"inside the grafted volume")
        assert root.walk("projects/readme").read_all() == b"inside the grafted volume"
        assert alpha.logical.grafter.active_grafts == 1

    def test_graft_binds_reachable_replica(self, system):
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        system.partition([{"alpha", "gamma"}, {"beta"}])
        p = root.lookup("p")  # must bind gamma's replica
        state = alpha.logical.grafter.current(volume)
        assert state.bound.host == "gamma"
        p.create("f").write(0, b"written at gamma")

    def test_graft_fails_when_no_replica_reachable(self, system):
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        system.partition([{"alpha"}, {"beta", "gamma"}])
        with pytest.raises(AllReplicasUnavailable):
            root.lookup("p")

    def test_regraft_after_bound_replica_lost(self, system):
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        root.lookup("p")  # binds beta (first in replica order)
        first = alpha.logical.grafter.current(volume).bound.host
        system.partition([{"alpha", "gamma"}, {"beta"}] if first == "beta" else [{"alpha", "beta"}, {"gamma"}])
        root.lookup("p")  # must re-bind to the reachable replica
        second = alpha.logical.grafter.current(volume).bound.host
        assert second != first

    def test_graft_point_replicated_with_parent_volume(self, system):
        """Graft points reconcile like any directory, so a graft point
        created on alpha appears on beta after reconciliation."""
        volume, locations = system.create_volume(["gamma"])
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.logical.create_graft_point(alpha.root(), "shared", volume, locations)
        system.reconcile_everything()
        shared = beta.root().lookup("shared")
        shared.create("from-beta").write(0, b"b")
        assert alpha.root().walk("shared/from-beta").read_all() == b"b"

    def test_add_graft_location_dynamically(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        # place an additional replica on gamma and register it
        new_volrep = VolumeReplicaId(volume, 99)
        system.host("gamma").physical.create_volume_replica(new_volrep)
        alpha.logical.add_graft_location(
            root, "p", ReplicaLocation(new_volrep, "gamma")
        )
        system.partition([{"alpha", "gamma"}, {"beta"}])
        alpha.logical.grafter.ungraft(volume)
        root.lookup("p")  # must find gamma through the new entry
        assert alpha.logical.grafter.current(volume).bound.host == "gamma"

    def test_nested_volumes_form_a_dag(self, system):
        vol1, locs1 = system.create_volume(["beta"])
        vol2, locs2 = system.create_volume(["gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "v1", vol1, locs1)
        v1 = root.lookup("v1")
        alpha.logical.create_graft_point(v1, "v2", vol2, locs2)
        deep = root.walk("v1/v2")
        deep.create("bottom").write(0, b"three volumes deep")
        assert root.walk("v1/v2/bottom").read_all() == b"three volumes deep"
        assert alpha.logical.grafter.active_grafts == 2


class TestGraftPruning:
    def test_idle_grafts_pruned(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        root.lookup("p")
        assert alpha.logical.grafter.active_grafts == 1
        system.clock.advance(10_000)
        pruned = alpha.logical.grafter.prune(idle_timeout=1800)
        assert pruned == 1
        assert alpha.logical.grafter.active_grafts == 0

    def test_active_grafts_survive_pruning(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        root.lookup("p")
        system.clock.advance(100)
        assert alpha.logical.grafter.prune(idle_timeout=1800) == 0

    def test_pruned_graft_regrafts_on_demand(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        root.lookup("p").create("f").write(0, b"persistent")
        system.clock.advance(10_000)
        alpha.logical.grafter.prune(idle_timeout=1800)
        assert root.walk("p/f").read_all() == b"persistent"
        assert alpha.logical.grafter.grafts_performed == 2

    def test_prune_daemon_wired(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        alpha.logical.create_graft_point(alpha.root(), "p", volume, locations)
        alpha.root().lookup("p")
        system.clock.advance(10_000)
        assert alpha.graft_prune_daemon.tick() == 1


class TestPropagationIntoAnUnresolvedVolume:
    def test_tick_on_a_host_that_never_resolved_the_grafted_volume(self):
        # examples/volume_grafting.py's sequence: lab2 stores a replica of
        # the projects volume, but only lab1's logical layer has ever
        # walked through the graft point, so lab2 knows no locations for
        # it.  lab2's propagation daemon installs lab1's update and then
        # announces the install — an optimisation (peers' attribute TTL
        # covers it) that must be skipped, not raised out of the event loop.
        system = FicusSystem(["lab1", "lab2", "vault"])
        lab1, lab2 = system.host("lab1"), system.host("lab2")
        projects_vol, projects_locs = system.create_volume(["lab1", "lab2"])
        lab1.logical.create_graft_point(lab1.root(), "projects", projects_vol, projects_locs)
        lab1.fs().makedirs("/projects/ficus")
        lab1.fs().write_file("/projects/ficus/README", b"a replicated file system")
        with pytest.raises(AllReplicasUnavailable):
            lab2.logical.locations_for(projects_vol)
        system.run_for(120.0)
        assert lab2.propagation_daemon.stats.pulls_succeeded > 0
        system.reconcile_everything()
        assert lab2.fs().read_file("/projects/ficus/README") == b"a replicated file system"
