"""Tests for volumes, graft points, and autografting (paper Section 4)."""

from collections import Counter

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
        table = GraftTable("h1")
        vol = VolumeId(1, 5)
        locs = [ReplicaLocation(VolumeReplicaId(vol, 1), "h1")]
        table.learn(vol, locs)
        assert table.knows(vol)
        assert table.locations(vol) == tuple(locs)

    def test_empty_locations_rejected(self):
        with pytest.raises(InvalidArgument):
            GraftTable("h1").learn(VolumeId(1, 1), [])

    def test_locations_sorted_by_replica(self):
        table = GraftTable("h1")
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


def grafted(host) -> dict:
    """Volume -> the hosts whose replica of it ``host``'s fabric keeps a
    root of: the host's grafts."""
    out: dict = {}
    for at, volrep in host.fabric._roots:
        out.setdefault(volrep.volume, set()).add(at)
    return out


def record_rpcs(system, monkeypatch) -> Counter:
    """How many RPCs of each operation are sent from now on."""
    sent = Counter()
    rpc = system.network.rpc

    def recording(src, dst, service, *args, **kwargs):
        sent[service.split(".", 1)[1]] += 1
        return rpc(src, dst, service, *args, **kwargs)

    monkeypatch.setattr(system.network, "rpc", recording)
    return sent


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
        assert volume in grafted(alpha)

    def test_graft_binds_reachable_replica(self, system):
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        root = alpha.root()
        alpha.logical.create_graft_point(root, "p", volume, locations)
        system.partition([{"alpha", "gamma"}, {"beta"}])
        p = root.lookup("p")  # must reach gamma's replica
        p.create("f").write(0, b"written at gamma")
        assert grafted(alpha)[volume] == {"gamma"}

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
        fs = alpha.fs()
        fs.listdir("/p")  # grafts both replicas
        assert grafted(alpha)[volume] == {"beta", "gamma"}
        system.partition([{"alpha", "gamma"}, {"beta"}])
        fs.write_file("/p/f", b"written with beta cut off")
        assert fs.read_file("/p/f") == b"written with beta cut off"
        assert system.host("gamma").fs().read_file("/p/f") == b"written with beta cut off"

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
        root.lookup("p").create("g")  # must find gamma through the new entry
        assert ("gamma", new_volrep) in alpha.fabric._roots

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
        assert grafted(alpha)[vol1] == {"beta"}
        assert grafted(alpha)[vol2] == {"gamma"}


class TestGraftPruning:
    """A graft is a kept volume-replica root of the host's fabric."""

    def grafted_file(self, system):
        volume, locations = system.create_volume(["beta", "gamma"])
        alpha = system.host("alpha")
        alpha.logical.create_graft_point(alpha.root(), "p", volume, locations)
        alpha.fs().write_file("/p/f", b"persistent")
        return alpha, volume

    def cold_read(self, host) -> bytes:
        """Read ``/p/f`` with the attribute cache empty, so every replica
        selection on the way reaches its replicas through their roots."""
        host.logical.attr_cache.clear()
        return host.fs().read_file("/p/f")

    def test_a_kept_root_is_fetched_once_and_reused(self, system, monkeypatch):
        alpha, _ = self.grafted_file(system)
        performed = alpha.fabric.grafts_performed
        sent = record_rpcs(system, monkeypatch)
        system.clock.advance(100)
        assert self.cold_read(alpha) == b"persistent"
        assert alpha.fabric.grafts_performed == performed
        assert sent["root"] == 0 and sent["lookup"] == 0
        # alpha's local root-volume replica and four remote roots
        assert performed == len(alpha.fabric._roots) == 5

    def test_idle_grafts_pruned(self, system):
        alpha, _ = self.grafted_file(system)
        kept = len(alpha.fabric._roots)
        system.clock.advance(10_000)
        assert alpha.fabric.prune(idle_timeout=1800) == kept
        assert alpha.fabric._roots == {}
        assert alpha.fabric.grafts_pruned == kept

    def test_active_grafts_survive_pruning(self, system):
        alpha, _ = self.grafted_file(system)
        system.clock.advance(100)
        assert alpha.fabric.prune(idle_timeout=1800) == 0

    def test_a_root_used_within_the_timeout_survives_a_tick(self, system):
        alpha, volume = self.grafted_file(system)
        system.clock.advance(1000)
        # only the project volume's roots are asked for again
        alpha.fabric.volume_root("beta", alpha.graft_table.locations(volume)[0].volrep)
        system.clock.advance(1000)
        assert alpha.graft_prune_daemon.tick() == 4
        assert grafted(alpha) == {volume: {"beta"}}

    def test_pruned_graft_regrafts_on_demand(self, system, monkeypatch):
        """A pruned root is fetched again by the next access that needs
        it: one ``root`` and one ``lookup`` per remote replica, free for a
        local one, and the access reads what it read with the roots kept."""
        alpha, _ = self.grafted_file(system)
        sent = record_rpcs(system, monkeypatch)
        system.clock.advance(10_000)  # past every NFS client cache
        assert self.cold_read(alpha) == b"persistent"
        kept = dict(sent)
        sent.clear()
        system.clock.advance(10_000)
        performed = alpha.fabric.grafts_performed
        assert alpha.graft_prune_daemon.tick() == 5
        assert self.cold_read(alpha) == b"persistent"
        assert alpha.fabric.grafts_performed == performed + 5
        extra = {op: sent[op] - kept.get(op, 0) for op in sent}
        assert {op: n for op, n in extra.items() if n} == {"root": 4, "lookup": 4}

    def test_prune_daemon_wired(self, system):
        volume, locations = system.create_volume(["beta"])
        alpha = system.host("alpha")
        alpha.logical.create_graft_point(alpha.root(), "p", volume, locations)
        alpha.fs().listdir("/p")
        kept = len(alpha.fabric._roots)
        system.clock.advance(10_000)
        assert alpha.graft_prune_daemon.tick() == kept == 4
        assert alpha.fabric._roots == {}

    def test_the_daemon_prunes_the_fabric_a_restart_builds(self, system):
        alpha, _ = self.grafted_file(system)
        old = alpha.fabric
        alpha.crash()
        alpha.restart(system)
        assert alpha.fabric is not old and alpha.fabric._roots == {}
        assert self.cold_read(alpha) == b"persistent"
        kept = len(alpha.fabric._roots)
        system.clock.advance(10_000)
        assert alpha.graft_prune_daemon.tick() == kept > 0
        assert alpha.fabric._roots == {}
        assert len(old._roots) == 5  # the tick pruned the rebuilt fabric only


class TestPropagationIntoAnUnresolvedVolume:
    def test_tick_on_a_host_that_never_resolved_the_grafted_volume(self):
        # examples/volume_grafting.py's sequence: lab2 stores a replica of
        # the projects volume, but only lab1's logical layer has ever
        # walked through the graft point.  lab2 learnt the replica set when
        # its replica was placed, so its propagation daemon installs
        # lab1's update and announces the install to lab1.
        system = FicusSystem(["lab1", "lab2", "vault"], daemon_config=QUIET)
        lab1, lab2 = system.host("lab1"), system.host("lab2")
        projects_vol, projects_locs = system.create_volume(["lab1", "lab2"])
        lab1.logical.create_graft_point(lab1.root(), "projects", projects_vol, projects_locs)
        lab1.fs().makedirs("/projects/ficus")
        lab1.fs().write_file("/projects/ficus/README", b"a replicated file system")
        assert lab2.logical.locations_for(projects_vol) == tuple(projects_locs)
        assert projects_vol not in grafted(lab2)
        system.reconcile_everything()  # lab2 stores /ficus, where the note lands
        lab1.fs().write_file("/projects/ficus/README", b"version two")
        sent = lab2.logical.notifications_sent
        lab2.propagation_daemon.tick()
        assert lab2.propagation_daemon.stats.pulls_succeeded > 0
        assert lab2.logical.notifications_sent > sent  # the install's announcement
        assert lab2.fs().read_file("/projects/ficus/README") == b"version two"


class TestOneHomeForReplicaLocations:
    """A host's graft table is its one record of a volume's replicas."""

    def test_a_replica_host_knows_the_replica_set_when_create_volume_returns(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        volume, locations = system.create_volume(["b", "c"])
        for name in ("b", "c"):
            host = system.host(name)
            assert host.graft_table.locations(volume) == tuple(locations)
            assert [loc.host for loc in host.logical.locations_for(volume)] == ["b", "c"]
        # a host storing no replica learns the volume only from a graft point
        assert not system.host("a").graft_table.knows(volume)

    def test_a_restarted_replica_host_still_knows_an_added_replica(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        volume, locations = system.create_volume(["b"])
        system.add_volume_replica(volume, locations, "c")
        b = system.host("b")
        b.crash()
        b.restart(system)
        assert [loc.host for loc in b.logical.locations_for(volume)] == ["b", "c"]
        # replica selection, notification and reconciliation read that one entry
        b_volrep = locations[0].volrep
        assert [loc.host for loc in b.graft_table.peers(b_volrep)] == ["c"]
        assert b.recon_daemon.volume_replica_ids(b_volrep) == frozenset({1, 2})

    def test_an_autograft_records_the_graft_point_locations(self, system):
        volume, locations = system.create_volume(["gamma"])
        alpha, beta = system.host("alpha"), system.host("beta")
        alpha.logical.create_graft_point(alpha.root(), "p", volume, locations)
        system.reconcile_everything()
        # beta stores no replica and did not make the graft point: it
        # learns the volume by crossing the graft point
        assert not beta.graft_table.knows(volume)
        beta.fs().write_file("/p/f", b"x")
        assert beta.graft_table.locations(volume) == tuple(locations)
        assert grafted(beta)[volume] == {"gamma"}


def test_a_warm_read_through_a_graft_point_sends_only_the_files_read(monkeypatch):
    """A diskless client crossing a graft point reads the graft point's
    locations through its held view, so a warm read of a file in the
    grafted volume costs what a warm root-volume read costs: the file's
    one ``read``."""
    hosts = ["alpha", "beta", "gamma"]
    system = FicusSystem(hosts + ["cl"], root_volume_hosts=["alpha", "beta"], daemon_config=QUIET)
    volume, locations = system.create_volume(["gamma"])
    alpha = system.host("alpha")
    alpha.logical.create_graft_point(alpha.root(), "p", volume, locations)
    alpha.fs().write_file("/p/f", b"grafted")
    alpha.fs().write_file("/g", b"root volume")
    system.reconcile_everything()
    client = system.host("cl").fs()
    assert client.read_file("/p/f") == b"grafted" and client.read_file("/g") == b"root volume"
    sent = record_rpcs(system, monkeypatch)
    assert client.read_file("/g") == b"root volume"
    assert sent == Counter({"read": 1})
    sent.clear()
    assert client.read_file("/p/f") == b"grafted"
    assert sent == Counter({"read": 1})
