"""Tests for workload generators and the availability harness."""

import pytest

from repro.errors import InvalidArgument
from repro.net import Network
from repro.sim import FicusSystem
from repro.workload import (
    AvailabilityExperiment,
    BurstyUpdateGenerator,
    PartitionTraceGenerator,
    SteadyUpdateGenerator,
    ZipfReferenceGenerator,
    apply_epoch,
    availability,
    expected_availability_one_copy,
    hit_ratio_estimate,
)

HOSTS = ["h0", "h1", "h2", "h3"]


class TestPartitionTraces:
    def test_deterministic_with_seed(self):
        t1 = PartitionTraceGenerator(HOSTS, 0.5, seed=42).trace(20)
        t2 = PartitionTraceGenerator(HOSTS, 0.5, seed=42).trace(20)
        assert [e.groups for e in t1] == [e.groups for e in t2]

    def test_zero_failure_always_connected(self):
        for epoch in PartitionTraceGenerator(HOSTS, 0.0, seed=1).trace(10):
            assert epoch.fully_connected

    def test_full_failure_fully_fragmented(self):
        for epoch in PartitionTraceGenerator(HOSTS, 1.0, seed=1).trace(5):
            assert len(epoch.groups) == len(HOSTS)

    def test_groups_are_a_partition_of_hosts(self):
        for epoch in PartitionTraceGenerator(HOSTS, 0.5, seed=3).trace(50):
            seen = [h for g in epoch.groups for h in g]
            assert sorted(seen) == sorted(HOSTS)

    def test_reachability_matches_groups(self):
        gen = PartitionTraceGenerator(HOSTS, 0.6, seed=9)
        for epoch in gen.trace(30):
            for a in HOSTS:
                for b in HOSTS:
                    same_group = epoch.group_of(a) == epoch.group_of(b)
                    assert epoch.reachable(a, b) == same_group

    def test_apply_epoch_drives_network(self):
        net = Network()
        for host in HOSTS:
            net.add_host(host)
        gen = PartitionTraceGenerator(HOSTS, 1.0, seed=0)
        apply_epoch(net, gen.next_epoch())
        assert not net.reachable("h0", "h1")
        gen0 = PartitionTraceGenerator(HOSTS, 0.0, seed=0)
        apply_epoch(net, gen0.next_epoch())
        assert net.reachable("h0", "h1")

    def test_bad_probability_rejected(self):
        with pytest.raises(InvalidArgument):
            PartitionTraceGenerator(HOSTS, 1.5)

    def test_expected_availability_oracle(self):
        gen = PartitionTraceGenerator(HOSTS, 1.0, seed=0)
        epoch = gen.next_epoch()
        assert expected_availability_one_copy(epoch, "h0", ["h0"])
        assert not expected_availability_one_copy(epoch, "h0", ["h1"])


class TestZipfLocality:
    def test_trace_length(self):
        gen = ZipfReferenceGenerator(4, 8, skew=1.0, seed=0)
        assert len(gen.trace(500)) == 500

    def test_high_skew_concentrates_references(self):
        flat = ZipfReferenceGenerator(4, 25, skew=0.0, seed=1).trace(2000)
        skewed = ZipfReferenceGenerator(4, 25, skew=1.5, seed=1).trace(2000)
        assert hit_ratio_estimate(skewed, 10) > hit_ratio_estimate(flat, 10)

    def test_deterministic_with_seed(self):
        t1 = ZipfReferenceGenerator(2, 5, seed=7).trace(100)
        t2 = ZipfReferenceGenerator(2, 5, seed=7).trace(100)
        assert t1 == t2

    def test_paths_well_formed(self):
        gen = ZipfReferenceGenerator(2, 3, seed=0)
        for ref in gen.trace(50):
            assert ref.path.startswith("dir") and "/" in ref.path
        assert len(gen.directories) == 2

    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidArgument):
            ZipfReferenceGenerator(0, 5)
        with pytest.raises(InvalidArgument):
            ZipfReferenceGenerator(1, 1, skew=-1)


class TestUpdateGenerators:
    def test_bursts_cluster_in_time(self):
        gen = BurstyUpdateGenerator(["/f"], burst_size=5, intra_burst_gap=0.1,
                                    mean_burst_interval=100.0, seed=3)
        events = gen.schedule(1000.0)
        assert events
        # events come in runs of 5 spaced 0.1s apart
        gaps = [b.at - a.at for a, b in zip(events, events[1:])]
        small = [g for g in gaps if g < 1.0]
        assert len(small) >= len(events) // 2

    def test_steady_updates_evenly_spaced(self):
        gen = SteadyUpdateGenerator(["/f"], interval=10.0)
        events = gen.schedule(100.0)
        assert len(events) == 9
        gaps = {round(b.at - a.at, 6) for a, b in zip(events, events[1:])}
        assert gaps == {10.0}

    def test_events_within_window(self):
        gen = BurstyUpdateGenerator(["/a", "/b"], seed=5)
        for event in gen.schedule(500.0, start=100.0):
            assert 100.0 <= event.at < 600.0

    def test_empty_paths_rejected(self):
        with pytest.raises(InvalidArgument):
            BurstyUpdateGenerator([])
        with pytest.raises(InvalidArgument):
            SteadyUpdateGenerator([])


class TestAvailabilityExperiment:
    def test_one_copy_dominates_all_policies(self):
        results = AvailabilityExperiment(
            num_hosts=5, link_failure_prob=0.4, epochs=40, seed=11
        ).run()
        one = results["one-copy"]
        for name, stats in results.items():
            assert one.read_availability >= stats.read_availability
            assert one.write_availability >= stats.write_availability

    def test_one_copy_is_total_when_requester_hosts_replica(self):
        results = AvailabilityExperiment(
            num_hosts=4, link_failure_prob=0.6, epochs=30, seed=2
        ).run()
        # every requester hosts a replica, so one-copy never fails
        assert results["one-copy"].read_availability == 1.0
        assert results["one-copy"].write_availability == 1.0

    def test_conflicts_are_the_price_of_availability(self):
        results = AvailabilityExperiment(
            num_hosts=5, link_failure_prob=0.5, epochs=60, seed=4
        ).run()
        assert results["one-copy"].conflicts > 0
        assert results["majority-voting"].conflicts == 0

    def test_one_copy_conflicts_are_the_merges_the_cluster_recorded(self, monkeypatch):
        """The harness counts no conflict itself: the one-copy column is
        what the cluster's reconciliation recorded, one ledger merge per
        conflict its resolver settled."""
        built = []

        class Recorded(FicusSystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(availability, "FicusSystem", Recorded)
        results = AvailabilityExperiment(
            num_hosts=5, link_failure_prob=0.5, epochs=60, seed=4
        ).run()
        (system,) = built
        merges = [
            event
            for host in system.hosts.values()
            for event in host.health_plane.provenance.events()
            if event.kind == "merge"
        ]
        assert results["one-copy"].conflicts == len(merges) > 0
        assert system.total_conflicts() == 0

    def test_no_failures_means_everyone_available(self):
        results = AvailabilityExperiment(
            num_hosts=4, link_failure_prob=0.0, epochs=10, seed=0
        ).run()
        for stats in results.values():
            assert stats.read_availability == 1.0
            assert stats.write_availability == 1.0
