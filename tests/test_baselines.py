"""Tests for the baseline replica-control protocols."""

import pytest

from repro.baselines import (
    MajorityVotingRegister,
    PrimaryCopyRegister,
    QuorumConsensusRegister,
    WeightedVotingRegister,
)
from repro.errors import FicusError, InvalidArgument, QuorumNotAvailable
from repro.net import Network
from repro.sim import FicusSystem
from repro.workload.availability import QUIET, REGISTER_PATH, reconciled_conflicts

HOSTS = ["h0", "h1", "h2", "h3", "h4"]


@pytest.fixture
def net():
    network = Network()
    for host in HOSTS:
        network.add_host(host)
    return network


@pytest.fixture
def ficus():
    """Five replicas of a root volume holding one reconciled register file."""
    system = FicusSystem(HOSTS, daemon_config=QUIET)
    system.enable_resolvers()
    system.host("h0").fs().write_file(REGISTER_PATH, b"base")
    system.reconcile_everything()
    return system


def stored(system, host):
    """The register's contents and version vector in ``host``'s own replica."""
    store = next(iter(system.host(host).physical.stores.values()))
    root = store.root_handle()
    fh = next(e.fh for e in store.read_entries(root) if e.live and e.name == REGISTER_PATH[1:])
    return store.stored_file(root, fh).read_all(), store.read_record(fh).vv


class TestPrimaryCopy:
    def test_write_through_primary_visible_everywhere(self, net):
        reg = PrimaryCopyRegister(net, HOSTS, "r")
        reg.write("h3", b"v1")
        assert reg.read("h4") == b"v1"
        assert all(reg.state[h].value == b"v1" for h in HOSTS)

    def test_write_blocked_without_primary(self, net):
        reg = PrimaryCopyRegister(net, HOSTS, "r")
        net.partition([{"h0"}, {"h1", "h2", "h3", "h4"}])  # h0 is primary
        with pytest.raises(QuorumNotAvailable):
            reg.write("h1", b"v")

    def test_reads_survive_primary_loss(self, net):
        reg = PrimaryCopyRegister(net, HOSTS, "r")
        reg.write("h0", b"v")
        net.partition([{"h0"}, {"h1", "h2", "h3", "h4"}])
        assert reg.read("h1") == b"v"

    def test_custom_primary_validated(self, net):
        with pytest.raises(InvalidArgument):
            PrimaryCopyRegister(net, HOSTS, "r", primary="nowhere")


class TestMajorityVoting:
    def test_majority_required_for_write(self, net):
        reg = MajorityVotingRegister(net, HOSTS, "r")
        net.partition([{"h0", "h1"}, {"h2", "h3", "h4"}])
        with pytest.raises(QuorumNotAvailable):
            reg.write("h0", b"minority side")
        reg.write("h2", b"majority side")  # 3 of 5

    def test_read_returns_latest_version(self, net):
        reg = MajorityVotingRegister(net, HOSTS, "r")
        reg.write("h0", b"v1")
        reg.write("h1", b"v2")
        assert reg.read("h4") == b"v2"

    def test_no_split_brain(self, net):
        """Two disjoint groups can never both write."""
        reg = MajorityVotingRegister(net, HOSTS, "r")
        net.partition([{"h0", "h1", "h2"}, {"h3", "h4"}])
        reg.write("h0", b"majority")
        with pytest.raises(QuorumNotAvailable):
            reg.write("h3", b"minority")


class TestWeightedVoting:
    def test_weights_shift_availability(self, net):
        # h0 carries 3 of 7 votes; r=w=4
        weights = {"h0": 3, "h1": 1, "h2": 1, "h3": 1, "h4": 1}
        reg = WeightedVotingRegister(net, HOSTS, "r", weights=weights, read_quorum=4, write_quorum=4)
        net.partition([{"h0", "h1"}, {"h2", "h3", "h4"}])
        reg.write("h0", b"heavy side has 4 votes")  # 3+1 = 4 ✓
        with pytest.raises(QuorumNotAvailable):
            reg.write("h2", b"light side has 3 votes")

    def test_invalid_quorum_intersection_rejected(self, net):
        with pytest.raises(InvalidArgument):
            WeightedVotingRegister(net, HOSTS, "r", read_quorum=2, write_quorum=2)


class TestQuorumConsensus:
    def test_read_one_write_all_configuration(self, net):
        reg = QuorumConsensusRegister(net, HOSTS, "r", read_quorum=1, write_quorum=5)
        reg.write("h0", b"v")
        net.partition([{"h0"}, {"h1", "h2", "h3", "h4"}])
        assert reg.read("h0") == b"v"  # read quorum of 1
        with pytest.raises(QuorumNotAvailable):
            reg.write("h1", b"needs everyone")

    def test_default_majorities(self, net):
        reg = QuorumConsensusRegister(net, HOSTS, "r")
        net.partition([{"h0", "h1", "h2"}, {"h3", "h4"}])
        reg.write("h0", b"x")
        with pytest.raises(QuorumNotAvailable):
            reg.read("h3")


class TestOneCopy:
    """The Ficus policy, measured on the system itself: any single
    reachable replica permits both reads and writes, and reconciliation
    pays for it after the heal."""

    def test_single_reachable_replica_suffices(self, ficus):
        ficus.partition([{h} for h in HOSTS])  # total fragmentation
        for host in HOSTS:
            fs = ficus.host(host).fs()
            fs.write_file(REGISTER_PATH, f"local-{host}".encode())  # every host can write!
            assert fs.read_file(REGISTER_PATH) == f"local-{host}".encode()

    def test_conflicts_detected_on_heal(self, ficus):
        ficus.partition([{"h0", "h1"}, {"h2", "h3", "h4"}])
        ficus.host("h0").fs().write_file(REGISTER_PATH, b"left")
        ficus.host("h2").fs().write_file(REGISTER_PATH, b"right")
        ficus.heal()
        ficus.reconcile_everything()
        assert reconciled_conflicts(ficus) == 1
        assert ficus.total_conflicts() == 0
        # after reconciliation every replica holds the same winner
        assert {stored(ficus, h)[0] for h in HOSTS} in ({b"left"}, {b"right"})

    def test_reconcile_converges_version_vectors(self, ficus):
        ficus.partition([{"h0"}, {"h1", "h2", "h3", "h4"}])
        ficus.host("h0").fs().write_file(REGISTER_PATH, b"a")
        ficus.host("h1").fs().write_file(REGISTER_PATH, b"b")
        ficus.heal()
        ficus.reconcile_everything()
        assert len({stored(ficus, h)[1] for h in HOSTS}) == 1

    def test_strictly_greater_availability(self, ficus):
        """The paper's headline claim, checked exhaustively: in every
        partition configuration, one-copy permits an operation whenever
        ANY other policy does (and sometimes when none do)."""
        net = ficus.network
        others = [
            PrimaryCopyRegister(net, HOSTS, "pri"),
            MajorityVotingRegister(net, HOSTS, "maj"),
            QuorumConsensusRegister(net, HOSTS, "qc"),
        ]
        partitions = [
            [{"h0", "h1", "h2", "h3", "h4"}],
            [{"h0", "h1", "h2"}, {"h3", "h4"}],
            [{"h0"}, {"h1", "h2"}, {"h3", "h4"}],
            [{h} for h in HOSTS],
        ]
        for groups in partitions:
            net.partition([set(g) for g in groups])
            for requester in HOSTS:
                try:
                    ficus.host(requester).fs().write_file(REGISTER_PATH, b"w")
                    one_ok = True
                except FicusError:
                    one_ok = False
                assert one_ok, "one-copy must always succeed with self reachable"
                for other in others:
                    try:
                        other.write(requester, b"w")
                        other_ok = True
                    except QuorumNotAvailable:
                        other_ok = False
                    # one-copy dominates: other_ok implies one_ok
                    assert not (other_ok and not one_ok)
        net.heal()
