"""Unit tests for the simulated network."""

import pytest

from repro.errors import HostUnreachable, InvalidArgument, RpcTimeout, ServiceUnavailable
from repro.net import FaultPlane, LinkFaults, Network


@pytest.fixture
def net():
    network = Network()
    for host in ["a", "b", "c", "d"]:
        network.add_host(host)
    return network


class TestTopology:
    def test_duplicate_host_rejected(self, net):
        with pytest.raises(InvalidArgument):
            net.add_host("a")

    def test_unknown_host_rejected(self, net):
        with pytest.raises(InvalidArgument):
            net.reachable("a", "ghost")

    def test_fully_connected_by_default(self, net):
        assert net.reachable("a", "d")
        assert not net.partitioned

    def test_partition_splits_groups(self, net):
        net.partition([{"a", "b"}, {"c", "d"}])
        assert net.reachable("a", "b")
        assert not net.reachable("a", "c")
        assert net.partitioned

    def test_unlisted_host_isolated(self, net):
        net.partition([{"a", "b"}])
        assert not net.reachable("c", "a")
        assert not net.reachable("c", "d")
        assert net.reachable("c", "c")

    def test_overlapping_groups_rejected(self, net):
        with pytest.raises(InvalidArgument):
            net.partition([{"a", "b"}, {"b", "c"}])

    def test_heal_restores_connectivity(self, net):
        net.partition([{"a"}, {"b"}])
        net.heal()
        assert net.reachable("a", "b")

    def test_downed_host_unreachable_even_same_group(self, net):
        net.set_host_up("b", False)
        assert not net.reachable("a", "b")
        assert not net.reachable("b", "a")
        assert not net.reachable("b", "b")
        net.set_host_up("b", True)
        assert net.reachable("a", "b")

    def test_reachable_set_filters(self, net):
        net.partition([{"a", "b"}, {"c", "d"}])
        assert net.reachable_set("a", ["b", "c", "d", "a"]) == ["b", "a"]


class TestRpc:
    def test_call_dispatches(self, net):
        net.register_rpc("b", "echo", lambda x: x * 2)
        assert net.rpc("a", "b", "echo", 21) == 42
        assert net.stats.rpcs_sent == 1

    def test_call_across_partition_fails(self, net):
        net.register_rpc("b", "echo", lambda x: x)
        net.partition([{"a"}, {"b"}])
        with pytest.raises(HostUnreachable):
            net.rpc("a", "b", "echo", 1)
        assert net.stats.rpcs_failed == 1

    def test_call_to_missing_service_is_not_a_partition(self, net):
        # a reachable host with no such export is a configuration error:
        # distinct from HostUnreachable so retry policies never treat it
        # as transient
        with pytest.raises(ServiceUnavailable):
            net.rpc("a", "b", "nothing")
        assert not issubclass(ServiceUnavailable, HostUnreachable)
        assert net.stats.rpcs_failed == 1

    def test_rpc_advances_clock(self, net):
        net.register_rpc("b", "noop", lambda: None)
        before = net.clock.now()
        net.rpc("a", "b", "noop")
        assert net.clock.now() > before

    def test_kwargs_forwarded(self, net):
        net.register_rpc("b", "fmt", lambda x, suffix="": f"{x}{suffix}")
        assert net.rpc("a", "b", "fmt", "v", suffix="!") == "v!"

    def test_a_pulled_files_blocks_count_once_as_received_bytes(self):
        """A pull's ``read_blocks`` reply is a ``FileBlocks``, not bytes: the
        per-peer ledger still counts the block payloads it carries, once."""
        from repro.sim import DaemonConfig, FicusSystem

        quiet = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)
        system = FicusSystem(["a", "b"], daemon_config=quiet)
        system.host("a").fs().write_file("/f", bytes(range(250)) * 80)  # 20 000 bytes
        before = system.network.stats.rpc_bytes()["rpc_bytes_received"]
        daemon = system.host("b").recon_daemon
        daemon.tick()
        assert daemon.stats.results[-1].files_pulled == 1
        received = system.network.stats.rpc_bytes()["rpc_bytes_received"] - before
        assert 20_000 <= received < 2 * 20_000


class TestMulticast:
    def test_delivery_to_all_reachable(self, net):
        got = []
        net.register_datagram_handler("b", lambda src, p: got.append(("b", src, p)))
        net.register_datagram_handler("c", lambda src, p: got.append(("c", src, p)))
        delivered = net.multicast("a", ["b", "c"], "new-version")
        assert delivered == 2
        assert ("b", "a", "new-version") in got
        assert ("c", "a", "new-version") in got

    def test_partitioned_recipients_silently_miss(self, net):
        got = []
        net.register_datagram_handler("b", lambda src, p: got.append(p))
        net.register_datagram_handler("c", lambda src, p: got.append(p))
        net.partition([{"a", "b"}, {"c"}])
        delivered = net.multicast("a", ["b", "c"], "notify")
        assert delivered == 1
        assert got == ["notify"]
        assert net.stats.datagrams_lost == 1

    def test_multiple_handlers_per_host(self, net):
        got = []
        net.register_datagram_handler("b", lambda src, p: got.append(1))
        net.register_datagram_handler("b", lambda src, p: got.append(2))
        net.multicast("a", ["b"], None)
        assert got == [1, 2]

    def test_no_handler_counts_as_lost(self, net):
        # a reachable host with zero registered handlers received nothing:
        # the stats must not claim the notification landed
        assert net.multicast("a", ["d"], "x") == 0
        assert net.stats.datagrams_lost == 1
        assert net.stats.datagrams_delivered == 0


class TestFaultPlane:
    def test_inert_by_default(self, net):
        assert not net.faults.active
        net.register_rpc("b", "echo", lambda x: x)
        assert net.rpc("a", "b", "echo", 7) == 7
        assert net.faults.total_injected == 0

    def test_scripted_timeout_then_ok(self, net):
        calls = []
        net.register_rpc("b", "echo", lambda x: calls.append(x) or x)
        net.faults.schedule_rpc("a", "b", ["timeout", "ok"])
        with pytest.raises(RpcTimeout):
            net.rpc("a", "b", "echo", 1)
        assert calls == []  # the server never saw the lost request
        assert net.rpc("a", "b", "echo", 2) == 2
        assert calls == [2]
        assert net.faults.injected == {"rpc_timeout": 1}

    def test_scripted_reply_lost_executes_server_side(self, net):
        calls = []
        net.register_rpc("b", "bump", lambda: calls.append(1))
        net.faults.schedule_rpc("a", "b", ["reply_lost"])
        with pytest.raises(RpcTimeout):
            net.rpc("a", "b", "bump")
        assert calls == [1]  # executed, reply vanished
        assert net.stats.rpcs_failed == 1
        assert net.faults.injected == {"reply_lost": 1}

    def test_probabilistic_faults_replay_exactly(self):
        def run(seed):
            net = Network(fault_plane=FaultPlane(seed=seed))
            for host in ["a", "b"]:
                net.add_host(host)
            net.register_rpc("b", "noop", lambda: None)
            net.faults.set_default(LinkFaults(rpc_timeout=0.3, reply_lost=0.1))
            outcomes = []
            for _ in range(50):
                try:
                    net.rpc("a", "b", "noop")
                    outcomes.append("ok")
                except RpcTimeout as exc:
                    outcomes.append(str(exc))
            return outcomes, dict(net.faults.injected)

        first = run(42)
        second = run(42)
        different = run(43)
        assert first == second
        assert first != different
        assert first[1]  # some faults actually fired at these rates

    def test_datagram_drop_and_duplicate(self, net):
        got = []
        net.register_datagram_handler("b", lambda src, p: got.append(p))
        net.faults.set_link("a", "b", LinkFaults(drop=1.0))
        assert net.multicast("a", ["b"], "x") == 0
        assert got == []
        assert net.stats.datagrams_lost == 1
        net.faults.set_link("a", "b", LinkFaults(duplicate=1.0))
        assert net.multicast("a", ["b"], "y") == 2
        assert got == ["y", "y"]

    def test_datagram_reorder_overtaken_then_flushed(self, net):
        got = []
        net.register_datagram_handler("b", lambda src, p: got.append(p))
        net.faults.schedule_rpc("a", "b", [])  # no RPC faults involved
        net.faults.set_link("a", "b", LinkFaults(reorder=1.0))
        assert net.multicast("a", ["b"], "first") == 0  # held back
        assert got == []
        net.faults.set_link("a", "b", LinkFaults())
        # the next datagram overtakes the held one
        assert net.multicast("a", ["b"], "second") == 2
        assert got == ["second", "first"]

    def test_flush_deferred_at_quiescence(self, net):
        got = []
        net.register_datagram_handler("b", lambda src, p: got.append(p))
        net.faults.set_link("a", "b", LinkFaults(reorder=1.0))
        net.multicast("a", ["b"], "held")
        assert got == []
        net.faults.clear()
        assert net.flush_deferred_datagrams() == 1
        assert got == ["held"]

    def test_clear_disarms_the_plane(self, net):
        net.faults.set_default(LinkFaults(rpc_timeout=1.0))
        assert net.faults.active
        net.faults.clear()
        assert not net.faults.active
        net.register_rpc("b", "noop", lambda: None)
        net.rpc("a", "b", "noop")  # no fault
