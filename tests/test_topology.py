"""The scale-out topology layer and the daemon bugs it flushed out.

Three groups:

* the strategy layer itself — deterministic peer sampling, O(log n)
  fanout, the factory;
* convergence parity — full mesh and gossip drive the same
  divergent cluster to the *same* converged tree, and chaos stays green
  under gossip;
* regression tests for the daemon health-accounting bugs fixed
  alongside (unreachable rings skipping the health plane, restart
  carrying policy state across a crash).
"""

import pytest

from repro.sim import (
    DaemonConfig,
    FicusSystem,
    FullMeshTopology,
    GossipTopology,
    Topology,
    make_topology,
)
from repro.sim.topology import log_fanout
from repro.workload import ChaosConfig, run_chaos

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)


class TestFactory:
    def test_default_is_full_mesh(self):
        assert isinstance(make_topology(None), FullMeshTopology)

    def test_by_name_with_seed(self):
        topology = make_topology("gossip", seed=7)
        assert isinstance(topology, GossipTopology)
        assert topology.seed == 7

    def test_instance_passes_through(self):
        gossip = GossipTopology(seed=2)
        assert make_topology(gossip) is gossip

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_topology("mesh-of-rings")


class TestGossipSampling:
    def test_fanout_is_logarithmic(self):
        assert log_fanout(1) == 1
        assert log_fanout(7) == 3
        assert log_fanout(499) == 9
        assert log_fanout(0) == 0
        # never more partners than peers exist
        assert GossipTopology().fanout(2) == 2

    def test_selection_is_deterministic_across_instances(self):
        peers = [f"h{i}" for i in range(40)]
        first = GossipTopology(seed=3)
        second = GossipTopology(seed=3)
        for tick in range(12):
            assert first.select("h7", peers, tick) == second.select("h7", peers, tick)

    def test_selection_varies_by_tick_host_and_seed(self):
        peers = [f"h{i}" for i in range(40)]
        topology = GossipTopology(seed=3)
        by_tick = {tuple(topology.select("h7", peers, tick)) for tick in range(12)}
        assert len(by_tick) > 1
        assert topology.select("h7", peers, 0) != GossipTopology(seed=4).select(
            "h7", peers, 0
        )
        # different hosts draw different partners on the same tick
        assert any(
            topology.select("h7", peers, tick) != topology.select("h8", peers, tick)
            for tick in range(12)
        )

    def test_selection_shape(self):
        peers = [f"h{i}" for i in range(33)]
        topology = GossipTopology(seed=1)
        chosen = topology.select("me", peers, 5)
        assert len(chosen) == log_fanout(33)
        assert len(set(chosen)) == len(chosen)
        assert all(0 <= index < len(peers) for index in chosen)


class TestFullMeshCompatibility:
    def test_selects_every_peer_every_tick(self):
        topology = FullMeshTopology()
        assert topology.select("a", ["b", "c", "d"], 9) == [0, 1, 2]
        assert topology.fanout(3) == 3
        assert topology.sweep_ticks(3) == 3
        assert topology.default_rounds(5) == 5

    def test_base_class_is_abstract_enough(self):
        with pytest.raises(NotImplementedError):
            Topology().select("a", ["b"], 0)


def _converged_view(system):
    views = []
    for host in system.hosts.values():
        fs = host.fs()
        tree = sorted(fs.walk_tree())
        contents = {
            path: fs.read_file(path) for path in tree if fs.stat(path).is_file
        }
        views.append((tree, contents))
    return views


def _diverge_and_reconcile(topology_name: str):
    system = FicusSystem(
        ["a", "b", "c", "d"],
        daemon_config=QUIET,
        topology=make_topology(topology_name, seed=5),
    )
    system.host("a").fs().write_file("/shared", b"v0")
    system.reconcile_everything()
    system.partition([{"a", "b"}, {"c", "d"}])
    system.host("a").fs().write_file("/from-a", b"left")
    system.host("c").fs().write_file("/from-c", b"right")
    system.host("d").fs().mkdir("/dir-d")
    system.heal()
    system.reconcile_everything()
    return _converged_view(system)


class TestConvergenceParity:
    @pytest.mark.parametrize("topology", ["full_mesh", "gossip"])
    def test_partition_era_updates_converge(self, topology):
        views = _diverge_and_reconcile(topology)
        assert all(view == views[0] for view in views[1:])
        tree = views[0][0]
        assert "/from-a" in tree and "/from-c" in tree and "/dir-d" in tree

    def test_every_topology_reaches_the_same_tree(self):
        """Same writes, same seeds: the converged tree must not depend on
        which anti-entropy schedule carried the updates."""
        results = {name: _diverge_and_reconcile(name) for name in ("full_mesh", "gossip")}
        assert results["gossip"][0] == results["full_mesh"][0]

    @pytest.mark.parametrize("seed", [11, 17])
    def test_chaos_stays_green_under_gossip(self, seed):
        report = run_chaos(
            seed, ChaosConfig(rounds=4, ops_per_round=3, topology="gossip")
        )
        assert report.converged, report.problems


class TestUnreachablePeerHealthAccounting:
    """Regression: the synthesized ``aborted_by_partition`` result for an
    all-unreachable ring used to skip ``health.recon_result``, so the
    health plane never suspected divergence for partitioned volumes."""

    def test_partitioned_tick_raises_divergence_suspicion(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/doc", b"v0")
        system.reconcile_everything()
        system.partition([{"a"}, {"b"}])
        system.host("a").fs().write_file("/doc", b"partition era")

        results = system.host("a").recon_daemon.tick()
        assert any(result.aborted_by_partition for result in results)

        plane = system.host("a").health_plane
        assert plane.divergence_suspected()
        outcome = plane.last_recon[-1]
        assert outcome["peer"] == "b"
        assert outcome["ok"] is False

    def test_suspicion_clears_after_heal_and_recon(self):
        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        system.host("a").fs().write_file("/doc", b"v0")
        system.reconcile_everything()
        system.partition([{"a"}, {"b"}])
        system.host("a").recon_daemon.tick()
        assert system.host("a").health_plane.divergence_suspected()
        system.heal()
        system.reconcile_everything()
        assert not system.host("a").health_plane.divergence_suspected()


class TestRestartResetsPolicyState:
    """Regression: ``FicusHost.restart`` rebuilt the daemons' logical
    wiring but carried skip credits and ring cursors across the crash —
    a rebooted host kept routing around peers based on pre-crash
    history."""

    def test_skip_credits_do_not_survive_reboot(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        host = system.host("a")
        peer_health = host.health_plane.peer_health
        peer_health.record_failure("b")
        peer_health.record_failure("b")
        peer_health.record_failure("b")
        assert peer_health.is_degraded("b")

        host.crash()
        host.restart(system)
        assert not host.health_plane.peer_health.is_degraded("b")
        assert "b" not in host.health().degraded_peers

    def test_ring_cursor_and_tick_schedule_reset(self):
        system = FicusSystem(["a", "b", "c"], daemon_config=QUIET)
        daemon = system.host("a").recon_daemon
        daemon.tick()
        assert daemon._ring_position and daemon.ticks > 0

        host = system.host("a")
        host.crash()
        host.restart(system)

        daemon = system.host("a").recon_daemon
        assert not daemon._ring_position
        assert daemon.ticks == 0


class TestShardedPlacement:
    def test_replicas_spread_and_are_stable(self):
        first = FicusSystem([f"h{i}" for i in range(20)], daemon_config=QUIET)
        second = FicusSystem([f"h{i}" for i in range(20)], daemon_config=QUIET)
        placed = first.place_volumes(12, replicas_per_volume=3)
        again = second.place_volumes(12, replicas_per_volume=3)
        assert [
            [loc.host for loc in locations] for _v, locations in placed
        ] == [[loc.host for loc in locations] for _v, locations in again]
        hosts_used = {loc.host for _v, locations in placed for loc in locations}
        assert len(hosts_used) >= 8

    def test_bad_arguments_rejected(self):
        from repro.errors import InvalidArgument

        system = FicusSystem(["a", "b"], daemon_config=QUIET)
        with pytest.raises(InvalidArgument):
            system.place_volumes(1, replicas_per_volume=3)
        with pytest.raises(InvalidArgument):
            system.place_volumes(-1)
