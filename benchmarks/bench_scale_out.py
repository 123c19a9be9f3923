"""E20: gossip/ring anti-entropy at 500 simulated hosts.

The paper runs Ficus on a handful of hosts; its reconciliation design is
pairwise ("one remote peer, rotating around the replica ring", Section
3.3), which is exactly the primitive epidemic anti-entropy scales.  Two
claims, both about making the *number* of rounds cheap now that PR 3
made each pairwise round cheap:

* **Gossip converges in O(log n) rounds at O(log n) per-host load.**  A
  500-host cluster with hash-sharded volumes plus one widely-replicated
  volume, driven from silent divergence to convergence, must converge
  within ``ROUNDS_LOG_FACTOR * log2(n)`` rounds with every host issuing
  at most ``PER_PEER_RPC_ALLOWANCE * log_fanout(n)`` RPCs per round.

* **Full mesh is the O(n) baseline.**  The same cluster, same divergence,
  same process, driven with the historical full-mesh sweep: it converges
  in very few rounds, but the busiest host pays O(n) RPCs per round —
  the per-round load a 500-host deployment cannot sustain.

``scale_out_snapshot()`` produces the BENCH_scale_out.json payload that
report_all.py writes.  Run directly (``python benchmarks/bench_scale_out.py
--fast``) it trims the volume count (the host count stays at 500 — that
is the claim under test) and exits non-zero if any bound is violated —
the CI gate.
"""

import json
import math
import sys

from repro.physical import EntryType
from repro.sim import DaemonConfig, FicusSystem, HostConfig, make_topology
from repro.sim.topology import log_fanout
from repro.util import FicusFileHandle

QUIET = DaemonConfig(propagation_period=None, recon_period=None, graft_prune_period=None)

#: small disks keep a 500-host cluster light; each host stores at most a
#: few dozen small files
TINY_HOST = HostConfig(disk_blocks=512, num_inodes=96, cache_blocks=32, name_cache_size=64)

#: the acceptance bounds: gossip must converge within
#: ROUNDS_LOG_FACTOR * ceil(log2(hosts + 1)) rounds...
ROUNDS_LOG_FACTOR = 3
#: ...with max per-host RPCs per round within PER_PEER_RPC_ALLOWANCE *
#: log_fanout(hosts) — generous per-pairwise-round RPC allowance times an
#: O(log n) number of partners
PER_PEER_RPC_ALLOWANCE = 14
#: and the full-mesh baseline's busiest host must pay at least this many
#: times more RPCs per round than gossip's
BASELINE_LOAD_FACTOR = 2.0


def build_cluster(
    hosts: int,
    sharded_volumes: int,
    replicas_per_volume: int,
    wide_replicas: int,
    topology: str,
    seed: int = 20,
):
    """A cluster with hash-sharded small volumes plus one wide volume.

    The root volume lives on host 0 only — a 500-host cluster must not
    replicate one root volume everywhere — and ``place_volumes`` shards
    ``sharded_volumes`` three-way volumes across the fleet by stable
    hash.  One extra volume spans ``wide_replicas`` hosts: the stress
    case where full-mesh peer scans are O(n) per round.
    """
    names = [f"h{i:03d}" for i in range(hosts)]
    system = FicusSystem(
        names,
        root_volume_hosts=[names[0]],
        host_config=TINY_HOST,
        daemon_config=QUIET,
        topology=make_topology(topology, seed=seed),
    )
    volumes = system.place_volumes(sharded_volumes, replicas_per_volume=replicas_per_volume)
    volumes.append(system.create_volume(names[:wide_replicas], learn_locations=True))
    return system, volumes


def _insert_file(system: FicusSystem, location, name: str, payload: bytes) -> None:
    """Create a file directly in one replica's physical store.

    The write is deliberately silent — no logical layer, no update
    notification — so the only way the other replicas ever learn of it
    is anti-entropy, which is the machinery under test.
    """
    host = system.hosts[location.host]
    store = host.physical.store_for(location.volrep)
    root = host.physical.root().lookup(location.volrep.to_hex())
    fh = FicusFileHandle(location.volrep.volume, store.new_file_id())
    root.insert(name, EntryType.FILE, eid=store.new_entry_id(), fh=fh)
    root.lookup_fh(fh).write(0, payload)


def diverge(system: FicusSystem, volumes, files_per_volume: int) -> int:
    """Write fresh files into one replica of every volume; returns files."""
    written = 0
    for index, (_volume, locations) in enumerate(volumes):
        source = locations[index % len(locations)]
        for f in range(files_per_volume):
            _insert_file(system, source, f"f{f}", f"v{index}:f{f}".encode() * 8)
            written += 1
    return written


def converged(system: FicusSystem, volumes) -> bool:
    """Every volume's replicas report identical subtree digests."""
    for _volume, locations in volumes:
        digests = set()
        for location in locations:
            store = system.hosts[location.host].physical.store_for(location.volrep)
            digests.add(store.subtree_digest(store.root_handle()))
            if len(digests) > 1:
                return False
    return True


def drive_to_convergence(system: FicusSystem, volumes, max_rounds: int) -> dict:
    """Run topology rounds until every volume converges; account per host.

    One round = one topology sweep per host (full mesh: a tick per peer,
    the historical behavior; ring/gossip: one tick).  Per-host RPC and
    byte loads come from ``NetworkStats``'s per-peer ledger, folded by
    source host each round.
    """
    topology = system.topology
    stats = system.network.stats
    rounds = 0
    max_host_rpcs_per_round = 0
    max_host_bytes_per_round = 0
    round_profile = []
    rpcs_before = stats.rpcs_by_host()
    bytes_before = stats.bytes_by_host()
    total_before = stats.rpcs_sent
    while rounds < max_rounds and not converged(system, volumes):
        for host in system.hosts.values():
            peer_count = host.recon_daemon.max_peer_count()
            if not peer_count:
                continue
            for _ in range(topology.sweep_ticks(peer_count)):
                host.recon_daemon.tick()
        rpcs_after = stats.rpcs_by_host()
        bytes_after = stats.bytes_by_host()
        round_max_rpcs = max(
            (rpcs_after.get(h, 0) - rpcs_before.get(h, 0) for h in rpcs_after), default=0
        )
        round_max_bytes = max(
            (bytes_after.get(h, 0) - bytes_before.get(h, 0) for h in bytes_after), default=0
        )
        max_host_rpcs_per_round = max(max_host_rpcs_per_round, round_max_rpcs)
        max_host_bytes_per_round = max(max_host_bytes_per_round, round_max_bytes)
        round_profile.append(round_max_rpcs)
        rpcs_before, bytes_before = rpcs_after, bytes_after
        rounds += 1
    return {
        "topology": topology.name,
        "rounds_to_converge": rounds,
        "converged": converged(system, volumes),
        "max_host_rpcs_per_round": max_host_rpcs_per_round,
        "max_host_bytes_per_round": max_host_bytes_per_round,
        "max_host_rpcs_by_round": round_profile,
        "total_rpcs": stats.rpcs_sent - total_before,
    }


def measure_topology(
    topology: str,
    hosts: int,
    sharded_volumes: int,
    replicas_per_volume: int,
    wide_replicas: int,
    files_per_volume: int,
    max_rounds: int,
) -> dict:
    system, volumes = build_cluster(
        hosts, sharded_volumes, replicas_per_volume, wide_replicas, topology
    )
    files = diverge(system, volumes, files_per_volume)
    result = drive_to_convergence(system, volumes, max_rounds)
    result.update(
        hosts=hosts,
        volumes=len(volumes),
        wide_replicas=wide_replicas,
        files_written=files,
        fanout=system.topology.fanout(wide_replicas - 1),
    )
    return result


def scale_out_snapshot(fast: bool = False) -> dict:
    """The BENCH_scale_out.json payload: gossip vs full-mesh, one process.

    ``fast`` trims the volume count and wide-replica width, not the host
    count — 500 hosts is the claim the CI gate certifies.
    """
    hosts = 500
    sharded = 30 if fast else 100
    wide = 32 if fast else 64
    files = 2 if fast else 3
    rounds_bound = ROUNDS_LOG_FACTOR * math.ceil(math.log2(hosts + 1))
    rpc_bound = PER_PEER_RPC_ALLOWANCE * log_fanout(hosts)
    gossip = measure_topology(
        "gossip", hosts, sharded, replicas_per_volume=3, wide_replicas=wide,
        files_per_volume=files, max_rounds=rounds_bound + 4,
    )
    # the O(n) baseline, same cluster shape and divergence, same process:
    # few rounds, but the busiest host pays for every peer every round
    full_mesh = measure_topology(
        "full_mesh", hosts, sharded, replicas_per_volume=3, wide_replicas=wide,
        files_per_volume=files, max_rounds=max(4, rounds_bound // 2),
    )
    return {
        "hosts": hosts,
        "bounds": {
            "rounds_to_converge": f"<= {rounds_bound} ({ROUNDS_LOG_FACTOR} * log2(n))",
            "rounds_bound": rounds_bound,
            "max_host_rpcs_per_round": (
                f"<= {rpc_bound} ({PER_PEER_RPC_ALLOWANCE} * log-fanout(n))"
            ),
            "rpc_bound": rpc_bound,
            "baseline_load_factor": f">= {BASELINE_LOAD_FACTOR}x gossip",
        },
        "gossip": gossip,
        "full_mesh_baseline": full_mesh,
        "load_ratio_full_mesh_over_gossip": (
            full_mesh["max_host_rpcs_per_round"]
            / max(1, gossip["max_host_rpcs_per_round"])
        ),
    }


def check_bounds(snapshot: dict) -> list[str]:
    """The CI gate: returns a list of violated bounds (empty = pass)."""
    violations = []
    gossip = snapshot["gossip"]
    baseline = snapshot["full_mesh_baseline"]
    bounds = snapshot["bounds"]
    if not gossip["converged"]:
        violations.append(
            f"gossip did not converge within {gossip['rounds_to_converge']} rounds"
        )
    if not baseline["converged"]:
        violations.append(
            f"full-mesh baseline did not converge within "
            f"{baseline['rounds_to_converge']} rounds"
        )
    if gossip["rounds_to_converge"] > bounds["rounds_bound"]:
        violations.append(
            f"gossip took {gossip['rounds_to_converge']} rounds "
            f"(bound: {bounds['rounds_bound']})"
        )
    if gossip["max_host_rpcs_per_round"] > bounds["rpc_bound"]:
        violations.append(
            f"gossip max per-host RPCs per round {gossip['max_host_rpcs_per_round']} "
            f"(bound: {bounds['rpc_bound']})"
        )
    ratio = snapshot["load_ratio_full_mesh_over_gossip"]
    if gossip["converged"] and baseline["converged"] and ratio < BASELINE_LOAD_FACTOR:
        violations.append(
            f"full-mesh per-host load only {ratio:.1f}x gossip's "
            f"(expected >= {BASELINE_LOAD_FACTOR}x: the baseline should hurt)"
        )
    return violations


class TestShape:
    """Small-cluster shape checks (CI runs these under plain pytest)."""

    def _measure(self, topology: str, max_rounds: int) -> dict:
        return measure_topology(
            topology, hosts=48, sharded_volumes=8, replicas_per_volume=3,
            wide_replicas=16, files_per_volume=2, max_rounds=max_rounds,
        )

    def test_gossip_converges_in_log_rounds(self):
        result = self._measure("gossip", max_rounds=3 * math.ceil(math.log2(49)) + 4)
        assert result["converged"]
        assert result["rounds_to_converge"] <= 3 * math.ceil(math.log2(49))

    def test_ring_converges(self):
        result = self._measure("ring", max_rounds=2 * 48)
        assert result["converged"]

    def test_gossip_per_host_load_beats_full_mesh(self):
        gossip = self._measure("gossip", max_rounds=30)
        mesh = self._measure("full_mesh", max_rounds=10)
        assert gossip["converged"] and mesh["converged"]
        assert gossip["max_host_rpcs_per_round"] < mesh["max_host_rpcs_per_round"]

    def test_sharded_placement_spreads_replicas(self):
        system, volumes = build_cluster(
            hosts=40, sharded_volumes=20, replicas_per_volume=3,
            wide_replicas=4, topology="gossip",
        )
        per_host = {}
        for _volume, locations in volumes[:-1]:
            for location in locations:
                per_host[location.host] = per_host.get(location.host, 0) + 1
        # 60 replicas over 40 hosts: no host may hoard a quarter of them
        assert max(per_host.values()) <= 15
        assert len(per_host) >= 10


def main(argv: list[str]) -> int:
    fast = "--fast" in argv
    snapshot = scale_out_snapshot(fast=fast)
    print(json.dumps(snapshot, indent=2, default=str))
    violations = check_bounds(snapshot)
    for violation in violations:
        print(f"BOUND VIOLATED: {violation}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
