"""Cluster construction: a whole Ficus deployment in one object.

:class:`FicusSystem` assembles, per host, the full stack from Figure 2 of
the paper — UFS on a simulated disk, the physical layer over it, an NFS
server exporting the physical layer, and a logical layer reaching local
and remote physical layers through the fabric — plus the three daemons
and a shared event loop.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import InvalidArgument
from repro.logical import Fabric, FicusLogicalLayer, PHYSICAL_SERVICE
from repro.net import Network
from repro.nfs import NfsServer
from repro.physical import FicusPhysicalLayer
from repro.recon import ConflictLog
from repro.sim.daemons import GraftPruneDaemon, PropagationDaemon, ReconciliationDaemon
from repro.sim.events import EventLoop
from repro.sim.topology import Topology, make_topology
from repro.storage import BlockDevice
from repro.telemetry import NULL_TELEMETRY, HealthPlane, HostHealth, Telemetry, VersionDAG
from repro.ufs import Ufs
from repro.util import IdAllocator, VirtualClock, VolumeId, VolumeReplicaId
from repro.vnode import UfsLayer
from repro.volume import GraftTable, ReplicaLocation


@dataclass
class HostConfig:
    """Per-host tunables."""

    disk_blocks: int = 16384
    num_inodes: int = 2048
    cache_blocks: int = 512
    name_cache_size: int = 1024
    #: isolate each inode in its own disk block so one inode fetch = one
    #: disk I/O (the accounting unit of the paper's Section 6)
    isolate_inodes: bool = False


@dataclass
class DaemonConfig:
    """Daemon periods (virtual seconds); ``None`` disables a daemon."""

    propagation_period: float | None = 5.0
    propagation_min_age: float = 0.0
    recon_period: float | None = 60.0
    graft_prune_period: float | None = 600.0
    graft_idle_timeout: float = 1800.0


class FicusHost:
    """One host: the complete Figure-2 stack plus its daemons."""

    def __init__(
        self,
        name: str,
        network: Network,
        clock: VirtualClock,
        allocator_id: int,
        config: HostConfig,
        telemetry: Telemetry | None = None,
    ):
        self.name = name
        self.network = network
        self.clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY
        self.allocator = IdAllocator(allocator_id)
        self.device = BlockDevice(config.disk_blocks, name=f"{name}-disk")
        self.ufs = Ufs.mkfs(
            self.device,
            num_inodes=config.num_inodes,
            clock=clock,
            cache_blocks=config.cache_blocks,
            name_cache_size=config.name_cache_size,
            inode_size=self.device.block_size if config.isolate_inodes else None,
        )
        self.ufs_layer = UfsLayer(self.ufs)
        self.physical = FicusPhysicalLayer(
            self.ufs_layer, name, network=network, clock=clock, telemetry=self.telemetry
        )
        #: the consistency observability plane the first physical layer
        #: built; it survives crashes — it plays the flight recorder
        self.health_plane: HealthPlane = self.physical.health
        self.health_plane.physical = self.physical
        self.nfs_server = NfsServer(
            network, name, self.physical, service=PHYSICAL_SERVICE, telemetry=self.telemetry
        )
        self.graft_table = GraftTable(name)
        self.fabric = Fabric(network, name, self.physical, telemetry=self.telemetry)
        self.logical: FicusLogicalLayer | None = None  # wired by FicusSystem
        self.conflict_log = ConflictLog(telemetry=self.telemetry)
        self.propagation_daemon: PropagationDaemon | None = None
        self.recon_daemon: ReconciliationDaemon | None = None
        self.graft_prune_daemon: GraftPruneDaemon | None = None

    def root(self):
        """The user-facing root vnode on this host."""
        return self.logical.root()

    def fs(self):
        """A path-based :class:`~repro.core.FicusFileSystem` on this host."""
        from repro.core import FicusFileSystem

        return FicusFileSystem(self.logical)

    def health(self) -> HostHealth:
        """This host's consistency health as one structured record."""
        return self.health_plane.host_health()

    def crash(self) -> None:
        """Crash this host: unreachable, volatile state gone on restart."""
        self.network.set_host_up(self.name, False)

    def restart(self, system: "FicusSystem") -> None:
        """Reboot: remount the (surviving) disk, rebuild every layer.

        Everything volatile — buffer cache, DNLC, new-version cache, open
        sessions, grafts, peer health — is lost; everything on the
        simulated disk (files, directories, version vectors, tombstone
        state, id-mint counters) survives, and so does every NFS handle a
        client holds, since it names what it addresses.  Persisted volume
        replicas are re-attached by scanning the disk and recovered
        (:meth:`ReplicaStore.recover`): half-made directories and files
        dropped, and frees the crash cut short finished.
        """
        hosted = list(self.physical.stores)
        # the dying stack's datagram subscriptions go with it — leaking
        # them would deliver every future notification to the dead layers
        # too, double-recording flight/ledger entries via the (surviving)
        # health plane and growing the dead new-version cache forever
        self.network.unregister_datagram_handler(self.name, self.physical._on_datagram)
        if self.logical is not None:
            self.network.unregister_datagram_handler(self.name, self.logical._on_datagram)
        self.ufs = self.ufs.remount()
        self.ufs_layer = UfsLayer(self.ufs)
        self.physical = FicusPhysicalLayer(
            self.ufs_layer,
            self.name,
            network=self.network,
            clock=self.clock,
            telemetry=self.telemetry,
            health=self.health_plane,
        )
        self.health_plane.physical = self.physical
        for volrep in hosted:
            self.physical.attach_volume_replica(volrep).recover()
        self.nfs_server.exported = self.physical
        self.fabric = Fabric(self.network, self.name, self.physical, telemetry=self.telemetry)
        self.logical = FicusLogicalLayer(
            self.network,
            self.name,
            self.fabric,
            self.graft_table,
            self.logical.root_volume,
            telemetry=self.telemetry,
        )
        self.propagation_daemon.physical = self.physical
        self.propagation_daemon.fabric = self.fabric
        self.propagation_daemon.logical = self.logical
        self.recon_daemon.physical = self.physical
        self.recon_daemon.fabric = self.fabric
        self.recon_daemon.logical = self.logical
        # volatile policy state dies with the host: a rebooted host must not
        # keep routing around peers on pre-crash skip credits or resume a
        # pre-crash gossip schedule
        self.health_plane.peer_health.reset()
        self.propagation_daemon.reboot()
        self.recon_daemon.reboot()
        self.graft_prune_daemon.logical = self.logical
        self.network.set_host_up(self.name, True)

    def __repr__(self) -> str:
        return f"FicusHost({self.name})"


class FicusSystem:
    """A complete simulated Ficus deployment."""

    def __init__(
        self,
        host_names: list[str],
        root_volume_hosts: list[str] | None = None,
        host_config: HostConfig | None = None,
        daemon_config: DaemonConfig | None = None,
        telemetry: Telemetry | None = None,
        resolvers=None,
        topology: str | Topology | None = None,
    ):
        if not host_names:
            raise InvalidArgument("need at least one host")
        self.clock = VirtualClock()
        self.telemetry = telemetry or NULL_TELEMETRY
        #: the cluster-wide peer-selection strategy both daemons consult;
        #: defaults to the historical full mesh
        self.topology = make_topology(topology)
        #: shared ResolverRegistry for automatic conflict resolution (every
        #: host must run the same registry, or resolutions could diverge)
        self.resolvers = resolvers
        # all span timestamps come from the shared virtual clock
        # so a replayed experiment yields byte-identical telemetry
        self.telemetry.bind_clock(self.clock.now)
        self.network = Network(clock=self.clock, telemetry=self.telemetry)
        self.loop = EventLoop(self.clock)
        self.host_config = host_config or HostConfig()
        self.daemon_config = daemon_config or DaemonConfig()
        self.hosts: dict[str, FicusHost] = {}
        for index, name in enumerate(host_names, start=1):
            self.network.add_host(name)
            self.hosts[name] = FicusHost(
                name,
                self.network,
                self.clock,
                allocator_id=index,
                config=self.host_config,
                telemetry=self.telemetry,
            )

        # the root volume, replicated where asked (default: everywhere);
        # its locations are the one thing every host is seeded with
        placements = root_volume_hosts or host_names
        first = self.hosts[host_names[0]]
        self.root_volume: VolumeId = first.allocator.new_volume_id()
        self.root_locations = self._place_replicas(self.root_volume, [], placements)

        for name, host in self.hosts.items():
            host.graft_table.learn(self.root_volume, self.root_locations)
            host.logical = FicusLogicalLayer(
                self.network,
                name,
                host.fabric,
                host.graft_table,
                self.root_volume,
                telemetry=self.telemetry,
            )
            self._wire_daemons(host)

    # -- volume management -----------------------------------------------

    def _place_replicas(
        self, volume: VolumeId, known: list[ReplicaLocation], placements: list[str]
    ) -> list[ReplicaLocation]:
        """Create replicas of ``volume`` on ``placements``, numbered after
        the ``known`` ones; returns the whole set by replica id.  Every
        host storing a replica learns the whole set as the replicas are
        placed."""
        first = max((loc.volrep.replica_id for loc in known), default=0) + 1
        placed = [
            ReplicaLocation(VolumeReplicaId(volume, replica_id), host_name)
            for replica_id, host_name in enumerate(placements, start=first)
        ]
        for location in placed:
            self.hosts[location.host].physical.create_volume_replica(location.volrep)
        locations = sorted([*known, *placed], key=lambda loc: loc.volrep.replica_id)
        for location in locations:
            self.hosts[location.host].graft_table.learn(volume, locations)
        return locations

    def create_volume(self, placements: list[str]) -> tuple[VolumeId, list[ReplicaLocation]]:
        """Mint a new volume and create its replicas on ``placements``.

        Each replica host's graft table learns the replica set as its
        replica is placed, so its reads, notifications and reconciliation
        see the whole set before the volume is grafted anywhere.  A host
        that stores no replica discovers the volume through a graft point,
        the paper's path.
        """
        minting_host = self.hosts[placements[0]]
        volume = minting_host.allocator.new_volume_id()
        return volume, self._place_replicas(volume, [], placements)

    def place_volumes(
        self, count: int, replicas_per_volume: int = 2
    ) -> list[tuple[VolumeId, list[ReplicaLocation]]]:
        """Mint ``count`` volumes, sharding their replicas by stable hash.

        Replica sets are placed consistent-hash style: volume *i*'s first
        replica lands on the host at ``crc32("shard:i") mod n`` in sorted
        host order and the remaining replicas on that host's successors,
        so a 500-host cluster ends up with every host storing roughly
        ``count * replicas / n`` replicas instead of one root volume
        replicated everywhere.  The mapping is a pure function of the
        volume index and the sorted host list — no coordination, stable
        across runs.
        """
        if count < 0:
            raise InvalidArgument("count must be >= 0")
        names = sorted(self.hosts)
        if not 1 <= replicas_per_volume <= len(names):
            raise InvalidArgument(
                f"replicas_per_volume must be in [1, {len(names)}], "
                f"got {replicas_per_volume}"
            )
        placed = []
        for index in range(count):
            start = zlib.crc32(f"shard:{index}".encode()) % len(names)
            placements = [
                names[(start + offset) % len(names)]
                for offset in range(replicas_per_volume)
            ]
            placed.append(self.create_volume(placements))
        return placed

    # -- daemons ------------------------------------------------------------

    def _wire_daemons(self, host: FicusHost) -> None:
        cfg = self.daemon_config
        host.propagation_daemon = PropagationDaemon(
            host.physical,
            host.fabric,
            host.logical,
            self.topology,
            min_age=cfg.propagation_min_age,
        )
        host.recon_daemon = ReconciliationDaemon(
            host.physical,
            host.fabric,
            host.conflict_log,
            host.logical,
            self.topology,
            resolvers=self.resolvers,
        )
        host.graft_prune_daemon = GraftPruneDaemon(
            host.logical, idle_timeout=cfg.graft_idle_timeout
        )
        host.health_plane.topology = self.topology.name
        if cfg.propagation_period is not None:
            self.loop.schedule_every(cfg.propagation_period, host.propagation_daemon.tick)
        if cfg.recon_period is not None:
            self.loop.schedule_every(cfg.recon_period, host.recon_daemon.tick)
        if cfg.graft_prune_period is not None:
            self.loop.schedule_every(cfg.graft_prune_period, host.graft_prune_daemon.tick)

    def enable_resolvers(self, registry=None) -> None:
        """Turn on automatic conflict resolution cluster-wide.

        Every host gets the *same* registry — resolver determinism assumes
        the two ends of a conflict select identical merge functions.
        """
        if registry is None:
            from repro.resolvers import default_registry

            registry = default_registry()
        self.resolvers = registry
        for host in self.hosts.values():
            host.recon_daemon.resolvers = registry

    # -- dynamic replica placement -----------------------------------------------

    def add_root_replica(self, host_name: str) -> ReplicaLocation:
        """Place an additional replica of the root volume on ``host_name``.

        Paper Section 3.1: "A client may change the location and quantity
        of file replicas whenever a file replica is available."  The new
        replica starts empty and catches up through normal
        reconciliation; every host learns the new location, as every host
        knows the root volume's.
        """
        location = self.add_volume_replica(self.root_volume, self.root_locations, host_name)
        self.root_locations = [*self.root_locations, location]
        for other in self.hosts.values():
            other.graft_table.learn(self.root_volume, [location])
        return location

    def add_volume_replica(
        self, volume: VolumeId, locations: list[ReplicaLocation], host_name: str
    ) -> ReplicaLocation:
        """Place an additional replica of ``volume`` on ``host_name``.

        The caller supplies the currently known locations (e.g. from the
        graft point); every replica host, the new one included, learns the
        new set.  Other hosts learn it from the graft points naming the
        volume, where the new location must still be registered
        (``add_graft_location``).  The new replica starts empty and is
        seeded by one reconciliation pass against a peer.
        """
        host = self.hosts[host_name]
        updated = self._place_replicas(volume, locations, [host_name])
        location = updated[-1]  # numbered after every known replica
        peers = host.graft_table.peers(location.volrep)
        if peers:
            host.recon_daemon.reconcile_with(location.volrep, peers[0])
        return location

    # -- convenience -----------------------------------------------------------

    def host(self, name: str) -> FicusHost:
        return self.hosts[name]

    def run_for(self, seconds: float) -> int:
        """Advance virtual time, firing daemons as they come due."""
        return self.loop.run_for(seconds)

    def partition(self, groups: list[set[str]]) -> None:
        self.network.partition(groups)

    def heal(self) -> None:
        self.network.heal()

    def reconcile_everything(self, rounds: int | None = None) -> None:
        """Force reconciliation to convergence (for tests and examples).

        Runs topology rounds: each round gives every host's daemon enough
        ticks for one sweep of its strategy — under the default full mesh
        that is one tick per peer (the historical O(hosts x peers)
        behavior, byte-identical), under gossip a single tick whose
        fanout the strategy chooses.  The default round count is the
        topology's convergence bound: O(n) full mesh, O(log n) gossip.
        """
        topology = self.topology
        if rounds is None:
            rounds = topology.default_rounds(len(self.hosts))
        for _ in range(rounds):
            for host in self.hosts.values():
                peer_count = host.recon_daemon.max_peer_count()
                if not peer_count:
                    # a peerless daemon's tick is a guaranteed no-op; in a
                    # large cluster of single-replica hosts this keeps each
                    # convergence round O(1) per idle host
                    continue
                for _ in range(topology.sweep_ticks(peer_count)):
                    host.recon_daemon.tick()

    def total_conflicts(self) -> int:
        return sum(len(h.conflict_log.unresolved()) for h in self.hosts.values())

    def provenance_dag(self) -> VersionDAG:
        """The cluster-wide version DAG composed from every host's ledger."""
        return VersionDAG.compose(
            [self.host(name).health_plane.provenance for name in sorted(self.hosts)]
        )
