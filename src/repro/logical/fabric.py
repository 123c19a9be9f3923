"""Replica access fabric: reach any physical layer, local or remote.

The logical layer must not care where a physical layer runs: "the Ficus
replication service layers are able to use NFS for transparent access to
remote layers" and "the NFS layer is omitted when both layers are
co-resident" (paper Figure 1 and Section 2.2).  The fabric implements
exactly that choice: a local physical layer is called directly; a remote
one is reached through a cached NFS client mount.

Like an NFS client that gets its root handle at mount time, the fabric
fetches each volume replica's root once and keeps it.  It is the one
place that reaches a replica: every caller runs its work through
:meth:`Fabric.at_replica`.  A kept root never goes stale: its handle
names the volume replica, which outlives a reboot of the host storing it.

A kept root is a graft (paper Section 4.4): :meth:`Fabric.prune` drops
the roots nobody asked for lately, and the next access grafts one again.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.errors import HostUnreachable, StaleFileHandle
from repro.net import Network
from repro.nfs import NfsClientLayer
from repro.physical import FicusPhysicalLayer
from repro.telemetry import NULL_TELEMETRY, HealthPlane, Telemetry
from repro.util import FicusFileHandle, VolumeReplicaId
from repro.vnode.interface import Vnode

#: RPC service name under which every host exports its physical layer.
PHYSICAL_SERVICE = "ficus-physical"

T = TypeVar("T")


class Fabric:
    """Resolves (host, volume replica) to a physical-layer vnode.

    A kept root counts as used each time :meth:`volume_root` is asked for
    it.  Warm replica selections reach a replica through the directory
    vnodes the attribute cache holds, not through its root, so they leave
    no use behind and a prune never disturbs them.
    """

    def __init__(
        self,
        network: Network,
        host_addr: str,
        local_physical: FicusPhysicalLayer,
        telemetry: Telemetry | None = None,
    ):
        self.network = network
        self.host_addr = host_addr
        self.local_physical = local_physical
        self.telemetry = telemetry or NULL_TELEMETRY
        #: this host's HealthPlane — the local physical layer's — handed
        #: to the logical layer and to every NFS client mount
        self.health: HealthPlane = local_physical.health
        self._mounts: dict[str, NfsClientLayer] = {}
        #: the kept root directory vnode of each volume replica reached:
        #: this host's grafts
        self._roots: dict[tuple[str, VolumeReplicaId], Vnode] = {}
        #: the virtual time each kept root was last asked for
        self._used: dict[tuple[str, VolumeReplicaId], float] = {}
        self.grafts_performed = 0
        self.grafts_pruned = 0
        self.telemetry.metrics.add_source(
            "graft",
            lambda: {"performed": self.grafts_performed, "pruned": self.grafts_pruned},
        )

    def is_local(self, host: str) -> bool:
        return host == self.host_addr

    def nfs_mount(self, host: str) -> NfsClientLayer:
        """The cached NFS client mount of ``host``'s physical layer."""
        mount = self._mounts.get(host)
        if mount is None:
            mount = NfsClientLayer(
                self.network,
                self.host_addr,
                host,
                service=PHYSICAL_SERVICE,
                telemetry=self.telemetry,
                health=self.health,
            )
            self._mounts[host] = mount
        return mount

    def volume_root(self, host: str, volrep: VolumeReplicaId) -> Vnode:
        """The root directory vnode of one volume replica, fetched on first
        use and kept until :meth:`prune` drops it.  A partitioned peer
        raises ``HostUnreachable`` here, before any RPC, kept root or not."""
        local = self.is_local(host)
        if not local and not self.network.reachable(self.host_addr, host):
            raise HostUnreachable(f"{self.host_addr} -> {host}")
        key = (host, volrep)
        root = self._roots.get(key)
        if root is None:
            physical_root = self.local_physical.root() if local else self.nfs_mount(host).root()
            root = self._roots[key] = physical_root.lookup(volrep.to_hex())
            self.grafts_performed += 1
        self._used[key] = self.network.clock.now()
        return root

    def prune(self, idle_timeout: float) -> int:
        """Quietly drop the kept roots unused for ``idle_timeout`` seconds;
        returns how many went."""
        now = self.network.clock.now()
        idle = [key for key, used in self._used.items() if now - used >= idle_timeout]
        for key in idle:
            del self._roots[key], self._used[key]
        self.grafts_pruned += len(idle)
        return len(idle)

    def at_replica(self, host: str, volrep: VolumeReplicaId, call: Callable[[Vnode], T]) -> T:
        """``call(root)`` on the volume replica's root directory vnode.

        A ``call`` can still meet ``StaleFileHandle`` through a lookup the
        NFS client cached before the object it named was removed at the
        server.  The client has scrubbed that lookup by the time the error
        surfaces, so ``call`` runs once more and looks the object up
        afresh.  A ``call`` that fails stale must have changed nothing, so
        that running it again is safe.
        """
        root = self.volume_root(host, volrep)
        try:
            return call(root)
        except StaleFileHandle:
            return call(root)

    def dir_by_handle(self, host: str, volrep: VolumeReplicaId, fh: FicusFileHandle) -> Vnode:
        """Any directory of one volume replica, addressed by handle."""
        return self.at_replica(host, volrep, lambda root: root.lookup_fh(fh))
