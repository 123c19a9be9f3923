"""Replica access fabric: reach any physical layer, local or remote.

The logical layer must not care where a physical layer runs: "the Ficus
replication service layers are able to use NFS for transparent access to
remote layers" and "the NFS layer is omitted when both layers are
co-resident" (paper Figure 1 and Section 2.2).  The fabric implements
exactly that choice: a local physical layer is called directly; a remote
one is reached through a cached NFS client mount.
"""

from __future__ import annotations

from repro.errors import HostUnreachable
from repro.net import Network
from repro.nfs import NfsClientLayer
from repro.physical import FicusPhysicalLayer
from repro.telemetry import NULL_TELEMETRY, HealthPlane, Telemetry
from repro.util import FicusFileHandle, VolumeReplicaId
from repro.vnode.interface import Vnode

#: RPC service name under which every host exports its physical layer.
PHYSICAL_SERVICE = "ficus-physical"


class Fabric:
    """Resolves (host, volume replica) to a physical-layer vnode."""

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

    def physical_root(self, host: str) -> Vnode:
        """The physical layer's root vnode at ``host`` (NFS if remote)."""
        if self.is_local(host):
            return self.local_physical.root()
        if not self.network.reachable(self.host_addr, host):
            raise HostUnreachable(f"{self.host_addr} -> {host}")
        return self.nfs_mount(host).root()

    def volume_root(self, host: str, volrep: VolumeReplicaId) -> Vnode:
        """The root directory vnode of one volume replica."""
        return self.physical_root(host).lookup(volrep.to_hex())

    def dir_by_handle(self, host: str, volrep: VolumeReplicaId, fh: FicusFileHandle) -> Vnode:
        """Any directory of one volume replica, addressed by handle.

        Retries once on a stale NFS handle: a server reboot invalidates
        cached handles, the first failure scrubs the client caches, and a
        fresh root + lookup chain recovers.
        """
        from repro.errors import StaleFileHandle

        try:
            return self.volume_root(host, volrep).lookup_fh(fh)
        except StaleFileHandle:
            return self.volume_root(host, volrep).lookup_fh(fh)
