"""Per-host cache of replica attribute batches (the version-vector cache).

Replica selection is the logical layer's hot path: every open, read, and
directory listing must compare the version vectors of all reachable
replicas ("select the most recent copy available", paper Section 2.5).
Probing each replica for each decision costs O(replicas) RPCs per
operation.  This cache remembers, per directory replica, the last
:class:`~repro.physical.wire.AttrBatch` fetched from it — the directory's
own auxiliary attributes plus those of every stored child — together with
the resolved directory vnode, so a warm selection needs no RPCs at all.
Two more things ride each entry: the replica's decoded name -> entry view,
valid exactly as long as the batch beside it, and the file vnodes resolved
through the directory vnode, valid exactly as long as it is.

Coherence is notification-driven, matching the paper's update model:

* the update-notification multicast datagram ("a new version of a file
  may be obtained...", Section 2.5) invalidates the affected directory's
  cached batches on every host that receives it;
* the updating host itself invalidates (and, for its local replica,
  refreshes) in :meth:`~repro.logical.layer.FicusLogicalLayer.notify_update`;
* because datagrams are best-effort and partitions eat them, every batch
  also carries a TTL — a lost invalidation delays freshness by at most
  ``ttl`` seconds of virtual time rather than forever.

The cached *vnode* deliberately survives invalidation: resolution
(volume root + handle lookup) is independent of attribute freshness, and
a stale NFS handle announces itself with ESTALE on use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.physical.wire import AttrBatch, DirectoryEntry
from repro.util import FicusFileHandle, VirtualClock, VolumeId, VolumeReplicaId
from repro.vnode.interface import Vnode

#: Default time-to-live for a cached batch, in seconds of virtual time.
#: Bounds the staleness window when an invalidation datagram is lost.
DEFAULT_TTL = 5.0


@dataclass
class CacheEntry:
    """Cached state for one directory replica."""

    dir_vnode: Vnode
    batch: AttrBatch | None = None
    fetched_at: float = 0.0
    #: the replica's ``effective_entries`` view, decoded once per batch: it
    #: is only ever read beside a live ``batch`` and is dropped with it
    names: dict[str, DirectoryEntry] | None = None
    #: file vnodes resolved through ``dir_vnode``, by logical handle; like
    #: it they survive attribute changes and die on ESTALE
    children: dict[FicusFileHandle, Vnode] = field(default_factory=dict)

    def drop_batch(self) -> None:
        self.batch = self.names = None


@dataclass
class CacheStats:
    """Hit/miss accounting (telemetry views it as ``logical.attr_cache.*``)."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    invalidations: int = 0
    refreshes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "refreshes": self.refreshes,
        }


class VersionVectorCache:
    """Maps (volume replica, directory handle) to its last attribute batch.

    Keyed by volume and *logical* (replica-independent) directory handle,
    then by replica: one directory cached through three replicas occupies
    three entries that age and invalidate separately, and a notification
    naming the directory finds all of them without scanning the cache.
    """

    def __init__(self, clock: VirtualClock, ttl: float = DEFAULT_TTL):
        self.clock = clock
        self.ttl = ttl
        self.stats = CacheStats()
        self._dirs: dict[
            tuple[VolumeId, FicusFileHandle], dict[VolumeReplicaId, CacheEntry]
        ] = {}

    def __len__(self) -> int:
        return sum(len(replicas) for replicas in self._dirs.values())

    def _replicas(
        self, volume: VolumeId, dir_fh: FicusFileHandle
    ) -> dict[VolumeReplicaId, CacheEntry]:
        return self._dirs.get((volume, dir_fh.logical)) or {}

    # -- reads --------------------------------------------------------------

    def lookup(self, volrep: VolumeReplicaId, dir_fh: FicusFileHandle) -> CacheEntry | None:
        """The fresh cache entry for one directory replica, if any.

        An entry whose batch has expired is returned with ``batch=None``
        (the resolved vnode is still good); a wholly absent entry is a
        miss.  Stats are bumped accordingly.
        """
        entry = self._replicas(volrep.volume, dir_fh).get(volrep)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.batch is not None and self.clock.now() - entry.fetched_at > self.ttl:
            entry.drop_batch()
            self.stats.expirations += 1
        if entry.batch is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    # -- writes -------------------------------------------------------------

    def store(
        self,
        volrep: VolumeReplicaId,
        dir_fh: FicusFileHandle,
        dir_vnode: Vnode,
        batch: AttrBatch,
    ) -> CacheEntry:
        """Record a freshly fetched batch (and the vnode it came through).

        The entry is updated in place, so an open session that pinned it
        keeps sharing its handles; the name view belonged to the old batch
        and goes, and child vnodes the new batch no longer lists are pruned.
        """
        replicas = self._dirs.setdefault((volrep.volume, dir_fh.logical), {})
        entry = replicas.get(volrep)
        if entry is None:
            entry = replicas[volrep] = CacheEntry(dir_vnode)
        entry.dir_vnode, entry.batch, entry.names = dir_vnode, batch, None
        entry.fetched_at = self.clock.now()
        for fh in entry.children.keys() - batch.children.keys():
            del entry.children[fh]
        return entry

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, volrep: VolumeReplicaId, dir_fh: FicusFileHandle) -> None:
        """Forget everything cached for one directory replica."""
        if self._replicas(volrep.volume, dir_fh).pop(volrep, None) is not None:
            self.stats.invalidations += 1

    def invalidate_dir(self, volume: VolumeId, dir_fh: FicusFileHandle) -> int:
        """Drop the cached batch of *every* replica of one directory.

        Used on update notification: the datagram names the acting
        replica, but any cached view of the directory may now be
        dominated, so all of them must re-fetch.  The resolved vnodes are
        kept — handles stay valid across attribute changes.
        """
        dropped = 0
        for entry in self._replicas(volume, dir_fh).values():
            if entry.batch is not None:
                entry.drop_batch()
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Forget everything (host restart, volume ungraft)."""
        self._dirs.clear()
