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
valid as long as the directory's entries are, and the file vnodes resolved
through the directory vnode, valid exactly as long as it is.  Beside a
directory's entries sits each replica selection made from their batches
(:meth:`VersionVectorCache.winner`), kept under a stamp of what else
decides the candidates — the network's reachability epoch, the host's
peer-health epoch and the graft table's candidate tuple — and served
while that stamp holds and none of its batches has outlived the TTL, so a
warm selection is one memo probe: it enumerates no replica and compares
no vectors.

Coherence is notification-driven, matching the paper's update model:

* the update-notification multicast datagram ("a new version of a file
  may be obtained...", Section 2.5) invalidates the affected directory's
  cached batches on every host that receives it, and so does a sync
  install on the host that made it;
* the updating host itself corrects only what its update changed, by one
  rule (:meth:`VersionVectorCache.correct`): the acting replica's held
  batch takes the file's new record — the one ``session_close`` answered
  for an update session, else one ``getattrs_batch([fh])`` re-read when
  the acting replica is local — and whether the update changed the
  namespace is read from the directory's record.  A remote acting
  replica's batch outside a session is dropped, and so is the batch of
  each replica whose host the notification did not reach (all from
  :meth:`~repro.logical.layer.FicusLogicalLayer.notify_update`).  Nothing
  held, nothing is fetched: the next selection fetches the batch;
* because datagrams are best-effort and partitions eat them, every batch
  also carries a TTL — a lost invalidation delays freshness by at most
  ``ttl`` seconds of virtual time rather than forever.

The cached *vnode* deliberately survives invalidation: resolution
(volume root + handle lookup) is independent of attribute freshness, and
a stale NFS handle announces itself with ESTALE on use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.physical import decode_directory, effective_entries
from repro.physical.wire import AttrBatch, AuxAttributes, DirectoryEntry
from repro.util import FicusFileHandle, VirtualClock, VolumeId, VolumeReplicaId
from repro.vnode.interface import ROOT_CTX, OpContext, Vnode, read_whole

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
    #: (a corrected batch keeps it: as is for a file update, which changed
    #: no entry, and decoded again for a namespace update)
    names: dict[str, DirectoryEntry] | None = None
    #: file vnodes resolved through ``dir_vnode``, by handle; like
    #: it they survive attribute changes and die on ESTALE
    children: dict[FicusFileHandle, Vnode] = field(default_factory=dict)

    def drop_batch(self) -> None:
        self.batch = self.names = None

    def read_names(self, ctx: OpContext = ROOT_CTX) -> dict[str, DirectoryEntry]:
        """Decode the replica's live entries afresh and keep them as the view."""
        self.names = effective_entries(decode_directory(read_whole(self.dir_vnode, ctx=ctx)))
        return self.names


@dataclass
class DirRecord:
    """Everything cached for one directory: an entry per replica, and the
    selections made from those entries' batches."""

    replicas: dict[VolumeReplicaId, CacheEntry] = field(default_factory=dict)
    #: ``most_recent``'s winner per selection — the directory's own under
    #: ``None``, each file's under its handle — as ``(stamp, oldest,
    #: batches, winner)``: the stamp it was made under, the oldest
    #: ``fetched_at`` and the number of the batches it was chosen from;
    #: dropped whenever a batch changes (a corrected file record that left
    #: the directory's record as it was drops only that file's)
    winners: dict[FicusFileHandle | None, tuple[tuple, float, int, Any]] = field(
        default_factory=dict
    )


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

    Keyed by volume and directory handle (the same on every replica),
    then by replica: one directory cached through three replicas occupies
    three entries that age and invalidate separately, and a notification
    naming the directory finds all of them without scanning the cache.
    """

    def __init__(self, clock: VirtualClock, ttl: float = DEFAULT_TTL):
        self.clock = clock
        self.ttl = ttl
        self.stats = CacheStats()
        self._dirs: dict[tuple[VolumeId, FicusFileHandle], DirRecord] = {}

    def __len__(self) -> int:
        return sum(len(record.replicas) for record in self._dirs.values())

    def _record(self, volume: VolumeId, dir_fh: FicusFileHandle) -> DirRecord | None:
        return self._dirs.get((volume, dir_fh))

    # -- reads --------------------------------------------------------------

    def lookup(self, volrep: VolumeReplicaId, dir_fh: FicusFileHandle) -> CacheEntry | None:
        """The fresh cache entry for one directory replica, if any.

        An entry whose batch has expired is returned with ``batch=None``
        (the resolved vnode is still good); a wholly absent entry is a
        miss.  Stats are bumped accordingly.
        """
        record = self._record(volrep.volume, dir_fh)
        entry = None if record is None else record.replicas.get(volrep)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.batch is not None and self.clock.now() - entry.fetched_at > self.ttl:
            entry.drop_batch()
            record.winners.clear()
            self.stats.expirations += 1
        if entry.batch is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def winner(
        self, volume: VolumeId, dir_fh: FicusFileHandle, key: FicusFileHandle | None, stamp: tuple
    ) -> Any:
        """The remembered winner of a selection in a directory, or ``None``.

        ``key`` is ``None`` for the directory's own replica selection and a
        file's handle for that file's.  A winner is served while ``stamp``
        (what decides the candidates: reachability, peer health, the known
        replicas) equals the one it was made under and none of the batches
        it was chosen from has outlived the TTL — exactly while a fresh
        selection would find the same candidates answering from the same
        live batches.  Each of those batches counts as the hit its lookup
        would have been.
        """
        record = self._dirs.get((volume, dir_fh))
        memo = None if record is None else record.winners.get(key)
        if memo is None or memo[0] != stamp or self.clock.now() - memo[1] > self.ttl:
            return None
        self.stats.hits += memo[2]
        return memo[3]

    def remember(
        self,
        volume: VolumeId,
        dir_fh: FicusFileHandle,
        key: FicusFileHandle | None,
        stamp: tuple,
        entries: list[CacheEntry],
        winner: Any,
    ) -> None:
        """Keep ``winner``, chosen under ``stamp`` from the batches of
        ``entries``, for :meth:`winner` to serve."""
        oldest = min(entry.fetched_at for entry in entries)
        self._dirs[(volume, dir_fh)].winners[key] = (stamp, oldest, len(entries), winner)

    def held_children(
        self,
        volume: VolumeId,
        dir_fh: FicusFileHandle,
        fh: FicusFileHandle | None = None,
        volrep: VolumeReplicaId | None = None,
    ) -> list[Vnode]:
        """The vnodes of file ``fh`` (``None``: of every file) held through
        replica ``volrep`` (``None``: any replica) of a directory."""
        record = self._record(volume, dir_fh)
        if record is None:
            return []
        return [
            child
            for replica, entry in record.replicas.items()
            if volrep is None or replica == volrep
            for key, child in entry.children.items()
            if fh is None or key == fh
        ]

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
        record = self._dirs.setdefault((volrep.volume, dir_fh), DirRecord())
        record.winners.clear()
        entry = record.replicas.get(volrep)
        if entry is None:
            entry = record.replicas[volrep] = CacheEntry(dir_vnode)
        entry.dir_vnode, entry.batch, entry.names = dir_vnode, batch, None
        entry.fetched_at = self.clock.now()
        for fh in entry.children.keys() - batch.children.keys():
            del entry.children[fh]
        return entry

    def held(self, volrep: VolumeReplicaId, dir_fh: FicusFileHandle) -> CacheEntry | None:
        """One directory replica's entry while it holds a live batch."""
        record = self._record(volrep.volume, dir_fh)
        entry = None if record is None else record.replicas.get(volrep)
        if entry is None or entry.batch is None or self.clock.now() - entry.fetched_at > self.ttl:
            return None
        return entry

    def correct(
        self,
        volrep: VolumeReplicaId,
        dir_fh: FicusFileHandle,
        fh: FicusFileHandle,
        aux: AuxAttributes | None,
        dir_aux: AuxAttributes | None = None,
    ) -> None:
        """This host's update of ``fh`` at replica ``volrep`` of a directory
        left the file's record ``aux`` (``None``: the name is gone) and the
        directory's record ``dir_aux`` (``None``: the one held): correct
        that replica's held batch, local or remote, and only that one.

        The update changed this replica alone, so every other replica's
        batch still describes its replica as well as it did before.  The
        held ``fetched_at`` stays, since the siblings not re-read are no
        fresher, and the file leaves ``writing``.  While the directory's
        record is the held one, its entries are too: the held ``dir_aux``,
        the name view and the other child vnodes stay, and only the file's
        selection goes.  A changed record means a namespace update: every
        selection in the directory goes, child vnodes the batch no longer
        lists are pruned, and a held name view is decoded again from the
        replica, so a view that was warm stays warm.  With no live batch
        held there is nothing to correct, and the next selection fetches one.
        """
        entry = self.held(volrep, dir_fh)
        if entry is None:
            return
        held = entry.batch
        children = dict(held.children)
        if aux is None:
            children.pop(fh, None)
            entry.children.pop(fh, None)
        else:
            children[fh] = aux
        winners = self._dirs[(volrep.volume, dir_fh)].winners
        self.stats.refreshes += 1
        if dir_aux is None or dir_aux == held.dir_aux:
            entry.batch = AttrBatch(held.dir_aux, children, held.writing - {fh})
            winners.pop(fh, None)
            return
        entry.batch = AttrBatch(dir_aux, children, held.writing - {fh})
        winners.clear()
        for gone in entry.children.keys() - children.keys():
            del entry.children[gone]
        if entry.names is not None:
            entry.read_names()

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, volrep: VolumeReplicaId, dir_fh: FicusFileHandle) -> None:
        """Forget everything cached for one directory replica."""
        record = self._record(volrep.volume, dir_fh)
        if record is not None and record.replicas.pop(volrep, None) is not None:
            record.winners.clear()
            self.stats.invalidations += 1

    def invalidate_batch(self, volrep: VolumeReplicaId, dir_fh: FicusFileHandle) -> None:
        """Drop the cached batch of one directory replica.

        Used by the updating host: its update changed the acting replica
        alone.  The resolved vnodes are kept, as by :meth:`invalidate_dir`.
        """
        record = self._record(volrep.volume, dir_fh)
        if record is None:
            return
        record.winners.clear()
        entry = record.replicas.get(volrep)
        if entry is not None and entry.batch is not None:
            entry.drop_batch()
            self.stats.invalidations += 1

    def invalidate_dir(self, volume: VolumeId, dir_fh: FicusFileHandle) -> int:
        """Drop the cached batch of *every* replica of one directory.

        Used on a heard update notification and on a sync install: the
        datagram names one replica, but any cached view of the directory
        may now be dominated, so all of them must re-fetch.  The resolved
        vnodes are kept — handles stay valid across attribute changes.
        """
        record = self._record(volume, dir_fh)
        if record is None:
            return 0
        record.winners.clear()
        dropped = 0
        for entry in record.replicas.values():
            if entry.batch is not None:
                entry.drop_batch()
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Forget everything (host restart, volume ungraft)."""
        self._dirs.clear()
