"""The Ficus logical layer.

"The Ficus logical layer presents its clients ... with the abstraction
that each file has only a single copy, although it may actually have many
physical replicas.  The logical layer performs concurrency control on
logical files, and implements a replica selection algorithm in accordance
with the consistency policy in effect.  The default policy of one-copy
availability is to select the most recent copy available.  The logical
layer also oversees update propagation notification..." (Section 2.5).

One instance runs per host.  It never touches storage itself: every
access goes through a physical layer, local or across NFS, via the
:class:`~repro.logical.fabric.Fabric`.

Replica selection is driven by the structured attribute plane: each
reachable replica serves one :class:`~repro.physical.wire.AttrBatch`
(directory version vector plus every stored child's) per ``getattrs_batch``
call, and the per-host :class:`~repro.logical.attr_cache.VersionVectorCache`
keeps those batches warm between update notifications, so the hot read
path needs at most one batched RPC per replica when cold and none at all
when warm.  A batch arrives as the object the replica built for this
reply, local or across NFS, and is only read here.

An update notification is sent, and heard, as one frozen
:class:`~repro.physical.UpdateNotification`.  An open pins one replica per
file and host and counts the logical opens that share it, so the physical
update session is bracketed once and the last close ends it — and sends
the session's one notification.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    AllReplicasUnavailable,
    FileNotFound,
    HostUnreachable,
    StaleFileHandle,
)
from repro.logical.attr_cache import CacheEntry, VersionVectorCache
from repro.logical.fabric import Fabric
from repro.logical.locks import LockManager
from repro.logical.vnodes import LogicalDirVnode
from repro.net import Network
from repro.physical import DirectoryEntry, EntryType, UpdateNotification, volume_root_handle
from repro.physical.wire import AttrBatch, AuxAttributes
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util import FicusFileHandle, VolumeId
from repro.vnode.interface import ROOT_CTX, FileSystemLayer, OpContext, Vnode
from repro.volume import GraftTable, ReplicaLocation, location_entry_name
from repro.vv import VersionVector

@dataclass
class ReplicaView:
    """One reachable replica of a directory (or of a file through it)."""

    location: ReplicaLocation
    #: the replica's cache entry: the handles this view reaches it through
    entry: CacheEntry

    @property
    def dir_vnode(self) -> Vnode:
        return self.entry.dir_vnode

    def child(self, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX) -> Vnode:
        """The file's vnode at this replica, resolved once per directory handle."""
        child = None if ctx.no_cache else self.entry.children.get(fh)
        if child is None:
            child = self.entry.children[fh] = self.dir_vnode.lookup_fh(fh, ctx)
        return child


@dataclass
class FileReplicaView(ReplicaView):
    """One reachable, stored replica of a regular file."""

    vv: VersionVector


@dataclass
class SessionPin:
    """One file's update session on this host: the replica taking it, how
    many logical opens share it (the physical session is bracketed once
    per host and file), whether an update carried the session to the
    replica (so the close must end it there), and whether an update inside
    it went unannounced."""

    view: ReplicaView
    opens: int = 1
    session: bool = False
    updated: bool = False


def most_recent(versions: list[tuple[ReplicaView, VersionVector]]) -> ReplicaView:
    """The paper's default policy, "select the most recent copy available":
    an undominated version vector wins; concurrent maxima tie-break
    deterministically on total updates, then replica id."""
    maximal = [
        (view, vv)
        for view, vv in versions
        if not any(other.strictly_dominates(vv) for _, other in versions)
    ]
    return min(maximal, key=lambda c: (-c[1].total_updates, c[0].location.volrep.replica_id))[0]


class FicusLogicalLayer(FileSystemLayer):
    """Per-host logical layer: the single-copy abstraction."""

    layer_name = "ficus-logical"

    def __init__(
        self,
        network: Network,
        host_addr: str,
        fabric: Fabric,
        graft_table: GraftTable,
        root_volume: VolumeId,
        telemetry: Telemetry | None = None,
    ):
        self.network = network
        self.host_addr = host_addr
        self.fabric = fabric
        self.graft_table = graft_table
        self.root_volume = root_volume
        self.telemetry = telemetry or NULL_TELEMETRY
        self.locks = LockManager()
        #: open-session pins: logical fh -> the replica taking this session
        self._session_pins: dict[FicusFileHandle, SessionPin] = {}
        #: per-replica attribute batches, kept coherent by notification
        self.attr_cache = VersionVectorCache(network.clock)
        self.notifications_sent = 0
        #: this host's HealthPlane, shared with the fabric's mounts; its
        #: peer health is the daemons' too
        self.health = fabric.health
        #: replica probes deferred because the peer was degraded
        self.degraded_skips = 0
        # invalidation rides the same update-notification datagrams the
        # physical layer's new-version cache listens to
        if network.has_host(host_addr):
            network.register_datagram_handler(host_addr, self._on_datagram)
        metrics = self.telemetry.metrics
        metrics.add_source(
            "logical",
            lambda: {
                "notifications_sent": self.notifications_sent,
                "degraded_skips": self.degraded_skips,
            },
        )
        metrics.add_source("logical.attr_cache", self.attr_cache.stats)

    # -- locations ----------------------------------------------------------

    def locations_for(self, volume: VolumeId) -> tuple[ReplicaLocation, ...]:
        """The graft table's replicas of ``volume``, by replica id."""
        locations = self.graft_table.locations(volume)
        if locations:
            return locations
        raise AllReplicasUnavailable(f"no known replica locations for {volume}")

    # -- replica iteration ----------------------------------------------------

    def _replica_batch(
        self, location: ReplicaLocation, fh: FicusFileHandle, ctx: OpContext
    ) -> tuple[ReplicaView, AttrBatch] | None:
        """One replica's directory vnode and attribute batch, via the cache.

        Returns ``None`` when the replica is unreachable or does not store
        the directory.  A warm cache entry costs no RPCs; a cold one costs
        the resolution (cached separately from the batch) plus one batched
        attribute fetch.  ``ctx.no_cache`` forces the fetch but still
        refreshes the cache with the result.
        """
        if not self.network.reachable(self.host_addr, location.host):
            # a cached vnode must never serve for a partitioned-away host
            return None
        entry = None if ctx.no_cache else self.attr_cache.lookup(location.volrep, fh)
        if entry is not None and entry.batch is not None:
            return ReplicaView(location, entry), entry.batch
        dir_vnode = entry.dir_vnode if entry is not None else None
        try:
            if dir_vnode is None:
                dir_vnode = self.fabric.dir_by_handle(location.host, location.volrep, fh)
            batch = dir_vnode.getattrs_batch(None, ctx)
        except StaleFileHandle:
            # the held handle outlived the directory at that replica:
            # resolving it afresh could only say the same
            self.attr_cache.invalidate(location.volrep, fh)
            return None
        except (HostUnreachable, FileNotFound):
            return None
        entry = self.attr_cache.store(location.volrep, fh, dir_vnode, batch)
        return ReplicaView(location, entry), batch

    def replica_batches(
        self, volume: VolumeId, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX
    ):
        """Yield ``(ReplicaView, AttrBatch)`` per reachable directory replica.

        Replicas that are unreachable, or that do not (yet) store the
        directory, are silently skipped — partial operation is normal.

        Replicas are tried in the graft table's order, this host's first.
        Replicas on *degraded* peers (the host's PeerHealth says they keep
        failing while reachable) are deferred: they are probed only if no
        healthy replica answers, so a read never burns a full NFS
        retransmission cycle against a flapping host that a healthy copy
        could serve instead.
        """
        candidates = self.graft_table.candidates(volume)
        if not candidates:
            raise AllReplicasUnavailable(f"no known replica locations for {volume}")
        peer_health = self.health.peer_health
        deferred: list[ReplicaLocation] = []
        yielded = False
        for location in candidates:
            if location.host != self.host_addr and peer_health.is_degraded(location.host):
                deferred.append(location)
                continue
            state = self._replica_batch(location, fh, ctx)
            if state is not None:
                yielded = True
                yield state
        for location in deferred:
            if yielded:
                # a healthy replica answered: the degraded peer is spared
                self.degraded_skips += 1
                continue
            # availability first: when only degraded peers store the
            # volume, probe them anyway rather than failing the operation
            state = self._replica_batch(location, fh, ctx)
            if state is not None:
                yielded = True
                yield state

    def reachable_dirs(
        self, volume: VolumeId, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX
    ):
        """Yield a :class:`ReplicaView` per reachable replica of a directory."""
        for view, _batch in self.replica_batches(volume, fh, ctx):
            yield view

    def first_dir(
        self, volume: VolumeId, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX
    ) -> ReplicaView:
        """The first reachable replica of a directory (one-copy rule)."""
        for view in self.reachable_dirs(volume, fh, ctx):
            return view
        raise AllReplicasUnavailable(f"no reachable replica stores directory {fh}")

    def dir_view(
        self,
        volume: VolumeId,
        fh: FicusFileHandle,
        ctx: OpContext = ROOT_CTX,
        fresh: bool = False,
        name: str | None = None,
    ) -> dict[str, DirectoryEntry]:
        """The live entries of a directory by name, from the selected replica.

        This is the directory replica with a maximal version vector among
        those reachable — "select the most recent copy available" applies
        to directories too, so a host whose own replica has not yet
        reconciled still sees names created elsewhere.

        The decoded view is kept beside the batch selection just compared
        and is served again while that batch lives.  Reconciliation installs
        names without notifying, so a view that lacks ``name`` is read again
        before the caller reports it missing; ``fresh`` always reads.
        """

        def read() -> dict[str, DirectoryEntry]:
            entry = self.select_dir_replica(volume, fh, ctx).entry
            view = None if fresh or ctx.no_cache else entry.names
            if view is None or (name is not None and name not in view):
                view = entry.read_names(ctx)
            return view

        return self.retry_stale(volume, fh, read, ctx=ctx)

    def retry_stale(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        operation,
        fh: FicusFileHandle | None = None,
        ctx: OpContext = ROOT_CTX,
    ):
        """Run a replica operation issued on held handles, retrying once on ESTALE.

        A handle outlives a reboot of the server and an install there, but
        an object removed there (a file moved to another directory
        included) takes its handle with it, so a held handle can go stale
        mid-use; the NFS client scrubs its own caches before the error
        surfaces.  Here the directory's handles, child handles and views
        are dropped on every replica and the open session's pin (``fh``)
        is resolved afresh, so the retry's selection and lookups start from
        the volume root (real NFS clients do exactly this dance on ESTALE).
        """
        try:
            return operation()
        except StaleFileHandle:
            for location in self.locations_for(volume):
                self.attr_cache.invalidate(location.volrep, parent_fh)
            pin = self._session_pins.get(fh)
            if pin is not None:
                state = self._replica_batch(pin.view.location, parent_fh, ctx)
                if state is not None:
                    pin.view = state[0]
            return operation()

    def select_dir_replica(
        self, volume: VolumeId, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX
    ) -> ReplicaView:
        """Pick the most recent reachable directory replica.

        Version vectors come from the cached attribute batches: selecting
        among N replicas costs at most N batched fetches cold, none warm —
        never a per-replica probe on top of resolution.
        """
        stamp = self._stamp(volume)
        if stamp is not None and not ctx.no_cache:
            winner = self.attr_cache.winner(volume, fh, None, stamp)
            if winner is not None:
                return winner
        candidates = [(view, batch.dir_aux.vv) for view, batch in self.replica_batches(volume, fh, ctx)]
        if not candidates:
            raise AllReplicasUnavailable(f"no reachable replica stores directory {fh}")
        return self._most_recent(volume, fh, None, stamp, candidates)

    def _stamp(self, volume: VolumeId) -> tuple | None:
        """What decides a selection's candidates in ``volume`` besides their
        batches: who is reachable, which peers are degraded, and the known
        replicas (``learn`` builds a new tuple).  ``None`` when the volume
        has one known replica: its selection is no choice, and a memo would
        cost more than it saves."""
        candidates = self.graft_table.candidates(volume)
        if len(candidates) < 2:
            return None
        return (self.network.epoch, self.health.peer_health.epoch, candidates)

    def _most_recent(
        self,
        volume: VolumeId,
        dir_fh: FicusFileHandle,
        key: FicusFileHandle | None,
        stamp: tuple | None,
        candidates: list[tuple[ReplicaView, VersionVector]],
    ) -> ReplicaView:
        """:func:`most_recent`, remembered under ``stamp`` when every
        reachable known replica was a candidate.

        Only then would a fresh selection under the same stamp make no RPC
        and count no skip that this one did not: a replica that answered
        ``FileNotFound`` or ESTALE is asked again, and a degraded one is
        deferred again; a batch lacking the file is left out too.  An
        unreachable replica is no candidate at all while the stamp holds.
        A lone candidate wins outright and is not remembered.
        """
        if len(candidates) == 1:
            return candidates[0][0]  # the only reachable copy is the most recent available
        winner = most_recent(candidates)
        known = stamp[2]
        if len(candidates) == len(known) or len(candidates) == sum(
            self.network.reachable(self.host_addr, location.host) for location in known
        ):
            entries = [view.entry for view, _ in candidates]
            self.attr_cache.remember(volume, dir_fh, key, stamp, entries, winner)
        return winner

    # -- file replica selection -------------------------------------------------

    def file_replicas(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        ctx: OpContext = ROOT_CTX,
    ) -> list[FileReplicaView]:
        """Every reachable replica that stores the file, with its version.

        Served from the per-replica attribute batches, so enumerating N
        replicas never costs more than N batched fetches (and costs
        nothing warm) — not one RPC per file per replica.

        A *negative* answer — no reachable replica stores the file — is
        never believed from the cache alone: reconciliation and update
        propagation announce the entries they add only best effort, so a
        warm batch can lack a file its replica has since acquired.
        Before declaring the file unavailable, the batches are refetched
        once (``no_cache``) and the verdict re-derived.
        """
        out = self._file_replicas_once(volume, parent_fh, fh, ctx)
        if not out and not ctx.no_cache:
            out = self._file_replicas_once(volume, parent_fh, fh, ctx.with_no_cache())
        return out

    def _file_replicas_once(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        ctx: OpContext,
    ) -> list[FileReplicaView]:
        out = []
        for view, batch in self.replica_batches(volume, parent_fh, ctx):
            aux = batch.child(fh)
            if aux is None:
                continue
            out.append(FileReplicaView(view.location, view.entry, aux.vv))
        return out

    def select_read_replica(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        ctx: OpContext = ROOT_CTX,
    ) -> ReplicaView:
        """Pick the replica to read: "select the most recent copy available".

        Inside an open session the pinned replica serves while it is
        reachable, through the handles the open resolved.  Otherwise the
        replicas' version vectors are compared (:func:`most_recent`).
        """
        pin = self._session_pins.get(fh)
        if pin is not None and self.network.reachable(self.host_addr, pin.view.location.host):
            return pin.view
        stamp = self._stamp(volume)
        if stamp is not None and not ctx.no_cache:
            winner = self.attr_cache.winner(volume, parent_fh, fh, stamp)
            if winner is not None:
                return winner
        candidates = self.file_replicas(volume, parent_fh, fh, ctx)
        if not candidates:
            raise AllReplicasUnavailable(f"no reachable replica stores file {fh}")
        return self._most_recent(volume, parent_fh, fh, stamp, [(c, c.vv) for c in candidates])

    def partition_suspected(self, volume: VolumeId) -> bool:
        """Is some known replica host of ``volume`` currently unreachable?"""
        return any(
            location.host != self.host_addr
            and not self.network.reachable(self.host_addr, location.host)
            for location in self.graft_table.locations(volume)
        )

    def select_update_replica(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle | None = None,
        ctx: OpContext = ROOT_CTX,
    ) -> ReplicaView:
        """Pick the replica an update is applied to.

        For updates to an existing file, the replica must store the file
        (and a pinned open session wins).  For directory updates, any
        reachable replica storing the directory will do; local preferred.
        """
        if fh is not None:
            return self.select_read_replica(volume, parent_fh, fh, ctx)
        return self.first_dir(volume, parent_fh, ctx)

    # -- update notification ------------------------------------------------------

    def notify_update(
        self,
        volume: VolumeId,
        acting: ReplicaLocation,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        objkind: str = "file",
        origin: str = "update",
        record: AuxAttributes | None = None,
    ) -> int:
        """Send the asynchronous multicast update notification.

        "When a logical layer requests a physical layer to update a file
        or directory, an asynchronous multicast datagram is sent to all
        available replicas informing them that a new version of a file may
        be obtained from the replica receiving the update" (Section 2.5).

        It is sent once per update: once per namespace operation, once per
        write or ``setattr`` outside a session, and once for a
        whole update session, by its close (:meth:`close_file`).  Best
        effort, once: a lost datagram leaves the update to reconciliation.

        The same event drives attribute-cache coherence.  Here, for an
        update, only what the update changed is corrected: the acting
        replica's batch of the directory (and of a directory the update
        named), plus the batch of each replica whose host the datagram
        could not reach, since a cut-off replica may diverge unheard.
        Updates apply to one replica (Section 2.5), so every other
        replica's batch still describes a state this update did not touch;
        this host's staleness about them is bounded as any reader's is, by
        the TTL and by the notifications it hears.  The acting replica's
        held batch is corrected by one rule
        (:meth:`~repro.logical.attr_cache.VersionVectorCache.correct`),
        fed one of three ways: an update session's close passes ``record``,
        the file's record that ``session_close`` answered; any other local
        update re-reads the file's and the directory's records through the
        held entry's own directory vnode, which costs no RPC; and any other
        remote update drops the acting replica's batch.  Nothing held,
        nothing is read.

        Two events still drop every replica's batch.  A sync install does,
        here: the installer may hold a batch of the very replica it pulled
        from at an older vector, and the NFS client attributes of every
        file it holds through the directory go too.  A heard notification
        does, in
        :meth:`_on_datagram`: the replica it names may have taken updates
        the hearer never heard of.

        The datagram goes to every host storing the volume, including the
        acting host when the update was driven onto it remotely over NFS
        (its cache must learn its own replica moved), and including this
        host itself in that case (the self-delivery feeds the physical
        layer's new-version cache so the caller's own replicas pull the
        new version).
        """
        cache = self.attr_cache
        if origin == "sync":
            # a sync install names the directory itself (fh is parent_fh):
            # nothing held stays to be corrected, nor served from the NFS
            # client's attributes of its files
            cache.invalidate_dir(volume, fh)
            for child in cache.held_children(volume, fh):
                child.inactive()
        elif objkind == "dir":
            cache.invalidate_batch(acting.volrep, fh)
        if record is not None:
            cache.correct(acting.volrep, parent_fh, fh, record)
        elif self.fabric.is_local(acting.host):
            entry = cache.held(acting.volrep, parent_fh)
            if entry is not None:
                try:
                    reply = entry.dir_vnode.getattrs_batch([fh])
                except (FileNotFound, StaleFileHandle):
                    cache.invalidate_batch(acting.volrep, parent_fh)
                else:
                    cache.correct(acting.volrep, parent_fh, fh, reply.child(fh), reply.dir_aux)
        else:
            cache.invalidate_batch(acting.volrep, parent_fh)
        others = {loc.host for loc in self.locations_for(volume)}
        if self.fabric.is_local(acting.host):
            # this host applied the update itself: its physical layer needs
            # no pull-note and its cache was already adjusted above
            others.discard(self.host_addr)
        if not others:
            return 0
        # the notification carries the live trace context so the receiving
        # host's eventual daemon pull joins this update's trace tree
        note = UpdateNotification(
            acting.volrep,
            parent_fh,
            fh,
            acting.host,
            objkind,
            trace=self.telemetry.tracer.current_context(),
            origin=origin,
        )
        delivered = self.network.multicast(self.host_addr, sorted(others), note)
        self.notifications_sent += 1
        if origin == "update" and delivered < len(others):
            # a replica-storing host missed this update's notification;
            # if it is partitioned away it now holds (or may soon hold)
            # diverged state — suspect it until a recon round completes,
            # and shed the batch of its replica of the directory.
            # The guard keeps the common all-delivered case free.
            for location in self.locations_for(volume):
                if location.host != self.host_addr and not self.network.reachable(
                    self.host_addr, location.host
                ):
                    self.attr_cache.invalidate_batch(location.volrep, parent_fh)
                    self.health.note_missed_notification(volume, location.host)
        return delivered

    def _on_datagram(self, src: str, note: object) -> None:
        """Drop cached attribute batches named by an update notification.

        Every replica's batch of the directory goes, not only the named
        replica's: the update may have landed on a replica that holds
        updates this host never heard of.  The attributes the NFS client
        keeps of the named file's held vnodes go too, or ``stat`` would
        answer from them until their own TTL while a read sees the new
        version; for a sync install, which names the directory, those of
        every file held through the installing replica.  The datagram is
        best-effort; a lost one leaves a stale batch whose staleness the
        cache TTL bounds.
        """
        if not isinstance(note, UpdateNotification):
            return
        volume = note.volrep.volume
        self.attr_cache.invalidate_dir(volume, note.parent_fh)
        if note.fh == note.parent_fh:
            # a sync install names the directory: any file held through
            # the installing replica may have changed there
            held = self.attr_cache.held_children(volume, note.parent_fh, volrep=note.volrep)
        else:
            held = self.attr_cache.held_children(volume, note.parent_fh, note.fh)
        for child in held:
            child.inactive()
        if note.objkind == "dir":
            self.attr_cache.invalidate_dir(volume, note.fh)
        # the flight ring shows which notifications this host heard
        self.health.record_op("notification.recv", (src, note.fh))

    # -- open/close sessions ---------------------------------------------------------

    def open_file(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        """Open = pin a replica for the session, once per host and file: a
        second open of an open file joins the pin.  It sends no session
        call: a read has no update session, and the first update through
        the pin opens the physical one (:meth:`LogicalFileVnode._update`)."""
        pin = self._session_pins.get(fh)
        if pin is not None:
            pin.opens += 1
            return
        self._session_pins[fh] = SessionPin(self.select_update_replica(volume, parent_fh, fh, ctx))

    def close_file(
        self,
        volume: VolumeId,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        ctx: OpContext = ROOT_CTX,
    ) -> None:
        """Close one open; the last one closes the physical session, if an
        update opened one — a read-only close sends nothing.

        A session that updated its replica sends the session's one update
        notification here: when ``session_close`` answers the file's record
        (a session was open, and bumped the vector), which this host's
        attribute cache keeps, or when an update went through the pin
        unannounced.  The second covers a replica host that rebooted and
        forgot the session without a stale handle to show for it — its
        writes then bumped the vector one by one, and the close finds no
        session to report.  The pin goes whatever the close raised: a pin
        left behind would be joined by every later open, pinning reads to
        its replica and silencing that file's notifications for good.
        """
        pin = self._session_pins.get(fh)
        if pin is None:
            return
        if pin.opens > 1:
            pin.opens -= 1
            return
        if not pin.session:
            del self._session_pins[fh]
            return
        try:
            record = self.retry_stale(
                volume, parent_fh, lambda: pin.view.dir_vnode.session_close(fh, ctx), fh, ctx
            )
        except (HostUnreachable, FileNotFound, StaleFileHandle):
            # the session dies with the partition or crash; recon cleans
            # up.  (The old lookup-smuggled close could not even see the
            # crash: a cached lookup reply swallowed the RPC entirely.)
            record = None
        finally:
            del self._session_pins[fh]
        if record is not None or pin.updated:
            # read-only sessions notify nobody: no version changed, so
            # peers' cached attribute batches stay valid
            self.notify_update(volume, pin.view.location, parent_fh, fh, record=record)

    # -- graft point administration ---------------------------------------------------

    def create_graft_point(
        self,
        parent: LogicalDirVnode,
        name: str,
        target_volume: VolumeId,
        locations: list[ReplicaLocation],
    ) -> None:
        """Create a graft point naming ``target_volume`` under ``parent``.

        "The particular volume to be grafted onto a graft point is fixed
        when the graft point is created" (Section 4.3) — the volume id is
        stored in the entry; the replica locations become LOCATION entries
        inside the graft point, replicated and reconciled like any other
        directory contents.
        """
        self.graft_table.learn(target_volume, locations)
        replica = self.select_update_replica(parent.volume, parent.fh)
        entry = replica.dir_vnode.insert(name, EntryType.GRAFT_POINT, data=target_volume.to_hex())
        graft_dir = replica.dir_vnode.lookup_fh(entry.fh)
        for location in locations:
            graft_dir.insert(
                location_entry_name(location.volrep.replica_id), EntryType.LOCATION, data=location.host
            )
        self.notify_update(parent.volume, replica.location, parent.fh, entry.fh, objkind="dir")

    def add_graft_location(
        self,
        parent: LogicalDirVnode,
        graft_name: str,
        location: ReplicaLocation,
    ) -> None:
        """Record an additional volume replica in an existing graft point.

        "the number and placement of volume replicas may be dynamically
        changed" (Section 4.3).
        """
        replica = self.select_update_replica(parent.volume, parent.fh)
        entry = parent._find_entry_at(replica, graft_name)
        graft_dir = replica.dir_vnode.lookup_fh(entry.fh)
        graft_dir.insert(
            location_entry_name(location.volrep.replica_id), EntryType.LOCATION, data=location.host
        )
        self.notify_update(parent.volume, replica.location, parent.fh, entry.fh, objkind="dir")
        self.graft_table.learn(VolumeId.from_hex(entry.data), [location])

    # -- the root of the logical name space --------------------------------------------

    def root(self) -> LogicalDirVnode:
        return LogicalDirVnode(self, self.root_volume, volume_root_handle(self.root_volume))
