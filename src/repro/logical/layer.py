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
from repro.net import Network
from repro.physical import DirectoryEntry, UpdateNotification, volume_root_handle
from repro.physical.wire import AttrBatch
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util import FicusFileHandle, VolumeId
from repro.vnode.interface import ROOT_CTX, FileSystemLayer, OpContext, Vnode
from repro.volume import GraftTable, Grafter, ReplicaLocation
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
        self.grafter = Grafter(network, host_addr, telemetry=self.telemetry)
        self.locks = LockManager()
        #: volume -> known replica locations (root volume seeded from the
        #: graft table; others learned by autografting).
        self._locations: dict[VolumeId, list[ReplicaLocation]] = {}
        #: open-session pins: logical fh -> the replica taking this session
        self._session_pins: dict[FicusFileHandle, SessionPin] = {}
        #: per-replica attribute batches, kept coherent by notification
        self.attr_cache = VersionVectorCache(network.clock)
        self.notifications_sent = 0
        #: this host's HealthPlane, shared with the fabric's mounts
        self.health = fabric.health
        #: callable peer_host -> bool: is the peer degraded (flapping)?
        #: Wired from the daemons' PeerHealth so replica selection stops
        #: probing flapping replicas first.
        self.degraded_probe = None
        #: replica probes deferred because the peer was degraded
        self.degraded_skips = 0
        #: did the last read-replica selection run under a partition (or
        #: with divergence already suspected for the volume)?
        self.last_read_divergence_suspected = False
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

    def locations_for(self, volume: VolumeId) -> list[ReplicaLocation]:
        cached = self._locations.get(volume)
        if cached:
            return cached
        from_table = self.graft_table.locations(volume)
        if from_table:
            self._locations[volume] = from_table
            return from_table
        raise AllReplicasUnavailable(f"no known replica locations for {volume}")

    def learn_locations(self, volume: VolumeId, locations: list[ReplicaLocation]) -> None:
        if locations:
            self._locations[volume] = sorted(
                locations, key=lambda loc: loc.volrep.replica_id
            )

    def _candidate_order(self, volume: VolumeId) -> list[ReplicaLocation]:
        locations = self.locations_for(volume)
        local = [loc for loc in locations if loc.host == self.host_addr]
        remote = [loc for loc in locations if loc.host != self.host_addr]
        return local + remote

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
        fh = fh.logical
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
            # a cached handle died with a server reboot: resolve afresh once
            self.attr_cache.invalidate(location.volrep, fh)
            try:
                dir_vnode = self.fabric.dir_by_handle(location.host, location.volrep, fh)
                batch = dir_vnode.getattrs_batch(None, ctx)
            except (HostUnreachable, FileNotFound, StaleFileHandle):
                return None
        except (HostUnreachable, FileNotFound):
            return None
        entry = self.attr_cache.store(location.volrep, fh, dir_vnode, batch)
        return ReplicaView(location, entry), batch

    def _skip_degraded(self, location: ReplicaLocation) -> bool:
        probe = self.degraded_probe
        return (
            probe is not None
            and location.host != self.host_addr
            and probe(location.host)
        )

    def replica_batches(
        self, volume: VolumeId, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX
    ):
        """Yield ``(ReplicaView, AttrBatch)`` per reachable directory replica.

        Replicas that are unreachable, or that do not (yet) store the
        directory, are silently skipped — partial operation is normal.

        Replicas on *degraded* peers (the daemons' PeerHealth says they
        keep failing while reachable) are deferred: they are probed only
        if no healthy replica answers, so a read never burns a full NFS
        retransmission cycle against a flapping host that a healthy copy
        could serve instead.
        """
        deferred: list[ReplicaLocation] = []
        yielded = False
        for location in self._candidate_order(volume):
            if self._skip_degraded(location):
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

        A server reboot kills every handle it issued, and a file removed
        there takes its handle with it (an install keeps the file's inode),
        so a held handle can go stale mid-use; the
        NFS client scrubs its own caches before the error surfaces.  Here
        the directory's handles, child handles and views are dropped on
        every replica and the open session's pin (``fh``) is resolved
        afresh, so the retry's selection and lookups start from the volume
        root (real NFS clients do exactly this dance on ESTALE).
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
        candidates = [(view, batch.dir_aux.vv) for view, batch in self.replica_batches(volume, fh, ctx)]
        if not candidates:
            raise AllReplicasUnavailable(f"no reachable replica stores directory {fh}")
        return self._most_recent(volume, fh, None, candidates)

    def _most_recent(
        self,
        volume: VolumeId,
        dir_fh: FicusFileHandle,
        key: FicusFileHandle | None,
        candidates: list[tuple[ReplicaView, VersionVector]],
    ) -> ReplicaView:
        """:func:`most_recent`, compared once per set of candidate batches.

        The winner is remembered in the directory's cache record beside the
        batches it came from (each candidate's ``entry.batch``) and dies
        with them.  A lone candidate wins outright and is not remembered:
        on a one-replica host a memo costs more than it saves.
        """
        if len(candidates) == 1:
            return candidates[0][0]  # the only reachable copy is the most recent available
        batches = tuple(view.entry.batch for view, _ in candidates)
        return self.attr_cache.selection(
            volume, dir_fh, key, batches, lambda: most_recent(candidates)
        )

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
        # the paper's one-copy availability serves the best *reachable*
        # copy; under a partition (or with divergence already suspected
        # for the volume) the result may be stale, and the caller can
        # see that through this flag
        self.last_read_divergence_suspected = self._partition_suspected(
            volume
        ) or self.health.divergence_suspected(volume)
        pin = self._session_pins.get(fh.logical)
        if pin is not None and self.network.reachable(self.host_addr, pin.view.location.host):
            return pin.view
        candidates = self.file_replicas(volume, parent_fh, fh, ctx)
        if not candidates:
            raise AllReplicasUnavailable(f"no reachable replica stores file {fh}")
        return self._most_recent(volume, parent_fh, fh.logical, [(c, c.vv) for c in candidates])

    def _partition_suspected(self, volume: VolumeId) -> bool:
        """Is some known replica host of ``volume`` currently unreachable?"""
        try:
            locations = self.locations_for(volume)
        except AllReplicasUnavailable:
            return False
        for location in locations:
            if location.host != self.host_addr and not self.network.reachable(
                self.host_addr, location.host
            ):
                return True
        return False

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
        update, only what the update changed is dropped: the acting
        replica's batch of the directory (and of a directory the update
        named), plus the batch of each replica whose host the datagram
        could not reach, since a cut-off replica may diverge unheard.
        Updates apply to one replica (Section 2.5), so every other
        replica's batch still describes a state this update did not touch;
        this host's staleness about them is bounded as any reader's is, by
        the TTL and by the notifications it hears.  The acting replica's
        batch — when it is local, so re-reading costs no RPC — is written
        through: only the updated object's record is re-read
        (:meth:`~repro.logical.attr_cache.VersionVectorCache.write_through`).

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
        if origin == "sync":
            # first: a sync install names the directory itself (fh is
            # parent_fh), and then nothing held may be merged over — nor
            # served from the NFS client's attributes of its files
            self.attr_cache.invalidate_dir(volume, fh)
            for child in self.attr_cache.held_children(volume, fh):
                child.inactive()
        elif objkind == "dir":
            self.attr_cache.invalidate_batch(acting.volrep, fh)
        if self.fabric.is_local(acting.host):
            try:
                vnode = self.fabric.dir_by_handle(acting.host, acting.volrep, parent_fh)
                self.attr_cache.write_through(acting.volrep, parent_fh, vnode, fh, objkind)
            except (FileNotFound, StaleFileHandle):
                self.attr_cache.invalidate_batch(acting.volrep, parent_fh)
        else:
            self.attr_cache.invalidate_batch(acting.volrep, parent_fh)
        try:
            others = {loc.host for loc in self.locations_for(volume)}
        except AllReplicasUnavailable:
            # a host can store a replica of a grafted volume its own logical
            # layer has never resolved; the sync notification is only an
            # optimisation (peers' attribute TTL covers it), so skip it
            if origin != "sync":
                raise
            return 0
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
            parent_fh.logical,
            fh.logical,
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
        version.  The datagram is best-effort; a lost one leaves a stale
        batch whose staleness the cache TTL bounds.
        """
        if not isinstance(note, UpdateNotification):
            return
        volume = note.volrep.volume
        self.attr_cache.invalidate_dir(volume, note.parent_fh)
        for child in self.attr_cache.held_children(volume, note.parent_fh, note.fh):
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
        fh = fh.logical
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
        notification here: when ``session_close`` reports it dirty (and
        bumped the vector), or when an update went through the pin
        unannounced.  The second covers a replica host that rebooted and
        forgot the session without a stale handle to show for it — its
        writes then bumped the vector one by one, and the close finds no
        session to report.  The pin goes whatever the close raised: a pin
        left behind would be joined by every later open, pinning reads to
        its replica and silencing that file's notifications for good.
        """
        fh = fh.logical
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
            updated = self.retry_stale(
                volume, parent_fh, lambda: pin.view.dir_vnode.session_close(fh, ctx), fh, ctx
            )
        except (HostUnreachable, FileNotFound, StaleFileHandle):
            # the session dies with the partition or crash; recon cleans
            # up.  (The old lookup-smuggled close could not even see the
            # crash: a cached lookup reply swallowed the RPC entirely.)
            updated = False
        finally:
            del self._session_pins[fh]
        if updated or pin.updated:
            # read-only sessions notify nobody: no version changed, so
            # peers' cached attribute batches stay valid
            self.notify_update(volume, pin.view.location, parent_fh, fh)

    # -- graft point administration ---------------------------------------------------

    def create_graft_point(
        self,
        parent: "LogicalDirVnode",
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
        from repro.physical.wire import EntryType
        from repro.volume import location_entry_name

        replica = self.select_update_replica(parent.volume, parent.fh)
        entry = replica.dir_vnode.insert(name, EntryType.GRAFT_POINT, data=target_volume.to_hex())
        graft_dir = replica.dir_vnode.lookup_fh(entry.fh)
        for location in locations:
            graft_dir.insert(
                location_entry_name(location.volrep.replica_id), EntryType.LOCATION, data=location.host
            )
        self.notify_update(parent.volume, replica.location, parent.fh, entry.fh, objkind="dir")
        self.learn_locations(target_volume, locations)

    def add_graft_location(
        self,
        parent: "LogicalDirVnode",
        graft_name: str,
        location: ReplicaLocation,
    ) -> None:
        """Record an additional volume replica in an existing graft point.

        "the number and placement of volume replicas may be dynamically
        changed" (Section 4.3).
        """
        from repro.physical.wire import EntryType
        from repro.volume import location_entry_name

        replica = self.select_update_replica(parent.volume, parent.fh)
        entry = parent._find_entry_at(replica, graft_name)
        graft_dir = replica.dir_vnode.lookup_fh(entry.fh)
        graft_dir.insert(
            location_entry_name(location.volrep.replica_id), EntryType.LOCATION, data=location.host
        )
        self.notify_update(parent.volume, replica.location, parent.fh, entry.fh, objkind="dir")
        target = VolumeId.from_hex(entry.data)
        known = {loc.volrep: loc for loc in self._locations.get(target, [])}
        known[location.volrep] = location
        self.learn_locations(target, list(known.values()))

    # -- the root of the logical name space --------------------------------------------

    def root(self) -> "LogicalDirVnode":
        from repro.logical.vnodes import LogicalDirVnode

        return LogicalDirVnode(self, self.root_volume, volume_root_handle(self.root_volume))
