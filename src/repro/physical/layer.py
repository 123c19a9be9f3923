"""The Ficus physical layer.

One instance runs per host.  It stacks on a lower vnode layer (normally
UFS), manages the volume replicas stored on that host, tracks open/close
update sessions, advances version vectors on updates, and keeps the
*new-version cache* fed by update-notification datagrams:

"A physical layer that receives an update notification makes an entry for
the file in a new version cache.  An update propagation daemon consults
this cache to see what new replica versions should be propagated in, and
performs the propagation when it deems it appropriate" (Section 3.2).

A notification is one frozen :class:`UpdateNotification` and crosses the
network as that value; a datagram of any other shape is not one and is
ignored.  An update session is open or not: the logical layer counts its
own opens of a file and brackets the physical session once.

Exported over NFS, the layer names each vnode by what the dual mapping
finds its storage by (:meth:`FicusPhysicalLayer.handle_for`) and rebuilds
the vnode from the store on every call (:meth:`FicusPhysicalLayer.vnode_for`),
so it keeps no table of the vnodes it handed out and a handle outlives a
reboot of the host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FileNotFound, InvalidArgument, StaleFileHandle
from repro.net import Network
from repro.physical.policy import StoragePolicy
from repro.physical.store import ReplicaStore
from repro.physical.vnodes import (
    PhysicalDirVnode,
    PhysicalFileVnode,
    PhysicalRootVnode,
)
from repro.physical.wire import AuxAttributes, EntryType
from repro.telemetry import NULL_TELEMETRY, HealthPlane, Telemetry, TraceContext
from repro.util import FicusFileHandle, VirtualClock, VolumeReplicaId
from repro.vnode.interface import FileSystemLayer, Vnode


@dataclass(frozen=True)
class NewVersionKey:
    """Identifies one file replica needing propagation."""

    volrep: VolumeReplicaId
    parent_fh: FicusFileHandle
    fh: FicusFileHandle


@dataclass
class NewVersionNote:
    """One new-version cache entry."""

    key: NewVersionKey
    src_addr: str
    src_volrep: VolumeReplicaId
    noted_at: float
    #: "file" (pull contents) or "dir" (replay entry ops via recon)
    objkind: str = "file"
    #: trace context of the update that sent the notification, so the
    #: daemon's eventual pull span joins the originating trace tree
    trace_ctx: TraceContext | None = None


@dataclass(frozen=True)
class UpdateNotification:
    """The update-notification datagram, crossing as the value it is.

    ``volrep`` is the replica the update was applied to and ``src`` the
    host storing it; ``parent_fh`` and ``fh`` are handles.
    ``objkind`` distinguishes file-content updates (propagated by atomic
    copy) from directory updates (propagated by replaying entry operations
    through directory reconciliation — "simply copying directory contents
    is incorrect", Section 3.2).  ``trace`` is the sender's live trace
    context, so the receiving host can parent its eventual propagation pull
    on the originating update.

    ``origin="sync"`` marks a notification sent because propagation or
    reconciliation *installed* a version that already exists elsewhere.
    Receivers still invalidate their attribute caches, but do not create
    a new-version note — otherwise two pullers would bounce install
    notifications back and forth forever.
    """

    volrep: VolumeReplicaId
    parent_fh: FicusFileHandle
    fh: FicusFileHandle
    src: str
    objkind: str
    trace: TraceContext | None
    origin: str


class FicusPhysicalLayer(FileSystemLayer):
    """Per-host physical layer managing this host's volume replicas."""

    layer_name = "ficus-physical"

    def __init__(
        self,
        lower: FileSystemLayer,
        host_addr: str,
        network: Network | None = None,
        clock: VirtualClock | None = None,
        telemetry: Telemetry | None = None,
        health: HealthPlane | None = None,
    ):
        self.lower_layer = lower
        self.lower_root = lower.root()
        self.host_addr = host_addr
        self.network = network
        self.clock = clock or (network.clock if network is not None else VirtualClock())
        self.telemetry = telemetry or NULL_TELEMETRY
        self.stores: dict[VolumeReplicaId, ReplicaStore] = {}
        self._policies: dict[VolumeReplicaId, StoragePolicy] = {}
        #: open update sessions, (store, file), each opened by its first update
        self._sessions: set[tuple[int, FicusFileHandle]] = set()
        self._new_versions: dict[NewVersionKey, NewVersionNote] = {}
        #: count of updates made inside sessions, each session bumping once
        self.session_coalesced_updates = 0
        #: update notifications that made or refreshed a new-version note
        self.notifications_received = 0
        self.telemetry.metrics.add_source(
            "physical", lambda: {"notifications_received": self.notifications_received}
        )
        #: this host's HealthPlane; a host that reboots hands the rebuilt
        #: layer the plane its first one made (the flight recorder survives,
        #: and no second plane registers its metric sources)
        self.health = health or HealthPlane(host_addr, clock=self.clock.now, telemetry=self.telemetry)
        if network is not None:
            network.register_datagram_handler(host_addr, self._on_datagram)

    # -- volume replica management ------------------------------------------

    def create_volume_replica(self, volrep: VolumeReplicaId) -> ReplicaStore:
        """Initialize storage for a new volume replica on this host."""
        if volrep in self.stores:
            raise InvalidArgument(f"{volrep} already hosted on {self.host_addr}")
        return self._host_store(volrep, ReplicaStore.create(self.lower_root, volrep))

    def attach_volume_replica(self, volrep: VolumeReplicaId) -> ReplicaStore:
        """Attach to existing storage (host restart)."""
        if volrep in self.stores:
            return self.stores[volrep]
        return self._host_store(volrep, ReplicaStore.attach(self.lower_root, volrep))

    def _host_store(self, volrep: VolumeReplicaId, store: ReplicaStore) -> ReplicaStore:
        self.stores[volrep] = store
        self.telemetry.metrics.add_source("store", store.stats)
        return store

    def store_for(self, volrep: VolumeReplicaId) -> ReplicaStore:
        try:
            return self.stores[volrep]
        except KeyError:
            raise FileNotFound(f"{self.host_addr} hosts no volume replica {volrep}") from None

    def store_by_hex(self, text: str) -> ReplicaStore:
        return self.store_for(VolumeReplicaId.from_hex(text))

    def hosts_volume_replica(self, volrep: VolumeReplicaId) -> bool:
        return volrep in self.stores

    def set_storage_policy(self, volrep: VolumeReplicaId, policy: StoragePolicy) -> None:
        """Make this volume replica selective about file contents."""
        self.store_for(volrep)  # validate
        self._policies[volrep] = policy

    def policy_for(self, volrep: VolumeReplicaId) -> StoragePolicy:
        return self._policies.get(volrep) or _FULL_POLICY

    # -- vnodes and their handles ---------------------------------------------

    def root(self) -> PhysicalRootVnode:
        return PhysicalRootVnode(self)

    def dir_vnode(self, store: ReplicaStore, fh: FicusFileHandle) -> PhysicalDirVnode:
        return PhysicalDirVnode(self, store, fh)

    def file_vnode(
        self,
        store: ReplicaStore,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        etype: EntryType,
    ) -> PhysicalFileVnode:
        return PhysicalFileVnode(self, store, parent_fh, fh, etype)

    def handle_for(self, vnode: Vnode) -> tuple:
        """A directory's handle is (volume replica, its Ficus handle), a
        file's (volume replica, its directory's handle, its handle, entry
        type), the root's ``()``: what the dual mapping finds storage by,
        so a handle outlives this instance.  Ficus ids are never reused, so
        no generation is needed."""
        if isinstance(vnode, PhysicalFileVnode):
            return (vnode.store.volrep, vnode.parent_fh, vnode.fh, vnode.etype.value)
        if isinstance(vnode, PhysicalDirVnode):
            return (vnode.store.volrep, vnode.fh)
        return ()

    def vnode_for(self, handle: tuple) -> Vnode:
        """The vnode ``handle`` names, rebuilt from what the store holds
        now; ``StaleFileHandle`` once the store no longer holds it."""
        if not handle:
            return self.root()
        store = self.stores.get(handle[0])
        if len(handle) == 2:
            if store is not None and store.has_directory(handle[1]):
                return self.dir_vnode(store, handle[1])
        elif store is not None and store.stored_file(handle[1], handle[2]) is not None:
            return self.file_vnode(store, handle[1], handle[2], EntryType(handle[3]))
        raise StaleFileHandle(f"{self.host_addr} no longer stores {handle}")

    # -- update sessions (opened by their first update, closed by session_close) --

    def _session_key(self, store: ReplicaStore, fh: FicusFileHandle) -> tuple[int, FicusFileHandle]:
        return (id(store), fh)

    def session_close(self, store: ReplicaStore, fh: FicusFileHandle) -> AuxAttributes | None:
        """End the session.  When one was open, so it updated the replica
        (the caller should notify), answer the file's record as it now
        stands: the very value ``getattrs_batch([fh])`` would list,
        so the caller can keep it instead of asking again.  It writes
        nothing: the session's one vector bump landed before its first
        write.  Closing no open session answers ``None``."""
        key = self._session_key(store, fh)
        if key not in self._sessions:
            return None
        self._sessions.remove(key)
        return store.read_record(fh)

    def written_sessions(self, store: ReplicaStore) -> frozenset[FicusFileHandle]:
        """The files of ``store`` with an open session: their vector is the
        session's, their contents are not final."""
        return frozenset(fh for sid, fh in self._sessions if sid == id(store))

    def note_update(self, store: ReplicaStore, fh: FicusFileHandle, session: bool) -> None:
        """A write or a size setattr is about to change the contents:
        advance the version vector first, in an operation of its own, so a
        crash between the two leaves the old contents under the new vector,
        never the reverse.

        The first update that carries ``session`` (``OpContext.session``,
        which the logical layer sets on an open file's updates) opens the
        file's update session after that bump; every later update lands
        inside it without a bump, so one whole session counts as a single
        update (paper Section 2.3: "Ficus is able to use effectively the
        open/close information that NFS intercepts and ignores").  A read
        opens no session.  Until ``session_close`` the new vector names
        contents still being written, so ``getattrs_batch`` names the file
        as written and no peer copies it (:func:`repro.recon.pull_file`
        defers); a crash mid-session leaves the advanced vector over
        whatever landed, which no peer copied, and nothing to recover.
        The logical layer announces such a session once, at its close,
        when the new version is whole.
        """
        key = self._session_key(store, fh)
        if key not in self._sessions:
            self._bump_file_vv(store, fh)
            if not session:
                return
            self._sessions.add(key)
        self.session_coalesced_updates += 1

    def _bump_file_vv(self, store: ReplicaStore, fh: FicusFileHandle) -> None:
        with store.operation():
            prior = store.read_record(fh)
            aux = prior._replace(vv=prior.vv.bump(store.replica_id))
            store.write_record(fh, aux)
        self.health.record_version("write", fh, aux.vv, parents=(prior.vv,))

    # -- new-version cache (update notification receive side) ------------------

    def _on_datagram(self, src: str, note: object) -> None:
        if not isinstance(note, UpdateNotification) or note.origin == "sync":
            # A sync notification: propagation/recon installed a version
            # that already exists at the sender's source; peers' logical
            # caches must invalidate, but minting a new-version note here
            # would make the two pullers notify each other in a loop.
            return
        # The notification names the *sender's* volume replica; we care if
        # we host ANY replica of the same volume.
        for volrep in self.stores:
            if volrep.volume == note.volrep.volume:
                if volrep == note.volrep:
                    # we host the replica the update was applied to (it was
                    # driven here remotely over NFS): nothing to pull — the
                    # notification only matters to the logical-layer cache
                    continue
                key = NewVersionKey(volrep=volrep, parent_fh=note.parent_fh, fh=note.fh)
                objkind = note.objkind
                existing = self._new_versions.get(key)
                if existing is not None and existing.objkind == "dir":
                    # a pending directory note subsumes a file note: the
                    # directory reconciliation pass pulls files too
                    objkind = "dir"
                self._new_versions[key] = NewVersionNote(
                    key=key,
                    src_addr=note.src,
                    src_volrep=note.volrep,
                    noted_at=self.clock.now(),
                    objkind=objkind,
                    trace_ctx=note.trace,
                )
                self.notifications_received += 1

    def pending_new_versions(self) -> list[NewVersionNote]:
        """What the propagation daemon consults."""
        return list(self._new_versions.values())

    def clear_new_version(self, key: NewVersionKey) -> None:
        self._new_versions.pop(key, None)

    @property
    def new_version_cache_size(self) -> int:
        return len(self._new_versions)


#: shared default: a full replica stores everything
_FULL_POLICY = StoragePolicy()
