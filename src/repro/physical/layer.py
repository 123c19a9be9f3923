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
from repro.physical.wire import EntryType
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
    host storing it; ``parent_fh`` and ``fh`` are logical handles.
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
    ):
        self.lower_layer = lower
        self.lower_root = lower.root()
        self.host_addr = host_addr
        self.network = network
        self.clock = clock or (network.clock if network is not None else VirtualClock())
        self.telemetry = telemetry or NULL_TELEMETRY
        self.stores: dict[VolumeReplicaId, ReplicaStore] = {}
        self._policies: dict[VolumeReplicaId, StoragePolicy] = {}
        #: open update sessions: (store, file) -> has the session updated it?
        self._sessions: dict[tuple[int, FicusFileHandle], bool] = {}
        self._new_versions: dict[NewVersionKey, NewVersionNote] = {}
        self._registry: dict[int, Vnode] = {}
        #: count of version-vector bumps deferred into sessions (observability)
        self.session_coalesced_updates = 0
        #: this host's HealthPlane; a host that reboots hands the rebuilt
        #: layer the plane its first one made (the flight recorder survives)
        self.health = HealthPlane(host_addr, clock=self.clock.now, telemetry=self.telemetry)
        if network is not None:
            network.register_datagram_handler(host_addr, self._on_datagram)

    # -- volume replica management ------------------------------------------

    def create_volume_replica(self, volrep: VolumeReplicaId) -> ReplicaStore:
        """Initialize storage for a new volume replica on this host."""
        if volrep in self.stores:
            raise InvalidArgument(f"{volrep} already hosted on {self.host_addr}")
        store = ReplicaStore.create(self.lower_root, volrep, metrics=self._metrics_or_none())
        self.stores[volrep] = store
        return store

    def attach_volume_replica(self, volrep: VolumeReplicaId) -> ReplicaStore:
        """Attach to existing storage (host restart)."""
        if volrep in self.stores:
            return self.stores[volrep]
        store = ReplicaStore.attach(self.lower_root, volrep, metrics=self._metrics_or_none())
        self.stores[volrep] = store
        return store

    def _metrics_or_none(self):
        """Stores take a registry only when it records; None keeps their
        counting helper a single branch on the disabled path."""
        return self.telemetry.metrics if self.telemetry.enabled else None

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

    # -- vnode minting & NFS handle support -----------------------------------

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

    def register_vnode(self, fileid: int, vnode: Vnode) -> None:
        """Remember fileid -> vnode so NFS handles can be re-resolved."""
        self._registry[fileid] = vnode

    def vnode_for(self, fileid: int) -> Vnode:
        vnode = self._registry.get(fileid)
        if vnode is None:
            raise StaleFileHandle(f"physical layer has no vnode for fileid {fileid}")
        return vnode

    # -- update sessions (open/close locally, session_open/close over NFS) ------

    def _session_key(self, store: ReplicaStore, fh: FicusFileHandle) -> tuple[int, FicusFileHandle]:
        return (id(store), fh.logical)

    def session_open(self, store: ReplicaStore, fh: FicusFileHandle) -> None:
        """Open the file's update session; a session is open or not, so a
        replayed open is a no-op (the logical layer counts its own opens
        and brackets once per host and file)."""
        self._sessions.setdefault(self._session_key(store, fh), False)

    def session_close(
        self, store: ReplicaStore, parent_fh: FicusFileHandle, fh: FicusFileHandle
    ) -> bool:
        """End the session; True when it actually updated the replica (the
        caller should notify).  Closing no open session answers False."""
        dirty = self._sessions.pop(self._session_key(store, fh), False)
        if dirty:
            self._bump_file_vv(store, parent_fh, fh)
        return dirty

    def has_open_session(self, store: ReplicaStore, fh: FicusFileHandle) -> bool:
        return self._session_key(store, fh) in self._sessions

    def note_update(
        self, store: ReplicaStore, parent_fh: FicusFileHandle, fh: FicusFileHandle
    ) -> None:
        """A write/truncate happened: advance the version vector.

        Inside an open/close session the bump is deferred to close so one
        whole update session counts as a single update — this is what
        forwarding the open/close information buys (paper Section 2.3:
        "Ficus is able to use effectively the open/close information that
        NFS intercepts and ignores"; our NFS forwards it as the explicit
        ``session_open``/``session_close`` operations).
        """
        key = self._session_key(store, fh)
        if key in self._sessions:
            self._sessions[key] = True
            self.session_coalesced_updates += 1
            return
        self._bump_file_vv(store, parent_fh, fh)

    def _bump_file_vv(
        self, store: ReplicaStore, parent_fh: FicusFileHandle, fh: FicusFileHandle
    ) -> None:
        with store.operation():
            aux = store.read_file_aux(parent_fh, fh)
            prior = aux.vv
            aux.vv = aux.vv.bump(store.replica_id)
            store.write_file_aux(parent_fh, fh, aux)
        self.record_version("write", fh, aux.vv, parents=(prior,))

    def record_version(self, kind, fh, vv, parents=(), origin="", detail="") -> None:
        """Append one minted/installed version to the provenance ledger.

        Hot path (every vv bump lands here): one ring append of raw
        immutable references — the ledger encodes lazily at query time.
        """
        trace = ""
        if self.telemetry.enabled:
            tc = self.telemetry.tracer.current_context()
            if tc is not None:
                trace = f"{tc.trace_id:x}:{tc.span_id:x}"
        self.health.provenance.record(
            kind,
            fh.logical,
            vv,
            parents=parents,
            origin=origin,
            detail=detail,
            trace=trace,
        )

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
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter("physical.notifications_received").inc()

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
