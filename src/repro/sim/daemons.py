"""The per-host background daemons.

* :class:`PropagationDaemon` — drains the new-version cache, pulling fresh
  versions from the notifying replica.  "Each physical layer reacts to the
  update notification as it sees fit: it may propagate the new version
  immediately, or wait for some later, more convenient time" (Section
  2.5); the ``min_age`` knob is that policy, and is what experiment E6
  sweeps ("rapid propagation enhances availability...; delayed propagation
  may reduce the overall propagation cost when updates are bursty").
  Updates cluster by directory (Section 6), so the directory is the unit
  of work: a tick gates the pending notes one by one, groups the rest by
  (source replica, directory), and services a group with ``root`` +
  ``lookup`` + directory ``read`` + one ``getattrs_batch``, plus two RPCs
  per file that really changed — however many notes the group holds.

* :class:`ReconciliationDaemon` — periodically reconciles each hosted
  volume replica against one remote peer, rotating around the replica
  ring, "concurrently with respect to normal file activity" (Section 3.3).

* :class:`GraftPruneDaemon` — "a graft that is no longer needed is quietly
  pruned at a later time" (Section 4.4).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import FicusError
from repro.logical import Fabric, FicusLogicalLayer
from repro.physical import FicusPhysicalLayer, NewVersionNote
from repro.recon import (
    ConflictLog,
    PullOutcome,
    PullResult,
    SubtreeReconResult,
    push_notify_pull,
    reconcile_subtree,
)
from repro.sim.topology import FullMeshTopology, Topology
from repro.util import VolumeReplicaId
from repro.vnode.interface import Vnode
from repro.volume import ReplicaLocation


class PeerHealth:
    """Consecutive-failure tracking for flapping peers.

    A peer that keeps failing *while reachable* (transient RPC faults, a
    lossy link) is marked degraded: the next ``min(2^(failures-1),
    max_skips)`` considerations of that peer are skipped, so a periodic
    round routes around it instead of stalling on retries every tick.
    Partitioned or crashed peers are NOT penalized — unreachability is
    detected for free and is the normal state reconciliation exists for.
    The skip budget is tick-based, not wall-clock-based, so a quiescent
    system converges after a bounded number of rounds regardless of how
    virtual time advances.
    """

    def __init__(self, max_skips: int = 4):
        self.max_skips = max_skips
        self._failures: dict[str, int] = {}
        self._skips_left: dict[str, int] = {}

    def record_failure(self, host: str) -> None:
        failures = self._failures.get(host, 0) + 1
        self._failures[host] = failures
        self._skips_left[host] = min(self.max_skips, 2 ** (failures - 1))

    def record_success(self, host: str) -> None:
        self._failures.pop(host, None)
        self._skips_left.pop(host, None)

    def should_skip(self, host: str) -> bool:
        """Consume one skip credit for ``host`` if any remain."""
        left = self._skips_left.get(host, 0)
        if left <= 0:
            return False
        self._skips_left[host] = left - 1
        return True

    def is_degraded(self, host: str) -> bool:
        return self._skips_left.get(host, 0) > 0

    def degraded_hosts(self) -> list[str]:
        return [host for host, left in self._skips_left.items() if left > 0]

    def reset(self) -> None:
        """Forget all history (e.g. after faults are known to have ceased)."""
        self._failures.clear()
        self._skips_left.clear()


@dataclass
class PropagationStats:
    """Per-note counters: the daemon works a (source, directory) group at
    a time, but each serviced note still lands in exactly one outcome."""

    #: notes serviced (they passed the age, topology and peer-health gates)
    pulls_attempted: int = 0
    #: serviced notes whose group pass installed something for them: the
    #: file the note names or, for a ``dir`` note, any entry of the merge
    pulls_succeeded: int = 0
    #: serviced notes that found the local replica as new as the source
    already_current: int = 0
    #: notes naming a file in update conflict: cleared, recon reports it
    conflicts_deferred: int = 0
    #: serviced notes left pending because the source could not answer
    unreachable: int = 0
    bytes_copied: int = 0
    #: bytes block-delta pulls avoided copying (file size minus delta)
    bytes_saved: int = 0
    #: notes left pending this tick because their source is degraded
    notes_deferred: int = 0
    #: notes left pending because their source was outside the topology's
    #: fanout this tick (ring/gossip only; full mesh never gates)
    notes_gated: int = 0
    #: ``file`` notes dropped because no live, wanted entry names the file
    #: any more (it was unlinked here while the note sat queued)
    stale_notes: int = 0


#: the PropagationStats counter behind each note outcome ("deferred", the
#: directory not stored here yet, has none); all but "unreachable" settle the note
_COUNTER = {
    "pulled": "pulls_succeeded",
    "up_to_date": "already_current",
    "conflict_deferred": "conflicts_deferred",
    "stale_note": "stale_notes",
    "unreachable": "unreachable",
}


def _note_outcome(note: NewVersionNote, pull: PullResult | None, dir_changed: bool) -> str:
    """What a group pass did for one note; ``pull`` is the result for the
    file it names (``None``: no live, wanted file by that handle here)."""
    outcome = pull.outcome if pull is not None else None
    if outcome is PullOutcome.PULLED:
        return "pulled"
    if outcome is PullOutcome.UNREACHABLE:
        return "unreachable"
    if outcome is PullOutcome.CONFLICT:
        return "conflict_deferred"
    if note.objkind == "dir":
        # the completed directory pass is what the note asked for
        return "pulled" if dir_changed else "up_to_date"
    if outcome is PullOutcome.UP_TO_DATE:
        return "up_to_date"
    if outcome is PullOutcome.REMOTE_MISSING:
        return "unreachable"
    return "stale_note"  # moot: neither a peer failure nor a success


class PropagationDaemon:
    """Pulls new versions named by the new-version cache.

    ``logical`` (optional) lets the daemon route each installed version
    back through the update-notification path, so peers' attribute caches
    invalidate immediately instead of waiting out their TTL.  Those
    notifications are marked ``origin="sync"``: receivers must not mint
    new-version notes from them, or two pullers would notify each other
    in a loop.
    """

    def __init__(
        self,
        physical: FicusPhysicalLayer,
        fabric: Fabric,
        min_age: float = 0.0,
        logical: FicusLogicalLayer | None = None,
        topology: Topology | None = None,
    ):
        self.physical = physical
        self.fabric = fabric
        self.min_age = min_age
        self.logical = logical
        self.topology = topology if topology is not None else FullMeshTopology()
        self.stats = PropagationStats()
        self.peer_health = PeerHealth()
        self._tick_index = 0
        physical.telemetry.metrics.add_source("propagation", self.stats)

    @property
    def ticks(self) -> int:
        """Ticks since boot that found a pending note to consider."""
        return self._tick_index

    def reboot(self) -> None:
        """Forget all volatile state (crash recovery).

        Skip credits and the topology tick schedule are in-memory policy
        state; a rebooted host must not route around peers based on
        pre-crash failure history.
        """
        self.peer_health = PeerHealth()
        self._tick_index = 0

    def _notify_installed(self, volrep, parent_fh, fh, objkind: str) -> None:
        """Announce a version this daemon just installed (origin="sync")."""
        if self.logical is None:
            return
        acting = ReplicaLocation(volrep=volrep, host=self.physical.host_addr)
        self.logical.notify_update(
            volrep.volume, acting, parent_fh, fh, objkind=objkind, origin="sync"
        )

    def tick(self) -> int:
        """Service every sufficiently old new-version note; returns the
        number of file versions installed.  Notes that pass the gates
        below are serviced a (source, directory) group at a time.

        Notes from a degraded source (one that kept failing while
        reachable) stay pending for a few ticks instead of burning a full
        retry cycle each round; reconciliation covers the gap regardless.
        Under a ring/gossip topology only notes whose source falls inside
        this tick's fanout are serviced — the rest stay pending for a
        tick where their source is selected, bounding the number of
        distinct peers one round contacts.
        """
        physical = self.physical
        if not physical.new_version_cache_size:
            # idle fast path: an empty cache means no note can be aged,
            # skipped, or serviced — one length check and out (this is
            # the common case for every quiescent host in a large sim)
            physical.health.notes_pending = 0
            return 0
        now = physical.clock.now()
        notes = physical.pending_new_versions()
        allowed: set[str] | None = None
        if not self.topology.is_full_mesh:
            sources = sorted({note.src_addr for note in notes})
            selected = self.topology.select(
                physical.host_addr, sources, self._tick_index
            )
            allowed = {sources[i] for i in selected}
        self._tick_index += 1
        groups: dict[tuple, list[NewVersionNote]] = {}
        for note in notes:
            if now - note.noted_at < self.min_age:
                continue
            if allowed is not None and note.src_addr not in allowed:
                self.stats.notes_gated += 1
                continue
            if self.peer_health.should_skip(note.src_addr):
                self.stats.notes_deferred += 1
                continue
            key = (note.src_addr, note.src_volrep, note.key.volrep, note.key.parent_fh.logical)
            groups.setdefault(key, []).append(note)
        roots: dict[tuple, Vnode] = {}  # remote volume roots resolved this tick
        pulled = sum(self._service_group(group, roots) for group in groups.values())
        physical.health.notes_pending = physical.new_version_cache_size
        return pulled

    def _service_group(self, group: list[NewVersionNote], roots: dict) -> int:
        """Service one (source, directory) group.  Each note keeps its own
        ``propagation.pull`` span, event and counters; the peer-health
        verdict is the group's, so one unreachable directory costs its
        source one strike per tick however many notes named it."""
        physical = self.physical
        telemetry = physical.telemetry
        stats = self.stats
        src = group[0].src_addr
        with ExitStack() as stack:
            # each span is parented on the trace context its note's update
            # notification carried, so the pull joins every originating
            # trace tree; the shared RPCs nest under the group's last note
            spans = [
                stack.enter_context(
                    telemetry.tracer.span(
                        "propagation.pull", layer="daemon", host=physical.host_addr, parent=note.trace_ctx
                    )
                )
                for note in group
            ]
            outcomes, pulled = self._attempt(group, roots)
            for span, note, outcome in zip(spans, group, outcomes):
                span.set_tag("objkind", note.objkind)
                span.set_tag("src", src)
                span.set_tag("outcome", outcome)
        if "unreachable" in outcomes:
            # failing while the network says the peer is fine = flapping;
            # a genuine partition/crash is normal and carries no penalty
            if self.fabric.network.reachable(physical.host_addr, src):
                self.peer_health.record_failure(src)
        elif "pulled" in outcomes or "up_to_date" in outcomes:
            self.peer_health.record_success(src)
        for note, outcome in zip(group, outcomes):
            stats.pulls_attempted += 1
            counter = _COUNTER.get(outcome)
            if counter is not None:
                setattr(stats, counter, getattr(stats, counter) + 1)
                if outcome != "unreachable":
                    physical.clear_new_version(note.key)
        return pulled

    def _attempt(self, group: list[NewVersionNote], roots: dict) -> tuple[list[str], int]:
        """One pass over the group's directory: each note's outcome, in
        group order, and the number of file versions installed."""
        first = group[0]
        volrep = first.key.volrep
        dir_fh = first.key.parent_fh.logical
        if not self.physical.store_for(volrep).has_directory(dir_fh):
            # directory itself unknown yet: wait for subtree reconciliation
            return ["deferred"] * len(group), 0
        source = (first.src_addr, first.src_volrep)
        try:
            remote_root = roots.get(source)
            if remote_root is None:
                remote_root = roots[source] = self.fabric.volume_root(*source)
            remote_dir = remote_root.lookup_dir(dir_fh)
            pulls, dir_changed = push_notify_pull(self.physical, group, remote_dir)
        except FicusError:
            return ["unreachable"] * len(group), 0  # nothing in the group is settled
        pulled = 0
        for pull in pulls.values():
            if pull.outcome is PullOutcome.PULLED:
                pulled += 1
                self.stats.bytes_copied += pull.bytes_copied
                self.stats.bytes_saved += pull.bytes_saved
        if pulled or dir_changed:
            self._notify_installed(volrep, dir_fh, dir_fh, objkind="dir")
        return [_note_outcome(note, pulls.get(note.key.fh.logical), dir_changed) for note in group], pulled


@dataclass
class ReconStats:
    runs: int = 0
    #: peers the ring/gossip topology put inside a tick's fanout
    peers_selected: int = 0
    #: ring peers passed over this-and-previous ticks because they kept
    #: failing while reachable (degraded), letting the round do useful
    #: work against someone else instead of stalling
    peers_skipped: int = 0
    results: list[SubtreeReconResult] = field(default_factory=list)

    @property
    def total_conflicts(self) -> int:
        return sum(r.file_conflicts for r in self.results)

    @property
    def total_auto_resolved(self) -> int:
        return sum(r.conflicts_auto_resolved for r in self.results)

    def totals(self) -> dict[str, int]:
        """The daemon's counters plus every field of the results summed —
        what the metrics registry views as ``recon.*``."""
        out = {name: value for name, value in vars(self).items() if name != "results"}
        for result in self.results:
            for name, value in vars(result).items():
                out[name] = out.get(name, 0) + value
        return out


class ReconciliationDaemon:
    """Periodic subtree reconciliation against rotating remote peers."""

    def __init__(
        self,
        physical: FicusPhysicalLayer,
        fabric: Fabric,
        conflict_log: ConflictLog,
        peers: dict[VolumeReplicaId, list[ReplicaLocation]],
        logical: FicusLogicalLayer | None = None,
        resolvers=None,
        topology: Topology | None = None,
    ):
        self.physical = physical
        self.fabric = fabric
        self.conflict_log = conflict_log
        #: per hosted volume replica: the other replicas of the volume,
        #: stored as tuples behind a read-only view — all mutation goes
        #: through :meth:`set_peers`, which keeps the host-name memo
        #: coherent (a same-length in-place swap used to defeat the old
        #: length-based staleness heuristic and serve stale hosts to the
        #: health plane)
        self._peers: dict[VolumeReplicaId, tuple[ReplicaLocation, ...]] = {}
        #: peer host names per replica, precomputed so the per-tick health
        #: aging pass does not rebuild the same list every round
        self._peer_hosts: dict[VolumeReplicaId, list[str]] = {}
        for volrep, locations in peers.items():
            self._peers[volrep] = tuple(locations)
            self._peer_hosts[volrep] = [loc.host for loc in locations]
        self.logical = logical
        #: optional ResolverRegistry enabling automatic conflict resolution
        self.resolvers = resolvers
        self.topology = topology if topology is not None else FullMeshTopology()
        self._ring_position: dict[VolumeReplicaId, int] = {}
        self._tick_index = 0
        self.stats = ReconStats()
        self.peer_health = PeerHealth()
        self.tombstones_purged = 0
        physical.telemetry.metrics.add_source("recon", self.stats.totals)

    @property
    def ticks(self) -> int:
        """Ticks since boot."""
        return self._tick_index

    @property
    def peers(self) -> MappingProxyType:
        """Read-only view of the per-replica peer sets.

        Mutate via :meth:`set_peers` only; direct assignment or in-place
        edits would desynchronize the precomputed host-name memo.
        """
        return MappingProxyType(self._peers)

    def set_peers(self, volrep: VolumeReplicaId, locations: list[ReplicaLocation]) -> None:
        peers = tuple(loc for loc in locations if loc.volrep != volrep)
        self._peers[volrep] = peers
        self._peer_hosts[volrep] = [loc.host for loc in peers]

    def max_peer_count(self) -> int:
        """The widest peer set across hosted replicas (0 when peerless)."""
        return max((len(p) for p in self._peers.values()), default=0)

    def reboot(self) -> None:
        """Forget all volatile state (crash recovery).

        Skip credits, ring cursors, and the topology tick schedule are
        in-memory policy state the docstring of ``FicusHost.restart``
        declares lost; carrying them across a reboot would let a host
        route around peers based on pre-crash history.
        """
        self.peer_health = PeerHealth()
        self._ring_position.clear()
        self._tick_index = 0

    def tick(self) -> list[SubtreeReconResult]:
        """Reconcile each hosted replica against its topology-chosen peers.

        Under the default full mesh every peer is a candidate and the
        rotating ring cursor picks one, exactly the historical behavior.
        Under ring/gossip the topology names this tick's fanout — one
        successor, or an O(log n) deterministic sample — and the daemon
        reconciles with every usable peer in it.  Degraded peers (failing
        while reachable) are passed over for a few ticks so the round
        does useful work against someone else instead of stalling on
        retry cycles; unreachable peers cost one cheap check and surface
        as an aborted result routed through the health plane.
        """
        outcomes = []
        health = self.physical.health
        topology = self.topology
        tick_index = self._tick_index
        self._tick_index += 1
        for volrep in list(self.physical.stores):
            peers = self._peers.get(volrep)
            if not peers:
                continue
            hosts = self._peer_hosts[volrep]
            # every ring peer ages one tick; a completed round resets it
            health.recon_tick(volrep.volume, hosts)
            if topology.is_full_mesh:
                position = self._ring_position.get(volrep, 0)
                order = [(position + offset) % len(peers) for offset in range(len(peers))]
            else:
                position = 0
                order = topology.select(self.physical.host_addr, hosts, tick_index)
                self.stats.peers_selected += len(order)
            reconciled = False
            saw_unreachable = False
            unreachable_hosts: list[str] = []
            for scanned, index in enumerate(order):
                peer = peers[index]
                if not self.fabric.network.reachable(self.physical.host_addr, peer.host):
                    saw_unreachable = True
                    unreachable_hosts.append(peer.host)
                    continue
                if self.peer_health.should_skip(peer.host):
                    self.stats.peers_skipped += 1
                    continue
                if topology.is_full_mesh:
                    self._ring_position[volrep] = position + scanned + 1
                result = self.reconcile_with(volrep, peer)
                if result.aborted_by_partition:
                    # it was reachable when chosen, so the failure was a
                    # transient fault, not a partition: degrade the peer
                    self.peer_health.record_failure(peer.host)
                else:
                    self.peer_health.record_success(peer.host)
                outcomes.append(result)
                reconciled = True
                if not topology.reconcile_selected:
                    break
            if not reconciled:
                if topology.is_full_mesh:
                    self._ring_position[volrep] = position + 1
                if saw_unreachable:
                    # same observable outcome a doomed run would have had,
                    # without paying for its RPC attempts — including the
                    # health accounting: an unreachable ring must raise
                    # divergence suspicion exactly like an aborted run
                    result = SubtreeReconResult(aborted_by_partition=True)
                    self.stats.runs += 1
                    self.stats.results.append(result)
                    for peer_host in unreachable_hosts:
                        health.recon_result(volrep.volume, peer_host, ok=False)
                    outcomes.append(result)
        return outcomes

    def volume_replica_ids(self, volrep: VolumeReplicaId) -> frozenset[int]:
        """The full replica-id set of a volume (self + known peers)."""
        ids = {volrep.replica_id}
        for peer in self._peers.get(volrep, ()):
            ids.add(peer.volrep.replica_id)
        return frozenset(ids)

    def reconcile_with(
        self, volrep: VolumeReplicaId, peer: ReplicaLocation
    ) -> SubtreeReconResult:
        telemetry = self.physical.telemetry
        with telemetry.tracer.span(
            "recon.run", layer="daemon", host=self.physical.host_addr
        ) as span:
            span.set_tag("peer", peer.host)
            result = self._reconcile_with(volrep, peer, span)
        self.physical.health.recon_result(
            volrep.volume,
            peer.host,
            ok=not result.aborted_by_partition,
            conflicts=result.file_conflicts,
        )
        return result

    def _reconcile_with(
        self, volrep: VolumeReplicaId, peer: ReplicaLocation, span
    ) -> SubtreeReconResult:
        try:
            remote_root = self.fabric.volume_root(peer.host, peer.volrep)
        except FicusError:
            result = SubtreeReconResult(aborted_by_partition=True)
            self.stats.runs += 1
            self.stats.results.append(result)
            span.set_tag("aborted", True)
            return result
        all_replicas = self.volume_replica_ids(volrep)
        on_changed = None
        if self.logical is not None:
            acting = ReplicaLocation(volrep=volrep, host=self.physical.host_addr)

            def on_changed(dir_fh, _acting=acting):
                # route the install through the update-notification path so
                # peers' attribute caches invalidate now, not at TTL expiry;
                # origin="sync" keeps receivers from minting pull notes that
                # would bounce between the two pullers forever
                self.logical.notify_update(
                    _acting.volrep.volume,
                    _acting,
                    dir_fh,
                    dir_fh,
                    objkind="dir",
                    origin="sync",
                )

        result = reconcile_subtree(
            self.physical,
            volrep,
            remote_root,
            peer.host,
            conflict_log=self.conflict_log,
            all_replicas=all_replicas,
            policy=self.physical.policy_for(volrep),
            on_directory_changed=on_changed,
            resolvers=self.resolvers,
        )
        # tombstone garbage collection: purge fully-acknowledged deletes
        from repro.recon.gc import collect_volume_replica

        gc = collect_volume_replica(
            self.physical, self.physical.store_for(volrep), all_replicas
        )
        self.tombstones_purged += gc.tombstones_purged + result.tombstones_purged_by_inference
        self.stats.runs += 1
        self.stats.results.append(result)
        span.set_tag("files_pulled", result.files_pulled)
        return result


class GraftPruneDaemon:
    """Quietly drops grafts idle longer than ``idle_timeout``."""

    def __init__(self, logical: FicusLogicalLayer, idle_timeout: float = 300.0):
        self.logical = logical
        self.idle_timeout = idle_timeout
        self.pruned_total = 0

    def tick(self) -> int:
        if not self.logical.grafter.active_grafts:
            return 0  # idle fast path: nothing mounted, nothing to age
        pruned = self.logical.grafter.prune(self.idle_timeout)
        self.pruned_total += pruned
        return pruned
