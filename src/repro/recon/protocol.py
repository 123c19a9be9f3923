"""The full Ficus reconciliation protocol (paper Section 3.3).

"The directory reconciliation algorithm used for update propagation and
the basic file update propagation service are both incorporated into the
general Ficus file system reconciliation protocol.  This protocol is
executed periodically to traverse an entire subgraph (not just a single
node), and reconcile the local replica against a remote replica."

:func:`reconcile_subtree` walks the directory DAG from a root handle,
reconciling each directory and pulling its regular files (decided from
the directory pass's one attribute batch: two RPCs per diverged directory
plus its real transfers), accumulating conflict reports along the way.  It
tolerates mid-run partitions: an unreachable remote simply truncates the
traversal (the next periodic run finishes the job).

The walk is *incremental* (Merkle-style anti-entropy): before descending
into a directory it compares the remote's subtree recon digest (one
``sync_probe`` RPC, or the per-child digest the parent's probe already
supplied) against its own, and skips converged subtrees entirely.  A
fully converged volume replica therefore reconciles in O(1) RPCs instead
of two per directory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import FileNotFound, HostUnreachable, StaleFileHandle
from repro.physical import FicusPhysicalLayer
from repro.physical.policy import StoragePolicy
from repro.recon.conflicts import ConflictKind, ConflictLog, ConflictReport
from repro.recon.directory import DirReconResult, reconcile_directory
from repro.recon.propagate import PullOutcome, pull_children
from repro.resolvers import ResolveOutcome, ResolverRegistry, auto_resolve_conflict
from repro.util import FicusFileHandle, VolumeReplicaId
from repro.vnode.interface import Vnode


@dataclass
class SubtreeReconResult:
    """Aggregate outcome of one subtree reconciliation run."""

    directories_reconciled: int = 0
    directories_unreachable: int = 0
    inserts_applied: int = 0
    tombstones_recorded: int = 0
    deletes_applied: int = 0
    tombstones_purged_by_inference: int = 0
    collisions_repaired: int = 0
    concurrent_directories: int = 0
    files_checked: int = 0
    files_pulled: int = 0
    bytes_copied: int = 0
    bytes_saved: int = 0
    file_conflicts: int = 0
    conflicts_auto_resolved: int = 0
    resolver_fallbacks: int = 0
    files_declined_by_policy: int = 0
    subtrees_pruned: int = 0
    probe_rpcs: int = 0
    aborted_by_partition: bool = False

    def fold_dir(self, res: DirReconResult) -> None:
        self.directories_reconciled += 1
        self.inserts_applied += res.inserts_applied
        self.tombstones_recorded += res.tombstones_recorded
        self.deletes_applied += res.deletes_applied
        self.tombstones_purged_by_inference += res.tombstones_purged_by_inference
        self.collisions_repaired += res.collisions_repaired
        if res.was_concurrent:
            self.concurrent_directories += 1


def reconcile_subtree(
    physical: FicusPhysicalLayer,
    volrep: VolumeReplicaId,
    remote_volume_root: Vnode,
    remote_host: str,
    conflict_log: ConflictLog | None = None,
    root_fh: FicusFileHandle | None = None,
    all_replicas: frozenset[int] = frozenset(),
    policy: StoragePolicy | None = None,
    on_directory_changed: Callable[[FicusFileHandle], None] | None = None,
    resolvers: ResolverRegistry | None = None,
) -> SubtreeReconResult:
    """Reconcile the local volume replica against one remote replica.

    ``remote_volume_root`` is the remote replica's root directory vnode
    (physical, possibly via NFS).  The walk covers every directory
    reachable from ``root_fh`` (default: the volume root), minus any
    subtree whose remote recon digest matches ours (nothing below it can
    differ).  ``on_directory_changed`` is invoked once per directory this
    run changed — entries merged or file contents installed — so the
    caller can route the install through the update-notification path.

    ``resolvers`` (optional) enables automatic conflict resolution: a
    concurrent-update conflict on a resolver-covered file is merged and
    committed on the spot instead of being reported; the manual conflict
    log only receives conflicts no resolver handles.
    """
    store = physical.store_for(volrep)
    result = SubtreeReconResult()
    start = (root_fh or store.root_handle()).logical

    seen: set[FicusFileHandle] = set()
    #: (directory, remote subtree digest if the parent's probe supplied one)
    queue: deque[tuple[FicusFileHandle, str | None]] = deque([(start, None)])
    while queue:
        dir_fh, remote_hint = queue.popleft()
        if dir_fh in seen:
            continue  # the namespace is a DAG; visit each directory once
        seen.add(dir_fh)

        try:
            local_digest = store.subtree_digest(dir_fh)
        except FileNotFound:
            local_digest = None  # not stored locally yet; walk it fully
        if local_digest is not None and remote_hint == local_digest:
            result.subtrees_pruned += 1
            # digest equality proves every file below is common with this
            # peer: a wholesale sync point for merge-ancestor retention
            store.note_subtree_synced(dir_fh)
            continue  # converged below here — zero RPCs spent

        probe = None
        if local_digest is not None:
            try:
                probe = remote_volume_root.sync_probe(dir_fh)
                result.probe_rpcs += 1
            except FileNotFound:
                continue  # remote replica does not store this directory
            except (HostUnreachable, StaleFileHandle):
                result.aborted_by_partition = True
                result.directories_unreachable += 1
                continue
            if probe.digest == local_digest:
                result.subtrees_pruned += 1
                store.note_subtree_synced(dir_fh)
                continue

        try:
            remote_dir = remote_volume_root.lookup_dir(dir_fh)
        except FileNotFound:
            continue  # remote replica does not store this directory
        except (HostUnreachable, StaleFileHandle):
            result.aborted_by_partition = True
            result.directories_unreachable += 1
            continue

        # one store operation per directory — the merge, its pulls and the
        # resolver installs — closed (flushed) before anyone is told
        with store.operation():
            dir_result = reconcile_directory(
                physical, store, dir_fh, remote_dir, all_replicas=all_replicas
            )
            if dir_result.unreachable:
                result.aborted_by_partition = True
                result.directories_unreachable += 1
                continue
            result.fold_dir(dir_result)
            directory_changed = dir_result.changed

            batch, files = dir_result.remote_attrs, dir_result.child_files
            for file_entry, pull in pull_children(
                store, dir_fh, remote_dir, batch, files, policy, physical.health, remote_host
            ):
                file_fh = file_entry.fh
                if pull is None:
                    # selective replication: this replica declines the
                    # contents; the entry stays entry-only here
                    result.files_declined_by_policy += 1
                    continue
                result.files_checked += 1
                if pull.outcome is PullOutcome.PULLED:
                    result.files_pulled += 1
                    result.bytes_copied += pull.bytes_copied
                    result.bytes_saved += pull.bytes_saved
                    directory_changed = True
                    if conflict_log is not None:
                        # a strictly dominating version arrived: conflicts it
                        # supersedes (both recorded vvs dominated) are settled
                        conflict_log.mark_resolved(file_fh, pull.remote_vv)
                elif pull.outcome is PullOutcome.UP_TO_DATE:
                    if conflict_log is not None and pull.local_vv.strictly_dominates(pull.remote_vv):
                        conflict_log.mark_resolved(file_fh, pull.local_vv)
                    if pull.local_vv == pull.remote_vv and store.has_file(dir_fh, file_fh):
                        # both replicas demonstrably hold these contents: a
                        # sync point — retain them as the merge ancestor
                        store.note_file_synced(dir_fh, file_fh)
                elif pull.outcome is PullOutcome.CONFLICT:
                    resolved = ResolveOutcome.NOT_COVERED
                    if resolvers is not None:
                        resolved = auto_resolve_conflict(
                            store,
                            dir_fh,
                            file_fh,
                            file_entry.name,
                            remote_dir,
                            pull,
                            resolvers,
                            conflict_log=conflict_log,
                            health=physical.health,
                        )
                    if resolved is ResolveOutcome.RESOLVED:
                        result.conflicts_auto_resolved += 1
                        directory_changed = True
                        continue
                    if resolved is ResolveOutcome.FALLBACK:
                        result.resolver_fallbacks += 1
                    result.file_conflicts += 1
                    if conflict_log is not None and conflict_log.report(
                        ConflictReport(
                            kind=ConflictKind.FILE_UPDATE,
                            volume=volrep.volume,
                            parent_fh=dir_fh,
                            fh=file_fh,
                            name=file_entry.name,
                            local_vv=pull.local_vv,
                            remote_vv=pull.remote_vv,
                            remote_host=remote_host,
                            detected_at=physical.clock.now(),
                        )
                    ):
                        # a new conflict is an anomaly worth a flight-recorder
                        # snapshot: the operations that led to it are still in
                        # the op ring
                        physical.health.anomaly(
                            "conflict_detected",
                            conflict_kind=ConflictKind.FILE_UPDATE.value,
                            name=file_entry.name,
                            fh=file_fh.logical.to_hex(),
                            remote_host=remote_host,
                        )
                elif pull.outcome is PullOutcome.UNREACHABLE:
                    result.aborted_by_partition = True

        if directory_changed and on_directory_changed is not None:
            on_directory_changed(dir_fh)

        for child_fh in dir_result.child_directories:
            queue.append(
                (child_fh, probe.children.get(child_fh.logical) if probe is not None else None)
            )

    return result

