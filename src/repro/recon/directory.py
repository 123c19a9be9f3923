"""Directory reconciliation (paper Section 3.3, after Guy & Popek).

"A reconciliation algorithm examines the state of two replicas, determines
which operations have been performed on each, selects a set of operations
to perform on the local replica which reflect previously unseen activity
at the remote replica, and then applies those operations to the local
replica.  The Ficus directory reconciliation algorithm determines which
entries have been added to or deleted from the remote replica, and applies
appropriate entry insertion or deletion operations to the local replica."

Entries are identified by globally unique insertion ids, so the merge is
an exercise in set algebra:

* remote entry unknown here, live  -> apply the insert
* remote entry unknown here, dead  -> record the tombstone
* known here and live, remote dead -> apply the delete (a delete always
  causally follows the insert it names, so it wins)
* known here and dead              -> nothing; tombstones are stable

Because copying directory *bytes* would replay allocation side effects
wrongly, operations — not bytes — are transferred ("simply copying
directory contents is incorrect; in a sense, a directory operation needs
to be 'replayed' at each replica").

Name collisions created by concurrent inserts are repaired automatically
and deterministically at read time (see
:func:`repro.physical.vnodes.effective_entries`); this pass counts them so
the repair is visible to experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FileNotFound, HostUnreachable, StaleFileHandle
from repro.physical import (
    FicusPhysicalLayer,
    PhysicalDirVnode,
    ReplicaStore,
    count_name_collisions,
    decode_directory,
)
from repro.physical.wire import AttrBatch, EntryType
from repro.util import FicusFileHandle
from repro.vnode.interface import Vnode, read_whole
from repro.vv import Ordering


@dataclass
class DirReconResult:
    """What one directory reconciliation pass did."""

    inserts_applied: int = 0
    tombstones_recorded: int = 0
    deletes_applied: int = 0
    tombstones_purged_by_inference: int = 0
    #: same-(name, fh) duplicate entries tombstoned by the merge
    duplicates_resolved: int = 0
    #: live-name collisions present after the merge (repaired at read time)
    collisions_repaired: int = 0
    #: the two replicas had concurrently diverged (auto-repaired)
    was_concurrent: bool = False
    unreachable: bool = False
    #: handles of live subdirectory/graft-point entries after the merge
    child_directories: list[FicusFileHandle] = field(default_factory=list)
    #: live file/symlink entries after the merge (full records, so
    #: callers can apply name-based storage policies)
    child_files: list = field(default_factory=list)
    #: the remote directory's attribute batch: its own aux record plus one
    #: per child it stores, which is what ``pull_children`` decides from
    remote_attrs: AttrBatch | None = None

    @property
    def changed(self) -> bool:
        return bool(
            self.inserts_applied
            or self.tombstones_recorded
            or self.deletes_applied
            or self.duplicates_resolved
        )


def reconcile_directory(
    physical: FicusPhysicalLayer,
    store: ReplicaStore,
    dir_fh: FicusFileHandle,
    remote_dir: Vnode,
    all_replicas: frozenset[int] = frozenset(),
) -> DirReconResult:
    """One-way reconcile: fold the remote replica's activity into ours.

    Run symmetrically from the other side (or around a ring) to converge
    every replica.  ``all_replicas`` (the volume's full replica-id set,
    when known) lets the merge skip re-learning tombstones that are
    already fully acknowledged everywhere — i.e. ones we may have
    garbage-collected.
    """
    result = DirReconResult()
    dir_fh = dir_fh.logical

    try:
        remote_entries = decode_directory(read_whole(remote_dir))
        # the whole-directory batch: the directory's own aux record for
        # the merge below, the children's for the per-file pulls after it
        result.remote_attrs = remote_dir.getattrs_batch(None)
        remote_aux = result.remote_attrs.dir_aux
    except (HostUnreachable, FileNotFound, StaleFileHandle):
        # StaleFileHandle: the remote rebooted and client caches were
        # scrubbed by the failure itself; the next periodic run succeeds
        result.unreachable = True
        return result

    with store.operation():
        _replay(physical, store, dir_fh, remote_entries, remote_aux, all_replicas, result)
    return result


def _replay(physical, store, dir_fh, remote_entries, remote_aux, all_replicas, result) -> None:
    """Apply the remote's unseen entry operations to the local directory:
    one store operation, so ``.fdir`` and ``.faux`` are each written once
    with the merged vector and both folds final."""
    local_vnode = PhysicalDirVnode(physical, store, dir_fh)
    local_aux = store.read_dir_aux(dir_fh)
    if local_aux.vv.compare(remote_aux.vv) is Ordering.CONCURRENT:
        result.was_concurrent = True

    local_by_eid = {entry.eid: entry for entry in store.read_entries(dir_fh)}

    for remote_entry in remote_entries:
        known = local_by_eid.get(remote_entry.eid)
        if known is None:
            if remote_entry.live:
                local_vnode.apply_insert(
                    eid=remote_entry.eid,
                    name=remote_entry.name,
                    fh=remote_entry.fh,
                    etype=remote_entry.etype,
                    data=remote_entry.data,
                    from_recon=True,
                )
                result.inserts_applied += 1
            else:
                if all_replicas and remote_entry.acks >= all_replicas:
                    # fully acknowledged everywhere: either we collected it
                    # already or we never saw the insert; no stale insert
                    # can exist, so there is nothing to defend against
                    continue
                local_vnode.apply_tombstone(remote_entry)
                result.tombstones_recorded += 1
        elif known.live and not remote_entry.live:
            # the delete wins; apply_tombstone also merges the remote's
            # deletion acknowledgements for tombstone garbage collection
            local_vnode.apply_tombstone(remote_entry)
            result.deletes_applied += 1
        elif not known.live and not remote_entry.live:
            if not (remote_entry.acks <= known.acks and remote_entry.acks2 <= known.acks2):
                local_vnode.apply_tombstone(remote_entry)  # ack merge only
        # both-live: nothing to transfer

    # Concurrent renames of one file to the same name in different
    # partitions arrive here as two live entries with identical
    # (name, fh) under distinct entry ids — the same user-level operation
    # performed twice.  Unlike a collision between *different* files
    # (which read-time repair must preserve, since both files exist),
    # the duplicate pair names one object and would otherwise survive
    # forever as a spurious ``name#<eid>`` alias.  Resolve it the way
    # read-time repair picks a winner: the lowest entry id keeps the
    # name, the rest are tombstoned.  Every replica applies the same
    # rule, so the resolution converges without extra messages, and the
    # tombstones propagate it to replicas that reconcile elsewhere.
    by_name_fh: dict[tuple, list] = {}
    for entry in store.read_entries(dir_fh):
        if entry.live:
            by_name_fh.setdefault((entry.name, entry.fh.logical), []).append(entry)
    for group in by_name_fh.values():
        if len(group) < 2:
            continue
        group.sort(key=lambda e: e.eid)
        for duplicate in group[1:]:
            local_vnode.apply_remove(duplicate.eid, from_recon=True)
            result.duplicates_resolved += 1

    # Tombstone-collection inference: if OUR tombstone carries a full
    # phase-1 acknowledgement set but the remote replica has no record of
    # the entry at all, the remote must have purged it (it acknowledged
    # the delete, so "never saw it" is impossible).  A purge there implies
    # phase 2 completed globally, so we may purge too.
    if all_replicas:
        remote_eids = {entry.eid for entry in remote_entries}
        locals_now = store.read_entries(dir_fh)
        kept = [
            entry
            for entry in locals_now
            if entry.live
            or entry.acks < all_replicas
            or entry.eid in remote_eids
        ]
        if len(kept) != len(locals_now):
            result.tombstones_purged_by_inference += len(locals_now) - len(kept)
            store.write_entries(dir_fh, kept)

    # Converged up to the remote's history: merge the version vectors so a
    # third party can tell this replica now includes the remote's updates.
    local_aux = store.staged_dir_aux(dir_fh)
    local_aux.vv = local_aux.vv.merge(remote_aux.vv)
    # Re-anchor the incremental recon-digest folds from the actual stored
    # state: hard links through another naming directory can leave them
    # stale, which only delays pruning but would delay it indefinitely if
    # never repaired.  Reconciliation visits every diverged directory, so
    # this is the natural repair point.
    store.refresh_dir_digests(dir_fh)

    merged = store.read_entries(dir_fh)
    result.collisions_repaired = count_name_collisions(merged)
    for entry in merged:
        if not entry.live:
            continue
        if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
            result.child_directories.append(entry.fh)
        elif entry.etype in (EntryType.FILE, EntryType.SYMLINK):
            result.child_files.append(entry)
