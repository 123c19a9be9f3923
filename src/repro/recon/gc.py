"""Two-phase tombstone garbage collection.

Tombstones keep deletions winning against stale inserts, but a tombstone
is only needed until *every* replica of the volume has seen the delete.
Each tombstone accumulates a deletion-acknowledgement set (``acks``) as
reconciliation spreads it; once the set covers every replica, the record
is garbage on every replica simultaneously and can be purged locally with
no further coordination — the classic two-phase scheme the paper defers
to Guy's dissertation [8].

Safety argument for the purge rule: ``acks ⊇ all replicas`` means every
replica has recorded the tombstone, so no replica anywhere still carries
the entry live; nothing remains for the tombstone to win against.  A
reconciliation partner that still *has* the (fully-acknowledged)
tombstone must therefore not re-teach it to a replica that already purged
it — :func:`repro.physical.vnodes.PhysicalDirVnode.apply_tombstone` is
only invoked for tombstones that are not yet fully acknowledged at the
teaching side, guaranteed by running collection before teaching.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.physical import ReplicaStore
from repro.util import FicusFileHandle


@dataclass
class GcResult:
    """Outcome of one collection pass over a volume replica."""

    directories_scanned: int = 0
    tombstones_seen: int = 0
    tombstones_purged: int = 0


def collect_directory(
    store: ReplicaStore,
    dir_fh: FicusFileHandle,
    all_replicas: frozenset[int],
) -> tuple[int, int]:
    """Advance tombstones through the two phases; purge completed ones.

    Phase transition: when this replica observes that every replica has
    acknowledged the deletion (``acks`` full), it adds itself to the
    phase-2 set.  Purge: only when ``acks2`` is full — i.e. every replica
    is known to have observed phase-1 completion, so nobody still needs
    this record to fill in their acknowledgement sets.

    Returns (tombstones seen, tombstones purged).
    """
    if not all_replicas:
        entries = store.read_entries(dir_fh)
        return (sum(1 for e in entries if not e.live), 0)
    entries = store.read_entries(dir_fh)
    keep = []
    seen = 0
    purged = 0
    dirty = False
    me = store.replica_id
    for entry in entries:
        if entry.live:
            keep.append(entry)
            continue
        seen += 1
        if entry.acks >= all_replicas and me not in entry.acks2:
            entry = entry.with_acks(entry.acks, entry.acks2 | {me})
            dirty = True
        if entry.acks2 >= all_replicas:
            purged += 1
            dirty = True
        else:
            keep.append(entry)
    if dirty:
        store.write_entries(dir_fh, keep)
    return seen, purged


def collect_volume_replica(store: ReplicaStore, all_replicas: frozenset[int]) -> GcResult:
    """Run tombstone collection over every directory of a volume replica."""
    result = GcResult()
    for dir_fh in store.all_directory_handles():
        seen, purged = collect_directory(store, dir_fh, all_replicas)
        result.directories_scanned += 1
        result.tombstones_seen += seen
        result.tombstones_purged += purged
    return result
