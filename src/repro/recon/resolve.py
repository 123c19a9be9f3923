"""Owner-driven conflict resolution for regular files.

The paper reports file conflicts to the owner and leaves resolution to
them.  This module provides the primitive the owner (or a resolver tool)
uses: install chosen contents with a version vector that *dominates* every
conflicting version, so the resolution propagates everywhere and the
conflict cannot re-surface.
"""

from __future__ import annotations

from repro.physical import ReplicaStore
from repro.recon.conflicts import ConflictLog
from repro.util import FicusFileHandle
from repro.vv import VersionVector


def resolve_file_conflict(
    store: ReplicaStore,
    parent_fh: FicusFileHandle,
    fh: FicusFileHandle,
    chosen_contents: bytes,
    observed_vvs: list[VersionVector],
    conflict_log: ConflictLog | None = None,
    health=None,
) -> VersionVector:
    """Install ``chosen_contents`` as the post-conflict version.

    The new version vector is the merge of every observed conflicting
    vector, bumped at this replica: it strictly dominates all of them, so
    normal update propagation carries the resolution to every replica.
    ``health`` (optional, the resolving host's HealthPlane) ledgers the
    resolution as a merge-kind provenance node whose parents are every
    observed conflicting version.
    """
    local_aux = store.read_record(fh)
    local_vv = local_aux.vv
    merged = local_vv
    for vv in observed_vvs:
        merged = merged.merge(vv)
    resolved_vv = merged.bump(store.replica_id)
    stored = store.stored_file(parent_fh, fh)
    store.install(parent_fh, fh, chosen_contents, resolved_vv, local_aux.merge_policy, stored=stored)

    if conflict_log is not None:
        conflict_log.mark_resolved(fh, resolved_vv)
    if health is not None:
        # one parent per distinct observed version, in encoding order
        parents = tuple(sorted({local_vv, *observed_vvs}, key=VersionVector.encode))
        health.record_version("resolve", fh, resolved_vv, parents=parents, detail="owner")
    return resolved_vv
