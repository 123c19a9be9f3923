"""Invoking a resolver on a detected conflict and installing the merge.

The reconciliation walk calls :func:`auto_resolve_conflict` the moment a
pull reports CONCURRENT version vectors.  On success the merged contents
are installed through the same dominate-and-propagate mechanism manual
resolution uses — :meth:`ReplicaStore.install`, the merge written into
the file's own inode, whose write commits it — with the version vector
``local_vv.merge(remote_vv)``.  The merge (pointwise
max, *no* bump) is deliberate:

* it is a pure function of the two inputs, so both hosts commit the
  identical vector and the identical bytes — the next reconciliation
  round compares them EQUAL and resolutions never re-conflict;
* it strictly dominates both concurrent inputs, so the resolution
  propagates to (and supersedes) every replica holding either version;
* it can never swallow an unseen third-replica update: such an update
  has a vv concurrent with (or dominating) the merge, so it surfaces as
  a fresh conflict instead of being silently shadowed.
"""

from __future__ import annotations

import enum

from repro.errors import FileNotFound, HostUnreachable, StaleFileHandle
from repro.physical import ReplicaStore
from repro.resolvers.base import ConflictPair, ResolverError
from repro.resolvers.registry import ResolverRegistry
from repro.util import FicusFileHandle
from repro.vnode.interface import Vnode


class ResolveOutcome(enum.Enum):
    RESOLVED = "resolved"  # merged contents committed locally
    FALLBACK = "fallback"  # covered, but the resolver declined or failed
    NOT_COVERED = "not-covered"  # no resolver governs this file
    UNREACHABLE = "unreachable"  # partition mid-resolve; retry next round


def auto_resolve_conflict(
    store: ReplicaStore,
    parent_fh: FicusFileHandle,
    fh: FicusFileHandle,
    name: str,
    remote_dir: Vnode,
    pull,
    registry: ResolverRegistry,
    conflict_log=None,
    health=None,
) -> ResolveOutcome:
    """Try to resolve one concurrent-update conflict automatically.

    ``pull`` is the CONFLICT-outcome :class:`~repro.recon.propagate.PullResult`
    (its ``remote_aux`` carries the remote's policy tag and ancestor).
    Resolution is local-commit-only: the merged version propagates to the
    remote by the normal mechanisms — and since the remote resolves the
    mirror-image conflict to the same bytes and the same vector, the two
    commits reconcile as EQUAL.
    """
    stored = store.stored_file(parent_fh, fh)
    if stored is None:
        return ResolveOutcome.NOT_COVERED  # entry-only replica; nothing to merge
    local_aux = store.read_record(fh)
    remote_aux = getattr(pull, "remote_aux", None)
    remote_tag = remote_aux.merge_policy if remote_aux is not None else ""
    tag = registry.policy_for(name, local_aux.merge_policy, remote_tag)
    if not tag:
        if local_aux.merge_policy and remote_tag:
            # both sides declared a policy and they disagree: covered but
            # unresolvable until an owner settles the tag itself
            _note_fallback(health, name, "policy-tags-disagree")
            return ResolveOutcome.FALLBACK
        return ResolveOutcome.NOT_COVERED
    resolver = registry.resolver(tag)
    if resolver is None:
        _note_fallback(health, name, f"no resolver registered for {tag!r}")
        return ResolveOutcome.FALLBACK

    from repro.recon.propagate import fetch_file  # repro.recon imports this module

    local_contents = stored.read_all()
    try:
        fetched = fetch_file(remote_dir, fh, local_contents, health)
    except (HostUnreachable, StaleFileHandle, FileNotFound):
        return ResolveOutcome.UNREACHABLE  # partitioned, or the entry raced away; retry
    if fetched is None or fetched.vv != pull.remote_vv:
        # merge exactly the version the conflict named, or nothing
        return ResolveOutcome.UNREACHABLE

    pair = ConflictPair(
        local=local_contents,
        remote=fetched.contents,
        local_vv=pull.local_vv,
        remote_vv=pull.remote_vv,
        local_ancestor=local_aux.ancestor_digests(),
        remote_ancestor=remote_aux.ancestor_digests() if remote_aux is not None else None,
    )
    try:
        merged = resolver.merge(pair)
    except ResolverError as exc:
        _note_fallback(health, name, str(exc), tag=tag)
        return ResolveOutcome.FALLBACK

    resolved_vv = pull.local_vv.merge(pull.remote_vv)
    # the governing tag (declared remotely or sniffed) is installed with the
    # merge, so later conflicts need no sniff; no vv bump — the tag is
    # determined by the same inputs on every host, so this cannot diverge
    store.install(parent_fh, fh, merged, resolved_vv, tag, stored=stored)
    if conflict_log is not None:
        conflict_log.mark_resolved(fh, resolved_vv)
    if health is not None:
        health.resolution_applied(
            name=name,
            fh=fh,
            tag=tag,
            local_vv=pull.local_vv,
            remote_vv=pull.remote_vv,
            resolved_vv=resolved_vv,
        )
    return ResolveOutcome.RESOLVED


def _note_fallback(health, name: str, reason: str, tag: str = "") -> None:
    if health is not None:
        health.resolution_fallback(name=name, tag=tag, reason=reason)
