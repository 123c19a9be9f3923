"""Regular-file update propagation (paper Section 3.2).

"For regular files, update propagation is simply a matter of atomically
replacing the contents of the local replica with those of a newer version
remote replica.  Ficus contains a single-file atomic commit service to
support file update propagation."

The pull compares version vectors first:

* remote EQUAL / DOMINATED  -> nothing to do (we are as new or newer),
                              once the local replica stores the file
* remote DOMINATES          -> pull, installed by the atomic commit
* CONCURRENT                -> a conflict: report, never merge silently

The atomic commit is :meth:`ReplicaStore.install`: the version is written
into the file's own inode, whose write commits it, so a crash leaves the
old version or the new one.  An update session advances its file's
vector before its first write, so until it closes the remote's vector
names contents still being written: a remote the attribute batch names as
``writing`` defers the pull before any vector is compared, so neither a
pull nor a resolver merge copies a half-written version, and the close's
notification asks again.  A remote that is not older than a *local*
session that has written is concurrent with it, and defers too: a merge
installed now would sit under the session's next write.

When both sides store the file, the pull is a *block delta* (rsync-style):
fetch the remote's block signatures, pull only the blocks whose content
hashes differ, splice them with the local copy's other blocks in memory,
and install the result exactly as the whole-file path does.  The whole-file
copy remains as the fallback — the remote changed out-of-band between
the attribute fetch and the digest fetch (the pull then restarts from a
fresh record), or the delta would be no smaller than the file itself.

The directory is the unit of work: :func:`pull_children` decides every
file of a directory from the one ``getattrs_batch`` its directory pass
already fetched, so a diverged directory of N files with k changed costs
the directory read, that batch and k transfers — not N attribute fetches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FileNotFound, HostUnreachable, StaleFileHandle
from repro.physical import FicusPhysicalLayer, ReplicaStore
from repro.physical.policy import StoragePolicy
from repro.physical.wire import AttrBatch, AuxAttributes, content_digest, split_blocks
from repro.recon.directory import reconcile_directory
from repro.util import FicusFileHandle
from repro.vnode.interface import Vnode, read_whole
from repro.vv import Ordering, VersionVector


class PullOutcome(enum.Enum):
    UP_TO_DATE = "up-to-date"  # local dominates or equals remote
    PULLED = "pulled"  # remote version installed locally
    CONFLICT = "conflict"  # concurrent updates detected
    REMOTE_MISSING = "remote-missing"  # remote replica does not store the file
    UNREACHABLE = "unreachable"  # partition/crash interrupted the pull
    LOCAL_DEAD = "local-dead"  # no live local entry names the file anymore
    DEFERRED = "deferred"  # a session, remote or local, is writing the file


@dataclass
class PullResult:
    outcome: PullOutcome
    local_vv: VersionVector
    remote_vv: VersionVector
    bytes_copied: int = 0
    #: bytes the block-delta path did NOT copy (file size minus delta)
    bytes_saved: int = 0
    #: the remote aux record already fetched for the vv comparison; a
    #: CONFLICT result carries it so the resolver subsystem can read the
    #: remote's policy tag and merge ancestor without a second RPC
    remote_aux: object | None = None


def pull_file(
    store: ReplicaStore,
    parent_fh: FicusFileHandle,
    fh: FicusFileHandle,
    remote_dir: Vnode,
    health=None,
    origin: str = "",
    batch: AttrBatch | None = None,
    live: bool = False,
    delta: bool = True,
    writing: frozenset[FicusFileHandle] = frozenset(),
) -> PullResult:
    """Bring the local replica of one file up to the remote version.

    ``remote_dir`` is the remote physical directory vnode holding the
    file (possibly an NFS client vnode).  Crash-safe: the install is the
    single-file atomic commit (:meth:`ReplicaStore.install`).  ``health``
    (optional) is the pulling host's HealthPlane: a fetched block that
    fails digest verification fires its ``pull_digest_mismatch`` anomaly
    before the pull falls back to the whole-file copy, and an installed
    version is appended to its provenance ledger — parent: the local
    version it superseded — with ``origin`` (the host pulled from) as the
    sync-origin annotation.

    ``batch`` is the remote directory's attribute batch when the caller
    already holds one (:func:`pull_children`); without it the file's own
    record is fetched here.  ``live`` says the caller took ``fh`` from a
    live local entry; ``delta=False`` goes straight to the whole-file copy.
    ``writing`` names the local files an open update session has written
    (:meth:`FicusPhysicalLayer.written_sessions`): none of them takes a
    pull or a merge until its session closes.
    """
    parent_fh = parent_fh.logical
    fh = fh.logical

    # local state: the file may have an entry here but no storage yet
    # (the entry arrived by directory reconciliation).
    local_stored = store.has_file(parent_fh, fh)
    local_vv = store.read_record(fh).vv if local_stored else VersionVector()
    if not local_stored and not live:
        # A delete can land between a new-version note being queued and
        # serviced.  Materializing storage for a tombstoned (or unknown)
        # entry would leak it forever — the GC only runs on the live→dead
        # transition — so refuse unless a live entry names the file.
        live_here = any(
            e.live and e.fh.logical == fh for e in store.read_entries(parent_fh)
        )
        if not live_here:
            return PullResult(PullOutcome.LOCAL_DEAD, local_vv, VersionVector())

    if batch is None:
        try:
            batch = remote_dir.getattrs_batch([fh])
        except FileNotFound:
            return PullResult(PullOutcome.REMOTE_MISSING, local_vv, VersionVector())
        except (HostUnreachable, StaleFileHandle):
            return PullResult(PullOutcome.UNREACHABLE, local_vv, VersionVector())
    remote_aux = batch.child(fh)
    if remote_aux is None:
        # the batch answers for the whole directory in one call; a missing
        # child record means the remote replica does not store the file
        return PullResult(PullOutcome.REMOTE_MISSING, local_vv, VersionVector())
    remote_vv = remote_aux.vv
    if fh in batch.writing:
        # the remote's vector is its open session's: the contents under it
        # are not final until the close, which announces them
        return PullResult(PullOutcome.DEFERRED, local_vv, remote_vv)

    order = local_vv.compare(remote_vv)
    # a file created empty keeps the empty vector until its first write,
    # which an unstored replica's vector equals: EQUAL is up to date only
    # where the contents are stored
    if order is Ordering.DOMINATES or (order is Ordering.EQUAL and local_stored):
        return PullResult(PullOutcome.UP_TO_DATE, local_vv, remote_vv)
    if fh in writing:
        # a local session has written the file and not closed: a merge
        # installed now would sit under the session's later writes
        return PullResult(PullOutcome.DEFERRED, local_vv, remote_vv)
    if order is Ordering.CONCURRENT:
        return PullResult(PullOutcome.CONFLICT, local_vv, remote_vv, remote_aux=remote_aux)

    # remote strictly dominates: install it by the atomic commit.  With a
    # local copy to diff against, try the block-delta path first.
    if local_stored and delta:
        result = _delta_pull(store, parent_fh, fh, remote_dir, local_vv, remote_aux, health, origin)
        if result is _REMOTE_MOVED:
            # the record that chose ``remote_vv`` is stale (a directory-wide
            # batch can be many transfers old): start over from a fresh one
            # and copy the whole file, so the (contents, vv) pair installed
            # is one the remote actually held
            return pull_file(
                store, parent_fh, fh, remote_dir, health, origin, live=True, delta=False, writing=writing
            )
        if result is not None:
            return result

    try:
        try:
            contents = read_whole(remote_dir.lookup_fh(fh))
        except StaleFileHandle:
            # a lookup cached before the remote rebooted names a vnode it no
            # longer knows; the ESTALE purged it, so look the file up again
            contents = read_whole(remote_dir.lookup_fh(fh))
    except (HostUnreachable, StaleFileHandle):
        return PullResult(PullOutcome.UNREACHABLE, local_vv, remote_vv)
    except FileNotFound:
        return PullResult(PullOutcome.REMOTE_MISSING, local_vv, remote_vv)

    # a strictly dominating remote has seen every local policy change (one
    # bumps the vector), so its tag is installed with its version
    store.install(parent_fh, fh, contents, remote_vv, remote_aux.merge_policy, remote_aux.etype)
    if health is not None:
        health.record_version("pull", fh, remote_vv, parents=(local_vv,), origin=origin)
    return PullResult(PullOutcome.PULLED, remote_vv, remote_vv, bytes_copied=len(contents))


#: :func:`_delta_pull`'s "the remote is no longer at the version the
#: attribute record promised" reply
_REMOTE_MOVED = object()


def _delta_pull(
    store: ReplicaStore,
    parent_fh: FicusFileHandle,
    fh: FicusFileHandle,
    remote_dir: Vnode,
    local_vv: VersionVector,
    remote_aux: AuxAttributes,
    health=None,
    origin: str = "",
) -> PullResult | object | None:
    """Try to install the remote version ``remote_aux`` describes by
    copying only changed blocks.

    Returns ``None`` to fall back to the whole-file copy (the delta would
    not be smaller than the file), ``_REMOTE_MOVED`` when the remote
    replica is no longer at ``remote_vv`` (the signatures describe another
    version, or a fetched block failed verification), or a final
    :class:`PullResult` when the delta path settled the pull itself.
    """
    remote_vv = remote_aux.vv
    try:
        sig = remote_dir.block_digests(fh)
    except (HostUnreachable, StaleFileHandle):
        return PullResult(PullOutcome.UNREACHABLE, local_vv, remote_vv)
    except FileNotFound:
        return PullResult(PullOutcome.REMOTE_MISSING, local_vv, remote_vv)
    if sig.vv != remote_vv:
        # out-of-band change (e.g. another reconciler updated the remote
        # between our attribute fetch and this call): the signatures no
        # longer describe the version we decided to install
        return _REMOTE_MOVED

    local_blocks = split_blocks(store.file_vnode(parent_fh, fh).read_all(), sig.block_size)
    local_digests = [content_digest(block) for block in local_blocks]
    changed = {
        index
        for index, digest in enumerate(sig.digests)
        if index >= len(local_digests) or local_digests[index] != digest
    }
    if changed and len(changed) * sig.block_size >= sig.size:
        return None  # the delta is no smaller than the file itself

    fetched: dict[int, bytes] = {}
    if changed:
        try:
            fetched = remote_dir.read_blocks(fh, sorted(changed))
        except FileNotFound:
            return None
        except (HostUnreachable, StaleFileHandle):
            return PullResult(PullOutcome.UNREACHABLE, local_vv, remote_vv)

    pieces: list[bytes] = []
    for index, digest in enumerate(sig.digests):
        if index in changed:
            block = fetched.get(index)
            if block is None or content_digest(block) != digest:
                # the remote moved on mid-pull, or the payload was
                # corrupted in flight; replay as a whole file
                if health is not None:
                    health.anomaly(
                        "pull_digest_mismatch",
                        fh=fh.to_hex(),
                        block=index,
                        expected=digest,
                    )
                return _REMOTE_MOVED
            pieces.append(block)
        else:
            pieces.append(local_blocks[index])
    contents = b"".join(pieces)[: sig.size]
    if len(contents) != sig.size:
        return None

    store.install(parent_fh, fh, contents, remote_vv, remote_aux.merge_policy)
    if health is not None:
        health.record_version("pull", fh, remote_vv, parents=(local_vv,), origin=origin)
    delta_bytes = sum(len(block) for block in fetched.values())
    return PullResult(
        PullOutcome.PULLED,
        remote_vv,
        remote_vv,
        bytes_copied=delta_bytes,
        bytes_saved=max(0, sig.size - delta_bytes),
    )


def pull_children(
    store: ReplicaStore,
    dir_fh: FicusFileHandle,
    remote_dir: Vnode,
    batch: AttrBatch,
    entries,
    policy: StoragePolicy | None = None,
    health=None,
    origin: str = "",
    writing: frozenset[FicusFileHandle] = frozenset(),
):
    """Bring the files of one directory up to the remote's versions.

    The per-directory unit both consumers of the sync plane share:
    ``entries`` are live local file entries, ``batch`` the remote
    directory's attribute batch, so deciding costs no RPC per child and
    only a child the remote strictly dominates pays for a transfer.
    Yields ``(entry, PullResult)`` as each child is settled, ``(entry,
    None)`` for one the storage ``policy`` declines (it stays entry-only).
    ``writing`` is :func:`pull_file`'s: the local files mid-session.
    """
    for entry in entries:
        if policy is not None and not policy.wants(entry) and not store.has_file(dir_fh, entry.fh):
            yield entry, None
        else:
            yield entry, pull_file(
                store, dir_fh, entry.fh, remote_dir, health, origin, batch, live=True, writing=writing
            )


def push_notify_pull(
    physical: FicusPhysicalLayer,
    notes,
    remote_dir: Vnode,
) -> tuple[dict[FicusFileHandle, PullResult], bool]:
    """Service the notes one source left for one directory (what the
    propagation daemon does per group).

    Directory updates are "replayed", not copied: a ``dir`` note runs the
    directory reconciliation algorithm against the notifying replica —
    once — and pulls the files the merge reveals; ``file`` notes alone
    need one batch naming just the noted files.  Returns the results by
    logical handle (a noted file absent from them has no live, wanted
    entry here) and whether the merge changed the directory; raises
    :class:`~repro.errors.FicusError` when the remote cannot be read.
    """
    first = notes[0]
    volrep = first.key.volrep
    store = physical.store_for(volrep)
    dir_fh = first.key.parent_fh.logical
    changed = False
    # one store operation for the group: however many notes it holds, the
    # directory's records are flushed once, before the caller announces it
    with store.operation():
        if any(note.objkind == "dir" for note in notes):
            merged = reconcile_directory(physical, store, dir_fh, remote_dir)
            if merged.unreachable:
                raise HostUnreachable(first.src_addr)
            batch, entries, changed = merged.remote_attrs, merged.child_files, merged.changed
        else:
            wanted = dict.fromkeys(note.key.fh.logical for note in notes)
            batch = remote_dir.getattrs_batch(list(wanted))
            entries = [e for e in store.read_entries(dir_fh) if e.live and e.fh.logical in wanted]
        policy, writing = physical.policy_for(volrep), physical.written_sessions(store)
        children = pull_children(
            store, dir_fh, remote_dir, batch, entries, policy, physical.health, first.src_addr, writing
        )
        return {entry.fh.logical: pull for entry, pull in children if pull is not None}, changed
