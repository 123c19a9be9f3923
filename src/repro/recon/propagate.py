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

A pull is one transfer, ``read_blocks``, whether the file is new here or
not: the puller sends the digests of the blocks it stores (none for a new
file), and the remote reads the file once and answers with the version
vector it read, the size and every block whose digest differs, each with
its digest (rsync-style).  The puller checks each block that crossed,
splices in its own others and installs the result.  The install happens
only when the reply's vector is the one the pull decided on, so the
(contents, vector) pair installed is one the remote held.  A reply at
another version, or with a block that fails its digest, installs nothing
and the pull is ``UNREACHABLE``: the note or pass that asked stays
unsettled and asks again from a fresh record.

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
from repro.physical.wire import DELTA_BLOCK_SIZE, AttrBatch, content_digest, split_blocks
from repro.recon.directory import reconcile_directory
from repro.util import FicusFileHandle
from repro.vnode.interface import Vnode
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
    #: bytes the pull did NOT copy: the local blocks the remote's matched
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
    writing: frozenset[FicusFileHandle] = frozenset(),
) -> PullResult:
    """Bring the local replica of one file up to the remote version.

    ``remote_dir`` is the remote physical directory vnode holding the
    file (possibly an NFS client vnode).  Crash-safe: the install is the
    single-file atomic commit (:meth:`ReplicaStore.install`).  ``health``
    (optional) is the pulling host's HealthPlane: a fetched block that
    fails digest verification fires its ``pull_digest_mismatch`` anomaly
    (the pull installs nothing), and an installed version is appended to
    its provenance ledger — parent: the local version it superseded — with
    ``origin`` (the host pulled from) as the sync-origin annotation.

    ``batch`` is the remote directory's attribute batch when the caller
    already holds one (:func:`pull_children`); without it the file's own
    record is fetched here.  ``live`` says the caller took ``fh`` from a
    live local entry.
    ``writing`` names the local files an open update session has written
    (:meth:`FicusPhysicalLayer.written_sessions`): none of them takes a
    pull or a merge until its session closes.
    """

    # local state: the file may have an entry here but no storage yet
    # (the entry arrived by directory reconciliation).  Asked once: the
    # vnode serves the read and the install below.
    stored = store.stored_file(parent_fh, fh)
    local_stored = stored is not None
    local_vv = store.read_record(fh).vv if local_stored else VersionVector()
    if not local_stored and not live:
        # A delete can land between a new-version note being queued and
        # serviced.  Materializing storage for a tombstoned (or unknown)
        # entry would leak it forever — the GC only runs on the live→dead
        # transition — so refuse unless a live entry names the file.
        live_here = any(
            e.live and e.fh == fh for e in store.read_entries(parent_fh)
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

    # remote strictly dominates: one transfer, installed by the atomic
    # commit only if it is the version just decided on
    local = stored.read_all() if local_stored else b""
    try:
        fetched = fetch_file(remote_dir, fh, local, health)
    except (HostUnreachable, StaleFileHandle):
        return PullResult(PullOutcome.UNREACHABLE, local_vv, remote_vv)
    except FileNotFound:
        return PullResult(PullOutcome.REMOTE_MISSING, local_vv, remote_vv)
    if fetched is None or fetched.vv != remote_vv:
        # a block failed its digest, or the remote moved past the record
        # that chose ``remote_vv`` (a directory-wide batch can be many
        # transfers old): install nothing, and the note or pass that
        # asked stays unsettled until a fresh record asks again
        return PullResult(PullOutcome.UNREACHABLE, local_vv, remote_vv)

    # a strictly dominating remote has seen every local policy change (one
    # bumps the vector), so its tag is installed with its version
    store.install(
        parent_fh, fh, fetched.contents, remote_vv, remote_aux.merge_policy, remote_aux.etype, stored=stored
    )
    if health is not None:
        health.record_version("pull", fh, remote_vv, parents=(local_vv,), origin=origin)
    return PullResult(
        PullOutcome.PULLED,
        remote_vv,
        remote_vv,
        bytes_copied=fetched.copied,
        bytes_saved=len(fetched.contents) - fetched.copied,
    )


@dataclass
class Fetched:
    """A remote file's contents as one ``read_blocks`` reply rebuilt them."""

    vv: VersionVector
    contents: bytes
    #: payload bytes that crossed (the rest were the asker's own blocks)
    copied: int


def fetch_file(remote_dir: Vnode, fh: FicusFileHandle, local: bytes = b"", health=None) -> Fetched | None:
    """Read the remote replica of ``fh`` in one ``read_blocks`` call.

    ``local`` is the asker's copy: its blocks go as digests, and only the
    remote's other blocks come back.  Every block that crossed is checked
    against its digest; ``None`` means one failed (``health``'s
    ``pull_digest_mismatch`` anomaly fires).  The caller compares the
    reply's vector with the version it asked for.  RPC errors propagate.
    """
    mine = split_blocks(local)
    reply = remote_dir.read_blocks(fh, [content_digest(block) for block in mine])
    for index, (digest, data) in reply.blocks.items():
        if content_digest(data) != digest:
            if health is not None:
                health.anomaly("pull_digest_mismatch", fh=fh.to_hex(), block=index, expected=digest)
            return None
    count = -(-reply.size // DELTA_BLOCK_SIZE)
    contents = b"".join(reply.blocks[i][1] if i in reply.blocks else mine[i] for i in range(count))
    copied = sum(len(data) for _, data in reply.blocks.values())
    return Fetched(reply.vv, contents, copied)


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
        if policy is not None and not policy.wants(entry) and store.stored_file(dir_fh, entry.fh) is None:
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
    handle (a noted file absent from them has no live, wanted
    entry here) and whether the merge changed the directory; raises
    :class:`~repro.errors.FicusError` when the remote cannot be read.
    """
    first = notes[0]
    volrep = first.key.volrep
    store = physical.store_for(volrep)
    dir_fh = first.key.parent_fh
    changed = False
    # one store operation for the group: however many notes it holds, the
    # directory's records are flushed once, before the caller announces it
    with store.operation():
        if any(note.objkind == "dir" for note in notes):
            merged = reconcile_directory(physical, store, dir_fh, remote_dir)
            batch, entries, changed = merged.remote_attrs, merged.child_files, merged.changed
        else:
            wanted = dict.fromkeys(note.key.fh for note in notes)
            batch = remote_dir.getattrs_batch(list(wanted))
            entries = [e for e in store.read_entries(dir_fh) if e.live and e.fh in wanted]
        policy, writing = physical.policy_for(volrep), physical.written_sessions(store)
        children = pull_children(
            store, dir_fh, remote_dir, batch, entries, policy, physical.health, first.src_addr, writing
        )
        return {entry.fh: pull for entry, pull in children if pull is not None}, changed
