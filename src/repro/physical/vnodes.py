"""Vnodes exported by the Ficus physical layer.

The physical layer "implements the concept of a file replica" (paper
Section 2.6).  Its vnodes are:

* :class:`PhysicalRootVnode` — names the volume replicas this host stores.
* :class:`PhysicalDirVnode` — one Ficus directory replica (or graft
  point).  ``lookup`` takes names and performs the dual mapping (name ->
  Ficus file handle via the directory file, handle -> inode via the
  hex-encoded UFS name).  Everything else a caller may ask of a replica is
  a vnode operation our NFS forwards: update-session brackets, the
  attribute and sync planes, access by handle (``lookup_fh``, for a child
  file or any directory of the volume replica) and entry
  ``insert``/``remove_entry``.
  The directory has no ``create``/``mkdir``/``remove``/``rmdir``/``rename``
  of its own — the logical layer composes those from insert and remove —
  and installing a version belongs to the store, called by the
  reconciliation that runs beside it, never remotely.
* :class:`PhysicalFileVnode` — one regular-file (or symlink) replica;
  writes advance the replica's version vector, and so does a ``setattr``
  of its size or of its merge-policy tag.

Name conflicts between live entries (possible after optimistic concurrent
inserts) are repaired *deterministically at read time*: every replica
computes the same effective names from the same entry set, so the repair
itself needs no coordination.
"""

from __future__ import annotations

import dataclasses
from functools import partial, wraps

from repro.errors import (
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NotADirectory,
)
from repro.physical.store import ReplicaStore
from repro.physical.wire import (
    AttrBatch,
    AuxAttributes,
    BlockDigests,
    DirectoryEntry,
    EntryId,
    EntryType,
    SyncProbe,
)
from repro.telemetry import spanned
from repro.ufs.inode import FileAttributes, FileType
from repro.ufs.layout import MAX_NAME_LEN
from repro.util import FicusFileHandle
from repro.vnode.interface import ROOT_CTX, DirEntry, OpContext, SetAttrs, Vnode, unix_permits
from repro.vv import VersionVector

_spanned = partial(spanned, layer="physical", host="layer.host_addr")

#: The file type ``readdir`` reports for each user-visible entry type
#: (``LOCATION`` entries are graft-point metadata and never listed).
ENTRY_FILE_TYPES = {
    EntryType.FILE: FileType.REGULAR,
    EntryType.SYMLINK: FileType.SYMLINK,
    EntryType.DIRECTORY: FileType.DIRECTORY,
    EntryType.GRAFT_POINT: FileType.DIRECTORY,
}


def _one_operation(method):
    """Run a directory vnode's mutation as one store operation: what it
    stages for ``.fdir`` and the attribute table is flushed once, before it
    returns."""

    @wraps(method)
    def scoped(self, *args, **kwargs):
        with self.store.operation():
            return method(self, *args, **kwargs)

    return scoped


#: Separator used when repairing a live-name collision: the colliding
#: entries after the first become ``name#<entry-id>``.
CONFLICT_SEP = "#"


def effective_entries(entries: list[DirectoryEntry]) -> dict[str, DirectoryEntry]:
    """Map user-visible names to live entries, repairing collisions.

    Concurrent partitioned inserts can leave two live entries with the same
    name.  Every replica applies the same rule — the entry with the lowest
    entry-id keeps the plain name, later ones are shown as
    ``name#<entry-id>`` — so the repaired view converges with no messages.
    """
    by_name: dict[str, list[DirectoryEntry]] = {}
    for entry in entries:
        if entry.live:
            by_name.setdefault(entry.name, []).append(entry)
    view: dict[str, DirectoryEntry] = {}
    for name, group in by_name.items():
        group.sort(key=lambda e: e.eid)
        view[name] = group[0]
        for extra in group[1:]:
            view[f"{name}{CONFLICT_SEP}{extra.eid.encode()}"] = extra
    return view


def count_name_collisions(entries: list[DirectoryEntry]) -> int:
    """How many live entries currently need a repaired (suffixed) name."""
    by_name: dict[str, int] = {}
    for entry in entries:
        if entry.live:
            by_name[entry.name] = by_name.get(entry.name, 0) + 1
    return sum(n - 1 for n in by_name.values() if n > 1)


class PhysicalRootVnode(Vnode):
    """Root of the physical layer's namespace: one name per volume replica."""

    def __init__(self, layer: "FicusPhysicalLayer"):  # noqa: F821
        self.layer = layer

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        return self.layer.lower_root.getattr(ctx)

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        store = self.layer.store_by_hex(name)
        return self.layer.dir_vnode(store, store.root_handle())

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        out = []
        for volrep, store in sorted(self.layer.stores.items(), key=lambda kv: kv[0].to_hex()):
            fileid = store.dir_unix_vnode(store.root_handle()).getattr().fileid
            out.append(DirEntry(name=volrep.to_hex(), fileid=fileid, ftype=FileType.DIRECTORY))
        return out

    def __repr__(self) -> str:
        return f"PhysicalRootVnode({self.layer.host_addr})"


class PhysicalDirVnode(Vnode):
    """One Ficus directory replica (also used for graft points)."""

    def __init__(
        self,
        layer: "FicusPhysicalLayer",  # noqa: F821
        store: ReplicaStore,
        fh: FicusFileHandle,
    ):
        self.layer = layer
        self.store = store
        self.fh = fh.logical
        # stable per Telemetry hub — bound once to shorten the per-op path
        self._tracer = layer.telemetry.tracer

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PhysicalDirVnode)
            and other.store is self.store
            and other.fh == self.fh
        )

    def __hash__(self) -> int:
        return hash((id(self.store), self.fh))

    # -- helpers -----------------------------------------------------------

    def _fdir_vnode(self) -> Vnode:
        from repro.physical.wire import FDIR_NAME

        return self.store.dir_unix_vnode(self.fh).lookup(FDIR_NAME)

    def entries(self) -> list[DirectoryEntry]:
        """All entries including tombstones (reconciliation reads these)."""
        return self.store.read_entries(self.fh)

    def aux(self) -> AuxAttributes:
        return self.store.read_record(self.fh)

    def _child_vnode(self, entry: DirectoryEntry) -> Vnode:
        if entry.etype == EntryType.LOCATION:
            raise FileNotFound(f"{entry.name!r} is graft-point metadata, not a file")
        if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
            if not self.store.has_directory(entry.fh):
                raise FileNotFound(f"directory {entry.fh} not stored in this volume replica")
            return self.layer.dir_vnode(self.store, entry.fh)
        if not self.store.has_file(self.fh, entry.fh):
            raise ReplicaNotStored(
                f"file {entry.fh} has an entry here but its contents are not "
                "stored in this volume replica yet"
            )
        return self.layer.file_vnode(self.store, self.fh, entry.fh, entry.etype)

    def find_live_by_fh(self, fh: FicusFileHandle) -> DirectoryEntry | None:
        """The live entry naming ``fh`` here, if any.  Handles compare by
        their cached hash first: a full comparison is a nested one."""
        logical = fh.logical
        key = hash(logical)
        for entry in self.entries():
            if hash(entry.fh) == key and entry.fh == logical and entry.live:
                return entry
        return None

    # -- attributes ----------------------------------------------------------

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        assert self.store.flushed(self.fh), "getattr of a directory with staged records"
        attrs = self._fdir_vnode().getattr(ctx)
        attrs = dataclasses.replace(attrs, ftype=FileType.DIRECTORY)
        self.layer.register_vnode(attrs.fileid, self)
        return attrs

    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        if attrs.size is not None:
            raise IsADirectory("cannot truncate a directory")
        if attrs.policy is not None:
            raise InvalidArgument("a directory has no merge policy")
        self._fdir_vnode().setattr(attrs, ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return unix_permits(self.getattr(ctx), ctx.cred, mode)

    # -- data: a Ficus directory IS a file, so it can be read ------------------

    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        """Read the directory file (the logical layer and the
        reconciliation protocol parse entries from these bytes), without
        the padding that fills its last block: NUL never occurs in the
        encoding, so trimming any chunk removes padding only."""
        assert self.store.flushed(self.fh), "read of a directory with staged records"
        return self._fdir_vnode().read(offset, length, ctx).rstrip(b"\0")

    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        raise InvalidArgument("Ficus directories are mutated via insert/remove operations")

    # -- lifetime ---------------------------------------------------------------

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        """Accepted: a directory replica changes only through insert and
        remove_entry, so it has no update session to begin."""

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        """Accepted, like :meth:`open`."""

    def inactive(self) -> None:
        """No per-vnode state to tear down."""

    # -- update sessions and the attribute plane (first-class Ficus ops) --------

    def session_open(self, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX) -> None:
        """Begin an update session on the child file ``fh``."""
        if self.find_live_by_fh(fh) is None:
            raise FileNotFound(f"no live entry for {fh} in directory {self.fh}")
        self.layer.session_open(self.store, fh.logical)

    def session_close(self, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX) -> bool:
        """End an update session; the coalesced version bump lands here.
        Returns True when the closing session had updated the replica."""
        return self.layer.session_close(self.store, fh.logical)

    def getattrs_batch(
        self,
        fhs: list[FicusFileHandle] | None = None,
        ctx: OpContext = ROOT_CTX,
    ) -> AttrBatch:
        """This directory's record plus its stored children's, at once.

        Replica selection needs the version vector of every candidate
        anyway; returning them in one reply collapses the logical layer's
        per-replica, per-file probes into a single RPC.  The records share
        the attribute table's blocks — a child's record is placed beside
        its directory's — so a cold batch reads a block or a few, not a
        file per child.
        """
        assert self.store.flushed(self.fh), "getattrs_batch of a directory with staged records"
        wanted = None if fhs is None else {fh.logical for fh in fhs}
        children: dict[FicusFileHandle, AuxAttributes] = {}
        for entry in self.entries():
            if not entry.live or entry.etype not in (EntryType.FILE, EntryType.SYMLINK):
                continue
            if wanted is not None and entry.fh not in wanted:
                continue
            # entry known but contents not stored here: a file with no
            # record is stored nowhere, which costs no Unix lookup to learn
            if not self.store.has_record(entry.fh) or not self.store.has_file(self.fh, entry.fh):
                continue
            children[entry.fh] = self.store.read_record(entry.fh)
        return AttrBatch(dir_aux=self.aux(), children=children)

    # -- the sync plane: recon digests and block deltas --------------------------

    def sync_probe(
        self,
        fh: FicusFileHandle | None = None,
        ctx: OpContext = ROOT_CTX,
    ) -> SyncProbe:
        """Recon digest of a directory subtree, plus per-child digests.

        ``fh=None`` probes this directory; a handle probes any directory of
        the same volume replica (so a reconciler needs no per-directory
        lookup RPC).  The child digests let the caller prune converged
        subtrees without issuing one probe per child.
        """
        assert self.store.flushed(), "sync_probe of a replica with staged records"
        target = self.fh if fh is None else fh.logical
        if not self.store.has_directory(target):
            raise FileNotFound(f"directory {target} not stored in this volume replica")
        return SyncProbe(
            digest=self.store.subtree_digest(target),
            children={
                child: self.store.subtree_digest(child)
                for child in self.store.stored_child_directories(target)
            },
        )

    def block_digests(self, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX) -> BlockDigests:
        """Block signatures of the stored child file ``fh`` (rsync-style)."""
        fh = fh.logical
        if not self.store.has_file(self.fh, fh):
            raise ReplicaNotStored(f"file {fh} contents not stored in this volume replica")
        return self.store.file_block_digests(self.fh, fh)

    def read_blocks(
        self,
        fh: FicusFileHandle,
        indices: list[int],
        ctx: OpContext = ROOT_CTX,
    ) -> dict[int, bytes]:
        """Fetch selected blocks of the stored child file ``fh`` in one call."""
        fh = fh.logical
        if not self.store.has_file(self.fh, fh):
            raise ReplicaNotStored(f"file {fh} contents not stored in this volume replica")
        return self.store.read_file_blocks(self.fh, fh, indices)

    # -- namespace ---------------------------------------------------------------

    @_spanned("physical.lookup")
    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        entry = effective_entries(self.entries()).get(name)
        if entry is None:
            raise FileNotFound(f"{name!r} not found in Ficus directory {self.fh}")
        return self._child_vnode(entry)

    @_spanned("physical.lookup_fh")
    def lookup_fh(self, fh: FicusFileHandle, ctx: OpContext = ROOT_CTX) -> Vnode:
        """The live child named here with handle ``fh``; failing that, the
        directory ``fh`` of this volume replica, wherever it is named.
        (Asking the store about a file handle first would cost a failed
        Unix lookup per file resolved.)"""
        entry = self.find_live_by_fh(fh)
        if entry is not None:
            return self._child_vnode(entry)
        if self.store.has_directory(fh):
            return self.layer.dir_vnode(self.store, fh)
        raise FileNotFound(f"no live entry or directory {fh} in {self.fh}")

    def _bump_dir_vv(self) -> None:
        aux = self.store.staged_record(self.fh)
        aux.vv = aux.vv.bump(self.store.replica_id)

    @_spanned("physical.insert")
    def insert(
        self, name: str, etype: EntryType, *, fh=None, data="", link_from=None, merge_policy="", ctx=ROOT_CTX
    ) -> DirectoryEntry:
        return self.apply_insert(name, etype, fh=fh, data=data, link_from=link_from, merge_policy=merge_policy)

    @_one_operation
    def apply_insert(
        self,
        name: str,
        etype: EntryType,
        eid: EntryId | None = None,
        fh: FicusFileHandle | None = None,
        data: str = "",
        link_from: FicusFileHandle | None = None,
        from_recon: bool = False,
        merge_policy: str = "",
    ) -> DirectoryEntry:
        """Insert one directory entry and materialize backing storage.

        Idempotent on entry-id: re-applying an insert (an RPC retry or a
        repeated reconciliation) is a no-op answered with the entry on file.
        """
        # The applying replica mints ids the requester left blank — id
        # issuance stays with the volume replica (paper Section 4.2) even
        # when the request crossed an NFS hop.
        if eid is None:
            eid = self.store.new_entry_id()
        if fh is None:
            fh = FicusFileHandle(self.store.volume, self.store.new_file_id())
        if "/" in name or "\x00" in name or not name:
            raise InvalidArgument(f"bad Ficus name {name!r}")
        if len(name) > MAX_NAME_LEN:
            raise NameTooLong(f"name of {len(name)} chars exceeds the {MAX_NAME_LEN}-char limit")
        entries = self.entries()
        for existing in entries:
            if existing.eid == eid:
                return existing
        fh = fh.logical
        entry = DirectoryEntry(eid=eid, name=name, fh=fh, etype=etype, data=data)
        # materialize storage before publishing the entry
        if etype == EntryType.LOCATION:
            pass  # pure metadata: a graft point's volume-replica record
        elif etype in (EntryType.FILE, EntryType.SYMLINK):
            if not self.store.has_file(self.fh, fh):
                if link_from is not None and self.store.has_file(link_from, fh):
                    self.store.link_file_storage(link_from, self.fh, fh)
                elif from_recon:
                    # Entry learned via reconciliation: contents arrive
                    # later by update propagation; publish the entry only.
                    pass
                else:
                    self.store.create_file_storage(self.fh, fh, etype, merge_policy=merge_policy)
                    # the genesis node: an empty-vv version every later
                    # write chains back to through its parent edge
                    self.layer.health.record_version("create", fh, VersionVector(), detail=name)
        else:
            if self.store.has_directory(fh):
                self.store.staged_record(fh).refs += 1
            else:
                self.store.create_directory_storage(fh, etype, graft_volume=data, parent=self.fh)
        entries.append(entry)
        self.store.write_entries(self.fh, entries)
        if not from_recon:
            self._bump_dir_vv()
        return entry

    @_one_operation
    def apply_tombstone(self, entry: DirectoryEntry) -> None:
        """Record a remote entry that is already dead, storage-free.

        Reconciliation uses this when the remote replica shows an entry
        that was inserted *and* deleted while we were out of touch: the
        tombstone must be remembered (so the delete still wins against a
        third replica that only saw the insert) but no storage is created.
        Idempotent on entry-id; deletion-acknowledgement sets merge.
        """
        merged_acks = entry.acks | {self.store.replica_id}
        merged_acks2 = entry.acks2
        entries = self.entries()
        for index, existing in enumerate(entries):
            if existing.eid == entry.eid:
                if existing.live:
                    entries[index] = existing.killed(acks=merged_acks).with_acks(
                        merged_acks, merged_acks2
                    )
                    self.store.write_entries(self.fh, entries)
                    self._gc_storage(existing)
                elif not (merged_acks <= existing.acks and merged_acks2 <= existing.acks2):
                    entries[index] = existing.with_acks(
                        existing.acks | merged_acks, existing.acks2 | merged_acks2
                    )
                    self.store.write_entries(self.fh, entries)
                return
        entries.append(entry.killed(acks=merged_acks).with_acks(merged_acks, merged_acks2))
        self.store.write_entries(self.fh, entries)

    @_spanned("physical.remove")
    def remove_entry(self, eid: EntryId, ctx: OpContext = ROOT_CTX) -> None:
        self.apply_remove(eid)

    @_one_operation
    def apply_remove(self, eid: EntryId, from_recon: bool = False) -> None:
        """Tombstone one entry and garbage-collect its backing storage.

        Idempotent: removing an already-dead entry is a no-op; removing an
        unknown entry-id records a tombstone-only entry is NOT done — the
        caller must have seen the insert (reconciliation guarantees this by
        applying inserts before removes).
        """
        entries = self.entries()
        for index, entry in enumerate(entries):
            if entry.eid == eid:
                if not entry.live:
                    return
                entries[index] = entry.killed(acks=frozenset({self.store.replica_id}))
                self.store.write_entries(self.fh, entries)
                self._gc_storage(entry)
                if not from_recon:
                    self._bump_dir_vv()
                return
        raise FileNotFound(f"no entry {eid.encode()} in directory {self.fh}")

    def _gc_storage(self, dead: DirectoryEntry) -> None:
        """Ask the store to free what a tombstoned entry named.  It does so
        after this directory's flush, and not at all if the final entry
        list still names the object."""
        if dead.etype == EntryType.LOCATION:
            return
        if dead.etype in (EntryType.FILE, EntryType.SYMLINK):
            self.store.unlink_file_storage(self.fh, dead.fh)
            return
        if not self.store.has_directory(dead.fh):
            return
        daux = self.store.staged_record(dead.fh)
        daux.refs -= 1
        if daux.refs <= 0:
            # last name gone: reclaim, but only when the directory is empty
            # of live entries (the logical layer enforces rmdir-on-empty;
            # entries arriving later via reconciliation leave an orphan for
            # the GC daemon rather than losing data).
            self.store.remove_directory_storage(dead.fh, named_in=self.fh)

    def readdir(self, ctx: OpContext = ROOT_CTX) -> list[DirEntry]:
        out = []
        for name, entry in sorted(effective_entries(self.entries()).items()):
            if entry.etype == EntryType.LOCATION:
                continue  # graft-point metadata is not user-visible
            out.append(
                DirEntry(
                    name=name,
                    fileid=entry.fh.file_id.unique,
                    ftype=ENTRY_FILE_TYPES[entry.etype],
                )
            )
        return out

    def __repr__(self) -> str:
        return f"PhysicalDirVnode({self.store.volrep}, {self.fh})"


class PhysicalFileVnode(Vnode):
    """One regular-file or symlink replica."""

    def __init__(
        self,
        layer: "FicusPhysicalLayer",  # noqa: F821
        store: ReplicaStore,
        parent_fh: FicusFileHandle,
        fh: FicusFileHandle,
        etype: EntryType,
    ):
        self.layer = layer
        self.store = store
        self.parent_fh = parent_fh.logical
        self.fh = fh.logical
        self.etype = etype
        self._tracer = layer.telemetry.tracer

    def _contents(self) -> Vnode:
        return self.store.file_vnode(self.parent_fh, self.fh)

    def aux(self) -> AuxAttributes:
        return self.store.read_record(self.fh)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PhysicalFileVnode)
            and other.store is self.store
            and other.fh == self.fh
            and other.parent_fh == self.parent_fh
        )

    def __hash__(self) -> int:
        return hash((id(self.store), self.parent_fh, self.fh))

    # -- lifetime --

    def open(self, ctx: OpContext = ROOT_CTX) -> None:
        """Works when the physical layer is local; when an NFS hop is in
        between this never arrives — remote callers bracket updates with
        ``session_open`` on the parent directory vnode instead."""
        self.layer.session_open(self.store, self.fh)

    def close(self, ctx: OpContext = ROOT_CTX) -> None:
        self.layer.session_close(self.store, self.fh)

    def inactive(self) -> None:
        """No per-vnode state to tear down."""

    # -- data --

    @_spanned("physical.read")
    def read(self, offset: int, length: int, ctx: OpContext = ROOT_CTX) -> bytes:
        return self._contents().read(offset, length, ctx)

    @_spanned("physical.write", tags=lambda self, offset, data, *a, **k: {"bytes": len(data)})
    def write(self, offset: int, data: bytes, ctx: OpContext = ROOT_CTX) -> int:
        self.layer.note_update(self.store, self.fh)
        return self._contents().write(offset, data, ctx)

    def fsync(self, ctx: OpContext = ROOT_CTX) -> None:
        self._contents().fsync(ctx)

    # -- attributes --

    def getattr(self, ctx: OpContext = ROOT_CTX) -> FileAttributes:
        attrs = self._contents().getattr(ctx)
        if self.etype == EntryType.SYMLINK:
            attrs = dataclasses.replace(attrs, ftype=FileType.SYMLINK)
        self.layer.register_vnode(attrs.fileid, self)
        return attrs

    @_spanned("physical.setattr")
    def setattr(self, attrs: SetAttrs, ctx: OpContext = ROOT_CTX) -> None:
        if attrs.policy is not None:
            # a policy change is an update, bumped at once (not coalesced
            # into a session): the tag propagates, and wins, through recon
            with self.store.operation():
                aux = self.aux()
                prior, aux.merge_policy, aux.vv = aux.vv, attrs.policy, aux.vv.bump(self.store.replica_id)
                self.store.write_record(self.fh, aux)
            self.layer.health.record_version("write", self.fh, aux.vv, parents=(prior,), detail="setpolicy")
            attrs = dataclasses.replace(attrs, policy=None)
        if attrs.size is not None:
            self.layer.note_update(self.store, self.fh)
        self._contents().setattr(attrs, ctx)

    def access(self, mode: int, ctx: OpContext = ROOT_CTX) -> bool:
        return unix_permits(self.getattr(ctx), ctx.cred, mode)

    # -- symlink --

    def readlink(self, ctx: OpContext = ROOT_CTX) -> str:
        if self.etype != EntryType.SYMLINK:
            raise InvalidArgument("not a symlink")
        return self._contents().read_all(ctx).decode("utf-8")

    # -- directories only --

    def lookup(self, name: str, ctx: OpContext = ROOT_CTX) -> Vnode:
        raise NotADirectory(f"{self.fh} is not a directory")

    def __repr__(self) -> str:
        return f"PhysicalFileVnode({self.store.volrep}, {self.fh})"


class ReplicaNotStored(FileNotFound):
    """The entry exists, but this volume replica stores no copy of the file.

    "A volume replica may contain at most one replica of a file, but need
    not store a replica of any particular file" (paper Section 4.1).  The
    logical layer reacts by selecting a different replica.
    """

    errno_name = "ENOTSTORED"
