"""Storage organization of one Ficus volume replica.

"A volume replica is stored entirely within a Unix disk partition" (paper
Section 4.1).  This module manages that storage *through the vnode
interface of the layer below* — normally UFS, but by stackability anything
presenting the same interface.

Layout under the lower layer's root::

    <volrep-hex>/            one UFS directory per hosted volume replica
      .meta                  identity + id-mint counters
      .attr                  the attribute table: one record per Ficus
                             file and directory, keyed by handle
      nodes/
        <dirfh-hex>/         the "underlying Unix directory" of one Ficus
                             directory (keyed by its handle, which
                             every replica shares)
          .fdir              the Ficus directory file (entry records)
          <filefh-hex>       a regular file replica's contents

Regular files live inside their directory's UFS directory — the "on-disk
file organization closely parallels the logical Ficus name space topology"
(Section 2.6), which is what lets the UFS caches exploit directory
locality.  A file's contents are found by name in that directory, and the
UFS name cache answers the lookup, a miss as well as a hit: it is the one
cache of the names the store resolves.  A file with several names has its
contents hard-linked into each naming directory's UFS directory and one
record, whose ``refs`` counts those stored names.  Ficus *directories* are
keyed flat in ``nodes/`` so that the directory DAG (multiple names for one
directory, a consequence of concurrent renames) needs no extra mechanism.

The paper's "auxiliary attribute file" (Section 2.6) is one run of 256-byte
slots in ``.attr`` (:mod:`repro.physical.table`): a record never straddles
a block, so a vector bump costs one block write and a cold record read one,
and a new record is placed beside its parent's.  A directory's recon digest
is not stored: :meth:`ReplicaStore.directory_digest` computes it from the
entry list and the records of the files stored in the directory, so no
crash can leave it disagreeing with them.

What an update writes, and when.  Every store call that changes storage
runs inside :meth:`ReplicaStore.operation` — re-entrant; a call made
outside any scope is a scope of its own — and the outermost scope enters
the operation scope of the UFS below (:meth:`repro.ufs.Ufs.operation`, found
by the walk down to the storage bottom), so every block the operation
writes is held there and reaches the device once, in soft-update order:
file data and fresh blocks, then bitmap, then existing indirect blocks,
then inode-table blocks, then the underlying Unix directories' blocks,
then the frees.  What must be ordered *between* blocks the store says with
a barrier (``fsync`` on the bottom vnode), which puts everything held so
far on the device.

*Made at once, inside the set*: file contents, the contents' UFS names
(create, link), and ``.meta``.  Every pulled or resolved version goes
through the one call that spells its commit, :meth:`ReplicaStore.install`,
which writes it into the file's own inode — the inode every stored name of
the file shares — and a file not stored here yet is created under its own
name with its contents in that operation; every install of one operation
shares one set, so an underlying directory's block goes out once, naming
every new file.  ``.meta`` holds the two id mints' high-water marks,
fixed-width so the record never changes length: ids are handed out from
an in-memory range of :data:`ID_RANGE`, and the mark's data block goes out
in the first phase of its set, ahead of every name that uses the range
(records come after a barrier), so a crash skips ids and never reuses one.
A file's vector advances in an operation of its own before its contents
change (:meth:`FicusPhysicalLayer.note_update`; once per update session,
before its first write), so a crash leaves the old contents or part of
the new under the advanced vector, never new contents under the old one,
and recovery has no update to count.

*Staged, flushed once per operation*: a directory's entry list
(``.fdir``) and every record of the attribute table.  A staging call only
records what the operation will leave.  Reads answer from the staged set
first, whatever the decoded map holds.  The outermost exit, normal or by
exception, decides the frees the operation asked for
(:meth:`ReplicaStore.unlink_file_storage`,
:meth:`ReplicaStore.remove_directory_storage`) on the final state, then
writes, with a barrier before each step: (1) the table blocks where a new
or outgrown record lands in a fresh run; (2) each changed ``.fdir``, in
first-dirtied order; (3) each other changed table block, once, and every
clear — a record cleared because its last name or its directory is going
is never written before the list that stops naming it, so a block of step
1 that holds a clear is written twice; (4) the frees.  The first barrier
puts the contents the operation committed on the device before any record
names them.  A record or list equal to the one the operation first read is
not written.

``.meta``, ``.fdir`` and an installed version's contents are replaced
whole through :meth:`ReplicaStore._replace_record` under one rule: data of
the length already on disk that fits one block is overwritten in place
(one data block, one inode write, old-or-new under a crash); anything else
is ``truncate(0)`` + ``write`` in one operation, whose inode write is the
commit point — the new blocks are written before it and the old ones freed
after it, so it too is old-or-new.  This is the paper's single-file atomic
commit (Section 3.2) with the low-level reference it changes being the
inode's block pointers, not a directory entry: no shadow file is made, and
an install keeps the inode, so the handles peers hold stay valid.
``.fdir`` is NUL-padded to whole blocks, so only a list changing its block
count is resized.  A ``NoSpace`` raised inside an operation lands nothing
the UFS below has held since the last barrier, and the store then drops
what it staged if it was raised before the flush began.  The
device-write sequence of each operation, what a crash between each pair of
writes leaves, and the flush's order are ARCHITECTURE.md's "What one
update writes, in order" and "The flush protocol", held by
``tests/test_write_order.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FileNotFound, InvalidArgument, NoSpace
from repro.physical.table import AttrTable
from repro.physical.wire import (
    ATTR_NAME,
    FDIR_NAME,
    META_NAME,
    STORE_BLOCK_SIZE,
    AuxAttributes,
    DirectoryEntry,
    EntryId,
    EntryType,
    FileBlocks,
    content_digest,
    decode_directory,
    encode_directory,
    fold_digest,
    split_blocks,
)
from repro.util import (
    FicusFileHandle,
    FileId,
    VolumeId,
    VolumeReplicaId,
    decode_record,
    encode_record,
)
from repro.vnode.interface import SetAttrs, Vnode
from repro.vv import VersionVector

#: Every volume root directory has this well-known file-id (issuer 0 is
#: reserved for volume genesis, so no replica's mint can collide with it).
ROOT_FILE_ID = FileId(0, 1)

#: Ids an id mint reserves per ``.meta`` write; a crash skips at most this
#: many of each kind.
ID_RANGE = 64


def _mark(value: int) -> str:
    """A mint's high-water mark as ``.meta`` holds it: as wide as a u32,
    so the record keeps its length and is always replaced in place."""
    return f"{value:010d}"


def volume_root_handle(volume: VolumeId) -> FicusFileHandle:
    """The handle of a volume's root directory."""
    return FicusFileHandle(volume, ROOT_FILE_ID)


def entries_fold(entries: list[DirectoryEntry]) -> int:
    """Order-independent fold of a directory's entry records."""
    fold = 0
    for entry in entries:
        fold ^= entry.fold_component()
    return fold


def _storage_bottom(root: Vnode) -> object | None:
    """Walk down a vnode chain to the storage bottom.

    Returns the first object exposing ``decoded_map`` (the UFS vnode
    adaptor), whose operation scope and barrier the store uses too, or
    ``None`` when the stack has no such bottom (NFS-hopped storage) — the
    decoded map is then a plain dict kept by write-side invalidation
    alone, and each call below is an operation of its own, on the device
    when it returns.
    """
    node: object | None = root
    while node is not None:
        if hasattr(node, "decoded_map"):
            return node
        node = getattr(node, "lower", None)
    return None


def _ancestor_of(contents: bytes) -> str:
    """Some contents' block digests, encoded as a retained-ancestor record."""
    return AuxAttributes.encode_ancestor([content_digest(block) for block in split_blocks(contents)])


def handle_of(name: str) -> FicusFileHandle | None:
    """The file handle a contents name in an underlying Unix directory
    encodes, or ``None`` for any other name."""
    try:
        return FicusFileHandle.from_hex(name)
    except InvalidArgument:
        return None


def file_component(fh: FicusFileHandle, vv: VersionVector) -> int:
    """One stored child file's contribution to its directory's file fold."""
    return int(content_digest(fh.to_hex(), vv.encode()), 16)


@dataclass
class StoreStats:
    """What one replica store has done to its records, counted where it
    happens; the physical layer views it as the ``store.*`` metrics."""

    #: records rewritten where they were: a ``.meta``, ``.fdir`` or
    #: installed version's replace that kept its length within one block,
    #: or a table record that kept its run (each old-or-new in one block
    #: write)
    records_in_place: int = 0
    #: records that were not: a ``truncate(0)`` + ``write`` replace, or a
    #: table record written to a fresh run because it outgrew its own
    records_resized: int = 0
    #: directories whose entry list or record a flush wrote
    dir_flushes: int = 0
    #: staged record updates a flush absorbed without a write
    dir_writes_coalesced: int = 0


#: Entry types whose object is a Ficus directory with storage in ``nodes/``.
DIR_TYPES = (EntryType.DIRECTORY, EntryType.GRAFT_POINT)
#: Entry types whose object's contents are stored in its directory.
FILE_TYPES = (EntryType.FILE, EntryType.SYMLINK)


class _Known:
    """What the store has decoded about one object, by handle:
    its record, and for a directory its Unix directory's vnode, its
    ``.fdir``'s vnode and its entry list (``None``: not decoded yet).  A
    file stored in a directory is found by name (:meth:`stored_file`),
    which the UFS name cache answers.

    And what reconciliation has learnt of it: a directory's ``subtree``
    digest and ``children``, its :meth:`stored_children` view;
    ``readers``, the directories whose view or digest read this object,
    each of which a change to it makes stale; and for a file ``synced``,
    the (vector, merge ancestor) pair its contents were last digested at,
    and ``component``, the (vector, :func:`file_component`) pair it last
    folded into a directory digest as.
    """

    __slots__ = (
        "record", "unix_dir", "fdir", "entries", "subtree", "children", "readers", "synced", "component"
    )

    def __init__(self):
        self.record = self.unix_dir = self.fdir = self.entries = None
        self.subtree = self.children = self.readers = self.synced = self.component = None


#: what the decoded map answers for a handle it holds no entry for
_UNKNOWN = _Known()


class _DirUpdate:
    """What the open operation will leave in one directory's entry list,
    and the storage its tombstones asked to free."""

    __slots__ = ("fh", "entries", "stored_entries", "free_files", "free_dirs")

    def __init__(self, fh: FicusFileHandle):
        self.fh = fh
        #: the staged entry list (``None``: not changed) and the list the
        #: operation first read
        self.entries: list[DirectoryEntry] | None = None
        self.stored_entries: list[DirectoryEntry] | None = None
        #: storage to free once this directory's list is durable
        self.free_files: list[FicusFileHandle] = []
        self.free_dirs: list[FicusFileHandle] = []


class _Staged:
    """One table record as the open operation will leave it: ``aux`` the
    record last staged (``None``: cleared), ``stored`` the record the
    operation first read (``None``: it had none).  Both are values, so a
    record staged and not yet changed is one object twice, and equal
    records encode equally: the comparison needs no encoding.  ``near`` is
    the handle whose record's block a new record would share."""

    __slots__ = ("aux", "stored", "near")

    def __init__(self, aux: AuxAttributes | None, stored: AuxAttributes | None, near=None):
        self.aux, self.stored, self.near = aux, stored, near


class _OperationScope:
    """The re-entrant ``with`` target of :meth:`ReplicaStore.operation`;
    the outermost one holds the storage bottom's scope (``None``: none)."""

    __slots__ = ("store", "depth", "storage")

    def __init__(self, store: "ReplicaStore", storage):
        self.store = store
        self.depth = 0
        self.storage = storage

    def __enter__(self) -> None:
        if not self.depth and self.storage is not None:
            self.storage.__enter__()
        self.depth += 1

    def __exit__(self, *exc_info) -> None:
        if self.depth > 1:
            self.depth -= 1
            return
        try:
            if isinstance(exc_info[1], NoSpace) and self.storage is not None:
                # the UFS below dropped every write the operation made (the
                # flush had not begun, so none had landed): so is its staging
                self.store._abandon()
            # still one deep while flushing: a store call the flush makes nests
            elif not self.store.flushed():
                self.store._flush()
        except BaseException as error:
            exc_info = (type(error), error, error.__traceback__)
            raise
        finally:
            self.depth = 0
            if self.storage is not None:
                self.storage.__exit__(*exc_info)


class ReplicaStore:
    """Reads and writes one volume replica's on-disk structures."""

    def __init__(self, lower_root: Vnode, volrep: VolumeReplicaId):
        self.lower_root = lower_root
        self.volrep = volrep
        self.stats = StoreStats()
        self._base = lower_root.lookup(volrep.to_hex())
        self._nodes = self._base.lookup("nodes")
        # -- what the store has decoded, by handle, in a map the
        # bottom's buffer cache empties when it goes cold (invalidate_all,
        # fault injection: E3/E4's disk I/Os stay byte-for-byte intact) —
        # at any time, inside an operation too, whose staged set is not in
        # the map — and that keeps nothing at capacity 0 (the A2 "no
        # caches" ablation).  Mutations through this store update it.
        self._bottom = _storage_bottom(lower_root)
        self._known = self._bottom.decoded_map() if self._bottom is not None else {}
        # -- the attribute table: its vnode (a stable name, written in
        # place) and its index, built here by one read (``None`` after a
        # flush failed part-way: rebuilt from the device at next use)
        self._attr_vnode = self._base.lookup(ATTR_NAME)
        self._table: AttrTable | None = AttrTable.load(self._attr_vnode)
        # -- the operation scope: staged entry lists, by directory handle,
        # in first-dirtied order, and staged records, by handle (neither is
        # in the decoded map: they are not a cache)
        self._scope = _OperationScope(self, self._bottom.operation() if self._bottom is not None else None)
        self._pending: dict[FicusFileHandle, _DirUpdate] = {}
        self._records: dict[FicusFileHandle, _Staged] = {}
        #: staging calls of the open operation, for ``dir_writes_coalesced``
        self._staged_calls = 0
        #: per id mint: the next id to hand out and the mark ``.meta`` holds
        self._mints: dict[str, list[int]] | None = None

    def _barrier(self) -> None:
        """Put every block the operation has written so far on the device
        before any it writes next (nothing is held without a bottom)."""
        if self._bottom is not None:
            self._bottom.fsync()

    def _learn(self, fh: FicusFileHandle) -> _Known:
        """The decoded map's entry for ``fh``, made on first use — only
        once there is something to record, so a failed lookup leaves no
        entry behind."""
        known = self._known.get(fh)
        if known is None:
            known = self._known[fh] = _Known()
        return known

    def _changed(self, fh: FicusFileHandle) -> None:
        """``fh`` changed: drop the subtree digests and stored-children
        views that read it — its own and every directory's above it, along
        the edges :meth:`stored_children` recorded.  Each edge is followed
        once and forgotten (the directory records it again when it next
        scans), so a walk stops at a directory already visited and costs
        the depth of the change, not the size of the volume."""
        stack = [self._known.get(fh)]
        while stack:
            known = stack.pop()
            if known is not None:
                known.subtree = known.children = None
                readers, known.readers = known.readers, None
                stack.extend(map(self._known.get, readers or ()))

    @property
    def _attr(self) -> AttrTable:
        table = self._table
        if table is None:
            table = self._table = AttrTable.load(self._attr_vnode)
        return table

    def _replace_record(self, vnode: Vnode, data: bytes) -> None:
        """Replace the whole contents of ``.meta``, a ``.fdir`` or a file
        replica — the only writer of each once it exists but a local update
        session, under one rule.

        Data of the length already stored that fits one block of the
        storage below (:data:`STORE_BLOCK_SIZE`) is overwritten in place:
        no block changes hands and the one block write carries all of it,
        so a crash leaves exactly the old data or exactly the new.
        ``.meta`` keeps its length and ``.fdir`` is padded to whole blocks,
        so for them this is every replace but a directory changing its
        block count.  Anything else is ``truncate(0)`` + ``write`` in one
        operation: the new blocks are written before the inode that names
        them, the old ones freed after it, so the inode write is the commit
        point and a crash leaves the old data or the new — never a splice
        of two versions, which an in-place rewrite of two blocks could
        leave.  (A multi-block version is rewritten whole: footnote 5's
        cost of a point update in a large file.)
        """
        with self._scope:
            if vnode.getattr().size == len(data) <= STORE_BLOCK_SIZE:
                self.stats.records_in_place += 1
            else:
                self.stats.records_resized += 1
                vnode.setattr(SetAttrs(size=0))
            if data:
                vnode.write(0, data)

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, lower_root: Vnode, volrep: VolumeReplicaId) -> "ReplicaStore":
        """Initialize storage for a brand-new volume replica."""
        base = lower_root.mkdir(volrep.to_hex())
        meta = base.create(META_NAME)
        meta.write(
            0,
            encode_record(
                {
                    "volrep": volrep.to_hex(),
                    "next_unique": _mark(1),
                    "next_seq": _mark(1),
                }
            ).encode("utf-8"),
        )
        base.create(ATTR_NAME)
        base.mkdir("nodes")
        store = cls(lower_root, volrep)
        root_fh = volume_root_handle(volrep.volume)
        store.create_directory_storage(root_fh, EntryType.DIRECTORY)
        return store

    @classmethod
    def attach(cls, lower_root: Vnode, volrep: VolumeReplicaId) -> "ReplicaStore":
        """Open existing volume-replica storage (e.g. after host restart)."""
        return cls(lower_root, volrep)

    @classmethod
    def exists(cls, lower_root: Vnode, volrep: VolumeReplicaId) -> bool:
        try:
            lower_root.lookup(volrep.to_hex())
            return True
        except FileNotFound:
            return False

    @property
    def volume(self) -> VolumeId:
        return self.volrep.volume

    @property
    def replica_id(self) -> int:
        return self.volrep.replica_id

    def root_handle(self) -> FicusFileHandle:
        return volume_root_handle(self.volume)

    # -- id mints (persisted in .meta) ------------------------------------------

    def _meta_vnode(self) -> Vnode:
        # stable name, rewritten in place — the vnode never goes stale
        meta = self.__dict__.get("_meta")
        if meta is None:
            meta = self._meta = self._base.lookup(META_NAME)
        return meta

    def _read_meta(self) -> dict[str, str]:
        return decode_record(self._meta_vnode().read_all().decode("utf-8"))

    def _write_meta(self, rec: dict[str, str]) -> None:
        self._replace_record(self._meta_vnode(), encode_record(rec).encode("utf-8"))

    def _mint(self, counter: str) -> int:
        """Hand out the next id of one mint.  ``.meta`` holds each mint's
        high-water mark; a range of :data:`ID_RANGE` is reserved by raising
        the mark, whose data block lands in the first phase of its set —
        ahead of every name in that set — while every record that carries
        an id of the range lands after a barrier.  A fresh attach resumes
        at the mark, so the ids a crash left reserved are skipped and none
        is ever handed out twice."""
        if self._mints is None:
            rec = self._read_meta()
            self._mints = {name: [int(rec[name])] * 2 for name in ("next_unique", "next_seq")}
        mint = self._mints[counter]
        value, reserved = mint
        if value >= reserved:
            rec = self._read_meta()
            rec[counter] = _mark(value + ID_RANGE)
            self._write_meta(rec)
            mint[1] = value + ID_RANGE
        mint[0] = value + 1
        return value

    def new_file_id(self) -> FileId:
        """Mint a file-id: ⟨this replica's id, next unique⟩ (Section 4.2)."""
        return FileId(self.replica_id, self._mint("next_unique"))

    def new_entry_id(self) -> EntryId:
        """Mint a directory-entry insertion id, unique to this replica."""
        return EntryId(self.replica_id, self._mint("next_seq"))

    # -- directory storage -----------------------------------------------------

    def has_directory(self, fh: FicusFileHandle) -> bool:
        try:
            self.dir_unix_vnode(fh)
            return True
        except FileNotFound:
            return False

    def dir_unix_vnode(self, fh: FicusFileHandle) -> Vnode:
        """The underlying Unix directory of a Ficus directory."""
        vnode = self._known.get(fh, _UNKNOWN).unix_dir
        if vnode is None:
            vnode = self._nodes.lookup(fh.to_hex())
            self._learn(fh).unix_dir = vnode
        return vnode

    def fdir_vnode(self, fh: FicusFileHandle) -> Vnode:
        """The ``.fdir`` of a Ficus directory: the file of its entry records."""
        vnode = self._known.get(fh, _UNKNOWN).fdir
        if vnode is None:
            vnode = self.dir_unix_vnode(fh).lookup(FDIR_NAME)
            self._learn(fh).fdir = vnode
        return vnode

    def create_directory_storage(
        self,
        fh: FicusFileHandle,
        etype: EntryType,
        graft_volume: str = "",
        parent: FicusFileHandle | None = None,
    ) -> Vnode:
        """Materialize storage for a new Ficus directory (or graft point):
        its Unix directory and empty ``.fdir`` now, its record — beside
        ``parent``'s when that block has room — with the operation."""
        unix_dir = self._nodes.mkdir(fh.to_hex())
        fdir = unix_dir.create(FDIR_NAME)
        aux = AuxAttributes(fh=fh, etype=etype, refs=1, graft_volume=graft_volume)
        with self._scope:
            self._stage_new(fh, aux, parent)
        known = self._learn(fh)
        known.unix_dir, known.fdir, known.entries = unix_dir, fdir, []
        return unix_dir

    def remove_directory_storage(self, fh: FicusFileHandle, named_in: FicusFileHandle) -> None:
        """Ask for a dead directory's storage to be reclaimed: after the
        flush of ``named_in`` (the directory whose tombstone dropped the
        last name), and only if the directory then still has no reference
        and no live entry."""
        with self._scope:
            self._update(named_in).free_dirs.append(fh)

    def _unix_names(self, fh: FicusFileHandle) -> list[str]:
        """The names in a directory's Unix directory, ``.fdir`` aside."""
        return [
            entry.name
            for entry in self.dir_unix_vnode(fh).readdir()
            if entry.name not in (".", "..", FDIR_NAME)
        ]

    def _doom_directory(self, fh: FicusFileHandle) -> None:
        """Stage what freeing a directory's storage does to the table: its
        record is cleared, and each file stored in it loses a name."""
        with self._scope:
            if self.has_record(fh):
                self._stage_clear(fh)
            for name in self._unix_names(fh):
                child = handle_of(name)
                if child is not None:
                    self._drop_name(child)

    def _remove_directory_storage(self, fh: FicusFileHandle) -> None:
        """Remove a directory's Unix directory and everything in it (its
        record is the caller's, staged by :meth:`_doom_directory`)."""
        self._pending.pop(fh, None)  # nothing left to describe
        unix_dir = self.dir_unix_vnode(fh)
        for entry in unix_dir.readdir():
            if entry.name not in (".", ".."):
                unix_dir.remove(entry.name)
        self._nodes.rmdir(fh.to_hex())
        self._changed(fh)
        self._known.pop(fh, None)

    def read_entries(self, fh: FicusFileHandle) -> list[DirectoryEntry]:
        """All entries of a Ficus directory, tombstones included."""
        update = self._pending.get(fh)
        if update is not None and update.entries is not None:
            return list(update.entries)
        cached = self._known.get(fh, _UNKNOWN).entries
        if cached is not None:
            # fresh list: callers append/replace before writing back
            return list(cached)
        entries = decode_directory(self.fdir_vnode(fh).read_all())
        self._learn(fh).entries = list(entries)
        return entries

    def write_entries(self, fh: FicusFileHandle, entries: list[DirectoryEntry]) -> None:
        """Stage a directory's entry list."""
        with self._scope:
            update = self._update(fh)
            if update.entries is None:
                update.stored_entries = self.read_entries(fh)
            update.entries = list(entries)
            self._staged_calls += 1

    # -- the attribute table's records ---------------------------------------------

    def read_record(self, fh: FicusFileHandle) -> AuxAttributes:
        """A file's or directory's record as the open operation leaves it:
        the value the stage or the decoded map holds.  Keyed by the object
        alone: a hard-linked file has one record, so a write through any of
        its names is seen through every other."""
        # an empty dict's get still hashes its key, a nested tuple: most
        # reads happen with nothing staged
        staged = self._records.get(fh) if self._records else None
        if staged is not None:
            if staged.aux is None:
                raise FileNotFound(f"the attribute record of {fh} is being cleared")
            return staged.aux
        aux = self._known.get(fh, _UNKNOWN).record
        if aux is None:
            aux = self._attr.read(fh)
            self._learn(fh).record = aux
        return aux

    def write_record(self, fh: FicusFileHandle, aux: AuxAttributes) -> None:
        """Stage a file's or directory's whole record: a change is a
        :meth:`read_record`, ``_replace`` and this, in one operation.  A
        record equal to the one held is no change: nothing is staged, and
        no digest or view that read the record is dropped."""
        if aux == self.read_record(fh):
            return
        with self._scope:
            self._stage(fh).aux = aux

    def has_record(self, fh: FicusFileHandle) -> bool:
        """Does the table (as the open operation leaves it) hold ``fh``?"""
        staged = self._records.get(fh) if self._records else None
        return staged.aux is not None if staged is not None else fh in self._attr

    def record_handles(self) -> list[FicusFileHandle]:
        """Every handle with a record in the table."""
        return self._attr.handles()

    def _stage(self, fh: FicusFileHandle) -> _Staged:
        """The stage of an existing record, staged on first use."""
        staged = self._records.get(fh)
        if staged is None:
            stored = self.read_record(fh)
            staged = self._records[fh] = _Staged(stored, stored)
        elif staged.aux is None:
            raise FileNotFound(f"the attribute record of {fh} is being cleared")
        self._staged_calls += 1
        self._changed(fh)
        return staged

    def _stage_new(self, fh: FicusFileHandle, aux: AuxAttributes, near: FicusFileHandle | None) -> None:
        """Stage a record for a handle that has none."""
        staged = self._records.get(fh)
        if staged is None:
            self._records[fh] = _Staged(aux, None, near)
        else:
            staged.aux = aux
        self._staged_calls += 1
        self._changed(fh)

    def _stage_clear(self, fh: FicusFileHandle) -> None:
        self._stage(fh).aux = None

    def _drop_name(self, fh: FicusFileHandle) -> None:
        """One stored name of a file is going: count it off its record, and
        clear the record with the last."""
        if not self.has_record(fh):
            return
        staged = self._stage(fh)
        refs = staged.aux.refs - 1
        staged.aux = staged.aux._replace(refs=refs) if refs > 0 else None

    # -- the operation scope ------------------------------------------------------

    def operation(self) -> _OperationScope:
        """``with store.operation():`` — one operation's entry lists and
        records are staged inside and flushed once, at the outermost exit."""
        return self._scope

    def flushed(self, fh: FicusFileHandle | None = None) -> bool:
        """Nothing staged for ``fh`` (``None``: for anything)?  What leaves
        the host must describe durable state."""
        if fh is None:
            return not self._pending and not self._records
        return fh not in self._pending and (not self._records or fh not in self._records)

    def _update(self, fh: FicusFileHandle) -> _DirUpdate:
        update = self._pending.get(fh)
        if update is None:
            update = self._pending[fh] = _DirUpdate(fh)
        self._changed(fh)
        return update

    def _flush(self) -> None:
        """Decide the frees on the final state, then write, each step behind
        a barrier: the table blocks where records land in fresh runs, each
        changed ``.fdir`` in first-dirtied order, every other changed table
        block once and the clears, and last the frees.  The first barrier
        puts the contents the operation committed on the device before any
        record.  A failure part-way drops every decoded copy and the
        table's index (the writes may have half-landed; the index is
        rebuilt from the device at next use) and is raised."""
        try:
            doomed_files, doomed_dirs = self._settle_frees()
            lists = [
                update
                for update in self._pending.values()
                if update.entries is not None and update.entries != update.stored_entries
            ]
            changes = {fh: staged.aux for fh, staged in self._records.items() if staged.aux != staged.stored}

            def write_lists() -> None:
                self._barrier()
                for update in lists:
                    self._replace_record(self.fdir_vnode(update.fh), encode_directory(update.entries))
                self._barrier()

            self._barrier()
            in_place, moved = self._attr.commit(changes, lambda fh: self._records[fh].near, write_lists)
            self.stats.records_in_place += in_place
            self.stats.records_resized += moved
            written_dirs = {update.fh for update in lists} | {
                fh
                for fh, staged in self._records.items()
                if fh in changes and (staged.aux or staged.stored).etype in DIR_TYPES
            }
            self.stats.dir_flushes += len(written_dirs)
            self.stats.dir_writes_coalesced += max(0, self._staged_calls - len(lists) - len(changes))
            for fh, update in self._pending.items():
                if update.entries is not None:
                    self._learn(fh).entries = update.entries
            for fh, staged in self._records.items():
                if staged.aux is not None:
                    self._learn(fh).record = staged.aux
                elif (known := self._known.get(fh)) is not None:
                    known.record = None
            self._barrier()
            for parent, child in doomed_files:
                self._unlink_file_storage(parent, child)
            for child in doomed_dirs:
                self._remove_directory_storage(child)
        except BaseException:
            self._drop_decoded()
            raise
        finally:
            self._pending.clear()
            self._records.clear()
            self._staged_calls = 0

    def _abandon(self) -> None:
        """Drop what the open operation staged, unwritten: the UFS below
        ran out of space and dropped every write the operation made, so
        the device still holds what it held before the operation — and so
        do the decoded caches and the mints, once they are read again."""
        self._pending.clear()
        self._records.clear()
        self._staged_calls = 0
        self._drop_decoded()

    def _drop_decoded(self) -> None:
        """Forget every decoded copy of storage, the table's index and the
        mints' in-memory range: each is read from the device at next use."""
        self._known.clear()
        self._table = None
        self._mints = None

    def _settle_frees(self) -> tuple[list[tuple[FicusFileHandle, FicusFileHandle]], list[FicusFileHandle]]:
        """The storage the operation's tombstones asked to free that the
        final state still says is garbage, with what freeing it does to the
        table staged: each file name freed counts off its record, and a
        directory freed clears its record."""
        files: list[tuple[FicusFileHandle, FicusFileHandle]] = []
        dirs: list[FicusFileHandle] = []
        for update in list(self._pending.values()):
            fh, doomed = update.fh, update.free_files
            if doomed:
                # a file a live entry of the final list names again keeps its storage
                named = {entry.fh for entry in self.read_entries(fh) if entry.live}
                doomed = [child for child in doomed if child not in named]
            for child in doomed:
                if self.stored_file(fh, child) is not None:
                    files.append((fh, child))
                    self._drop_name(child)
            for child in update.free_dirs:
                if (
                    child not in dirs
                    and self.has_directory(child)
                    and self.read_record(child).refs <= 0
                    and not any(entry.live for entry in self.read_entries(child))
                ):
                    dirs.append(child)
                    self._doom_directory(child)
        return files, dirs

    # -- regular-file storage (lives inside the parent's Unix directory) --------

    def stored_file(self, parent: FicusFileHandle, fh: FicusFileHandle) -> Vnode | None:
        """The contents vnode of a regular-file replica, by name in the
        parent's Unix directory, or ``None`` when ``parent`` stores no
        contents of ``fh``: the UFS name cache answers, misses too.  The
        one way to ask whether and where a file is stored, so a caller
        asks once and keeps the vnode."""
        try:
            return self.dir_unix_vnode(parent).lookup(fh.to_hex())
        except FileNotFound:
            return None

    def create_file_storage(
        self,
        parent: FicusFileHandle,
        fh: FicusFileHandle,
        etype: EntryType = EntryType.FILE,
        merge_policy: str = "",
    ) -> Vnode:
        """Materialize contents now and a record with the operation, for a
        new regular file or symlink.

        The fresh record retains the empty file as the merge ancestor:
        creation is the first sync point (every replica starts from the
        same nothing).
        """
        contents = self.dir_unix_vnode(parent).create(fh.to_hex())
        aux = AuxAttributes(
            fh=fh,
            etype=etype,
            refs=1,
            merge_policy=merge_policy,
            ancestor=AuxAttributes.encode_ancestor([]),
        )
        with self._scope:
            self._stage_new(fh, aux, parent)
        self._learn(fh).synced = (aux.vv, aux.ancestor)
        return contents

    def link_file_storage(self, contents: Vnode, dst_parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Hard-link a file's stored ``contents`` (a :meth:`stored_file`
        vnode) into another directory.

        Gives the file a second name without copying: both Unix names share
        one inode, and the file keeps its one record, which counts the new
        name — so updates and version-vector changes are seen through
        every name.
        """
        self.dir_unix_vnode(dst_parent).link(contents, fh.to_hex())
        with self._scope:
            staged = self._stage(fh)
            staged.aux = staged.aux._replace(refs=staged.aux.refs + 1)

    def unlink_file_storage(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Ask for one directory's name for a file to be dropped: it goes
        after the flush has made the tombstone durable, and only if no live
        entry of the list it wrote names the file — a rename replayed as
        tombstone + insert in one operation keeps the storage it would
        otherwise pull again.  The flush that drops the last name clears
        the record, before the name goes."""
        with self._scope:
            if self.stored_file(parent, fh) is None or any(
                entry.live and entry.fh == fh for entry in self.read_entries(parent)
            ):
                return
            frees = self._update(parent).free_files
            if fh not in frees:
                frees.append(fh)

    def _unlink_file_storage(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        self.dir_unix_vnode(parent).remove(fh.to_hex())
        self._changed(parent)

    # -- installing a version (single-file atomic commit, paper Section 3.2) ---

    def install(
        self,
        parent: FicusFileHandle,
        fh: FicusFileHandle,
        contents: bytes,
        vv: VersionVector,
        merge_policy: str,
        etype: EntryType = EntryType.FILE,
        *,
        stored: Vnode | None,
    ) -> None:
        """Install a version of a regular file — pulled, or a resolution —
        as ``contents`` with vector ``vv`` and policy tag ``merge_policy``;
        ``stored`` is what :meth:`stored_file` answered the caller for it.

        "a shadow file replica is used to hold the new version until it is
        completely propagated, and then the shadow atomically replaces the
        original by changing a low-level directory reference."  Here the
        low-level reference is the file's inode, which maps it to its
        blocks: the contents are written into the file's own inode by
        :meth:`_replace_record` — over its one block when they keep its
        length and fit one, else into new blocks the inode write commits —
        so a crash leaves the old version or the new one, and the record
        follows with the operation.  Every stored name of the file (a hard
        link, or a rename whose old name has not been dropped yet) shares
        the inode, so each sees the new version, and a file stored here
        only under another directory's name is first linked into
        ``parent``.  A file with no storage here is created under its own
        name with its contents in the same operation, and its record is
        made already final (``etype`` is the new file's type).  A crash
        after the contents and before the record leaves the new contents
        under the old record — pulled again, as the remote still dominates
        — or, for a new file, contents with no record, which recovery
        drops.

        An install is a sync point (the replicas now share these contents),
        so they become the retained merge ancestor, digested from
        ``contents`` without reading anything back.
        """
        ancestor = _ancestor_of(contents)
        with self._scope:
            if stored is not None:
                self._replace_record(stored, contents)
            elif (elsewhere := self._stored_elsewhere(parent, fh)) is not None:
                # one inode under both names: write it through either
                self.link_file_storage(elsewhere, parent, fh)
                if elsewhere.read_all() != contents:  # a rename replayed: often the very bytes
                    self._replace_record(elsewhere, contents)
            else:
                vnode = self.dir_unix_vnode(parent).create(fh.to_hex())
                if contents:
                    vnode.write(0, contents)
                aux = AuxAttributes(fh=fh, etype=etype, vv=vv, merge_policy=merge_policy, ancestor=ancestor)
                self._stage_new(fh, aux, parent)
                self._learn(fh).synced = (vv, ancestor)
                return
            staged = self._stage(fh)
            staged.aux = staged.aux._replace(vv=vv, merge_policy=merge_policy, ancestor=ancestor)
            self._learn(fh).synced = (vv, ancestor)

    def _stored_elsewhere(self, parent: FicusFileHandle, fh: FicusFileHandle) -> Vnode | None:
        """The contents of ``fh``, which ``parent`` does not store, under
        the first other directory's name that names and stores it; none
        unless its record counts a stored name."""
        if not self.has_record(fh) or self.read_record(fh).refs <= 0:
            return None
        for dir_fh in self.all_directory_handles():
            if dir_fh != parent and any(entry.fh == fh for entry in self.read_entries(dir_fh)):
                vnode = self.stored_file(dir_fh, fh)
                if vnode is not None:
                    return vnode
        return None

    # -- merge-ancestor retention (three-way conflict resolution) ---------------

    def note_file_synced(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Refresh the retained merge ancestor at an observed sync point.

        Called when reconciliation sees the local and remote versions
        EQUAL: the replicas demonstrably share these contents, so they are
        the latest common ancestor either side can prove.  Local writes
        never touch the record — only sync points do — which is what lets
        two later-conflicting hosts hold the *same* ancestor.

        The contents are read and digested only when the record's (vector,
        ancestor) pair is not the one they were last digested at (by this
        call, :meth:`install` or :meth:`create_file_storage`): one vector
        names one version's contents.  The exception, an open update
        session that has written under its advanced vector, never reaches
        here — no peer copies that vector until the session closes.
        """
        aux = self.read_record(fh)
        if self._known.get(fh, _UNKNOWN).synced == (aux.vv, aux.ancestor):
            return
        record = _ancestor_of(self.stored_file(parent, fh).read_all())
        if aux.ancestor != record:
            self.write_record(fh, aux._replace(ancestor=record))
        self._learn(fh).synced = (aux.vv, record)

    def note_subtree_synced(self, fh: FicusFileHandle) -> None:
        """Refresh merge ancestors across a subtree proven equal to a peer.

        Reconciliation calls this when a subtree prune fires: the remote's
        subtree digest matched ours, so every file below this directory is
        demonstrably common — the same sync point ``note_file_synced``
        records per file, observed wholesale.  Without this hook the
        replica that *originated* an update would never retain an
        ancestor, because pruning skips the per-file EQUAL visit.  A file
        whose version has not moved since its last sync point costs no
        read (:meth:`note_file_synced`).
        """
        with self._scope:
            self._note_subtree_synced(fh, set())

    def _note_subtree_synced(self, fh: FicusFileHandle, visiting: set[FicusFileHandle]) -> None:
        if fh in visiting:
            return
        visiting.add(fh)
        stored = self.stored_children(fh)
        for entry in self.read_entries(fh):
            if not entry.live:
                continue
            if entry.etype in DIR_TYPES:
                if self.has_directory(entry.fh):
                    self._note_subtree_synced(entry.fh, visiting)
            elif entry.etype == EntryType.FILE and entry.fh in stored:
                self.note_file_synced(fh, entry.fh)

    def recover(self) -> None:
        """Crash recovery for the whole replica, the first act of a reboot,
        as one operation.

        A directory the crash left half made or half freed goes: one whose
        Unix directory lacks ``.fdir``, or that has no record while no live
        entry names it — a ``mkdir`` cut short before anything published
        it, or a free cut short after its record was cleared.  Nothing can
        serve it, and reading it would fail the reboot.  Every other
        directory is recovered in turn (:meth:`recover_directory`).  Then
        each file's record counts the names it has left, and the records
        of objects stored nowhere are cleared: a file whose last name a
        crash removed, a directory whose Unix directory is gone.
        """
        with self._scope:
            dirs = self.all_directory_handles()
            whole = [fh for fh in dirs if FDIR_NAME in {e.name for e in self.dir_unix_vnode(fh).readdir()}]
            named = {self.root_handle()} | {
                entry.fh for fh in whole for entry in self.read_entries(fh) if entry.live
            }
            names: dict[FicusFileHandle, int] = {}
            for fh in dirs:
                if fh in whole and (fh in named or self.has_record(fh)):
                    for child in self.recover_directory(fh):
                        names[child] = names.get(child, 0) + 1
                else:
                    if self.has_record(fh):
                        self._stage_clear(fh)
                    self._remove_directory_storage(fh)
            for fh in self.record_handles():
                if not self.has_record(fh):
                    continue
                aux = self.read_record(fh)
                if aux.etype in DIR_TYPES:
                    if not self.has_directory(fh):
                        self._stage_clear(fh)
                elif not names.get(fh):
                    self._stage_clear(fh)
                elif aux.refs != names[fh]:
                    self.write_record(fh, aux._replace(refs=names[fh]))

    def recover_directory(self, fh: FicusFileHandle) -> list[FicusFileHandle]:
        """Crash recovery for one directory, in the order a reboot needs;
        returns the files whose contents it still stores.

        Contents with no record go (a create or a pulled new file cut short
        before its record landed, a free cut short after it cleared the
        record): they cannot be served.  A free the crash cut short is
        finished: the tombstone was durable before the storage was to go,
        so contents only tombstones name are garbage.  Contents no entry
        names whose record exists stay, waiting for the entry only this
        host could publish.
        """
        unix_dir = self.dir_unix_vnode(fh)
        entries = self.read_entries(fh)
        live = {entry.fh for entry in entries if entry.live}
        dead = {entry.fh for entry in entries} - live
        kept = []
        for name in sorted(self._unix_names(fh)):
            child = handle_of(name)
            if child is not None and self.has_record(child) and (child in live or child not in dead):
                kept.append(child)
                continue  # served, or waiting for the entry only this host could publish
            unix_dir.remove(name)
            self._changed(fh)
        return kept

    # -- recon digests (subtree pruning, Merkle-style) ---------------------------

    def stored_children(self, fh: FicusFileHandle) -> dict[FicusFileHandle, AuxAttributes]:
        """The live child files and symlinks ``fh`` stores and has a record
        of, each with its record: the one scan of a directory's stored
        files, which its digest and its attribute batch both read.

        Memoized in the decoded map until something it read changes: each
        live entry's object records this directory as a reader, so a
        change to it drops exactly the views and subtree digests above it
        (:meth:`_changed`).  The memo is the store's: a caller that hands
        it on copies it."""
        view = self._known.get(fh, _UNKNOWN).children
        if view is not None:
            return view
        view = {}
        for entry in self.read_entries(fh):
            if not entry.live or entry.etype is EntryType.LOCATION:
                continue
            child = entry.fh
            known = self._learn(child)
            if known.readers is None:
                known.readers = {fh}
            else:
                known.readers.add(fh)
            # a file with no record is stored nowhere, which costs no Unix
            # lookup to learn
            if (
                entry.etype in FILE_TYPES
                and child not in view
                and self.has_record(child)
                and self.stored_file(fh, child) is not None
            ):
                view[child] = self.read_record(child)
        self._learn(fh).children = view
        return view

    def _file_component(self, fh: FicusFileHandle, vv: VersionVector) -> int:
        """:func:`file_component`, computed once per vector of the file."""
        known = self._learn(fh)
        memo = known.component
        if memo is None or memo[0] != vv:
            memo = known.component = (vv, file_component(fh, vv))
        return memo[1]

    def directory_digest(self, fh: FicusFileHandle) -> str:
        """This directory's own recon digest, computed from what the replica
        stores: its vector, the fold of its entry records, and the fold of
        each child file it stores (:meth:`stored_children`) with that
        file's vector — through whichever name the file was last written."""
        files = 0
        for child, aux in self.stored_children(fh).items():
            files ^= self._file_component(child, aux.vv)
        return content_digest(
            self.read_record(fh).vv.encode(),
            fold_digest(entries_fold(self.read_entries(fh))),
            fold_digest(files),
        )

    def subtree_digest(self, fh: FicusFileHandle) -> str:
        """The recon digest of everything reachable from one directory.

        Folds the directory's own digest with each stored child
        directory's subtree digest.  Memoized per directory in the decoded
        map until something it read changes: a mutation drops the memo of
        the object it changed and of the directories above it, so the next
        probe refolds only the path to the change, and a converged replica
        answers repeated probes without touching disk.
        """
        return self._subtree_digest(fh, set())

    def _subtree_digest(self, fh: FicusFileHandle, visiting: set[FicusFileHandle]) -> str:
        cached = self._known.get(fh, _UNKNOWN).subtree
        if cached is not None:
            return cached
        local = self.directory_digest(fh)
        if fh in visiting:
            return local  # cycle guard; the namespace is a DAG in practice
        visiting.add(fh)
        parts = [local]
        for child in self.stored_child_directories(fh):
            parts.append(child.to_hex())
            parts.append(self._subtree_digest(child, visiting))
        visiting.discard(fh)
        digest = content_digest(*parts)
        self._learn(fh).subtree = digest
        return digest

    def stored_child_directories(self, fh: FicusFileHandle) -> list[FicusFileHandle]:
        """Live child directories (and graft points) with storage here."""
        return sorted(
            {
                entry.fh
                for entry in self.read_entries(fh)
                if entry.live
                and entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT)
                and self.has_directory(entry.fh)
            },
            key=lambda child: child.to_hex(),
        )

    # -- block transfer (rsync-style delta propagation) ------------------------

    def read_file_blocks(self, stored: Vnode, fh: FicusFileHandle, have: list[str]) -> FileBlocks:
        """One file replica's version, size and every fixed-size block
        whose digest is not ``have[i]``, each with its digest; ``stored``
        is the file's :meth:`stored_file` vnode."""
        contents = stored.read_all()
        blocks = {}
        for index, block in enumerate(split_blocks(contents)):
            digest = content_digest(block)
            if index >= len(have) or have[index] != digest:
                blocks[index] = (digest, block)
        return FileBlocks(vv=self.read_record(fh).vv, size=len(contents), blocks=blocks)

    # -- directory enumeration (for reconciliation sweeps) -----------------------

    def all_directory_handles(self) -> list[FicusFileHandle]:
        """Every Ficus directory with storage in this volume replica."""
        out = []
        for entry in self._nodes.readdir():
            if entry.name in (".", ".."):
                continue
            try:
                out.append(FicusFileHandle.from_hex(entry.name))
            except InvalidArgument:
                continue
        return out
