"""Storage organization of one Ficus volume replica.

"A volume replica is stored entirely within a Unix disk partition" (paper
Section 4.1).  This module manages that storage *through the vnode
interface of the layer below* — normally UFS, but by stackability anything
presenting the same interface.

Layout under the lower layer's root::

    <volrep-hex>/            one UFS directory per hosted volume replica
      .meta                  identity + id-mint counters
      .attr                  the attribute table: one record per Ficus
                             file and directory, keyed by logical handle
      nodes/
        <dirfh-hex>/         the "underlying Unix directory" of one Ficus
                             directory (keyed by the *logical* handle so
                             every replica uses the same key)
          .fdir              the Ficus directory file (entry records)
          <filefh-hex>       a regular file replica's contents

Regular files live inside their directory's UFS directory — the "on-disk
file organization closely parallels the logical Ficus name space topology"
(Section 2.6), which is what lets the UFS caches exploit directory
locality.  A file with several names has its contents hard-linked into each
naming directory's UFS directory and one record, whose ``refs`` counts
those stored names.  Ficus *directories* are keyed flat in ``nodes/`` so
that the directory DAG (multiple names for one directory, a consequence of
concurrent renames) needs no extra mechanism.

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
A record's ``updating`` mark is written by an operation of its own before
a write session's first write, so a crash before the session's close is
counted as an update by :meth:`ReplicaStore.recover`.

*Staged, flushed once per operation*: a directory's entry list
(``.fdir``) and every record of the attribute table.  A staging call only
records what the operation will leave.  Reads answer from the staged set
first, whatever the decoded caches hold.  The outermost exit, normal or by
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
    DELTA_BLOCK_SIZE,
    EMPTY_DIGEST,
    FDIR_NAME,
    META_NAME,
    STORE_BLOCK_SIZE,
    AuxAttributes,
    BlockDigests,
    DirectoryEntry,
    EntryId,
    EntryType,
    content_digest,
    decode_directory,
    encode_directory,
    split_blocks,
    xor_fold,
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
    """The logical handle of a volume's root directory."""
    return FicusFileHandle(volume, ROOT_FILE_ID)


def entries_fold(entries: list[DirectoryEntry]) -> str:
    """Order-independent fold of a directory's entry records."""
    fold = ""
    for entry in entries:
        fold = xor_fold(fold, entry.fold_component())
    return fold


def _storage_bottom(root: Vnode) -> object | None:
    """Walk down a vnode chain to the storage bottom.

    Returns the first object exposing ``cache_epoch`` (the UFS vnode
    adaptor; see :attr:`BufferCache.epoch`), whose operation scope and
    barrier the store uses too, or ``None`` when the stack has no such
    bottom (NFS-hopped storage) — decoded caches then rely purely on
    write-side invalidation through this store, and each call below is
    an operation of its own, on the device when it returns.
    """
    node: object | None = root
    while node is not None:
        if hasattr(node, "cache_epoch"):
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
    except (InvalidArgument, ValueError):
        return None


def file_component(fh: FicusFileHandle, vv: VersionVector) -> str:
    """One stored child file's contribution to its directory's digest."""
    return content_digest(fh.logical.to_hex(), vv.encode())


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
    """One table record as the open operation will leave it: ``aux`` is the
    live object, edited in place (``None``: cleared), ``stored`` the record
    the operation first read (``None``: it had none; equal records encode
    equally, so the comparison needs no encoding), and ``near`` the handle
    whose record's block a new record would share."""

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
        #: memoized subtree recon digests, cleared on every mutation; a
        #: converged replica answers repeated sync probes from memory
        self._subtree_memo: dict[FicusFileHandle, str] = {}
        #: subtree digest at the last wholesale ancestor refresh, so a
        #: converged replica pays the refresh walk once per state rather
        #: than once per recon tick (in-memory: a crash only costs one
        #: extra walk after reboot)
        self._ancestor_sync_memo: dict[FicusFileHandle, str] = {}
        # -- decoded-metadata caches ---------------------------------------
        # Every entry is stamped with the storage bottom's buffer-cache
        # epoch: when the block cache goes cold (invalidate_all, fault
        # injection) the decoded caches go cold with it, preserving the
        # paper's E3/E4 disk-I/O accounting byte for byte.  Mutations
        # through this store update or drop the affected keys directly.
        self._bottom = _storage_bottom(lower_root)
        # A storage bottom with caching disabled (the A2 "no caches"
        # ablation) disables the decoded caches with it; stacks without
        # an epoch provider (NFS-hopped storage) keep them on and rely
        # on write-side invalidation.
        self._caches_enabled = getattr(self._bottom, "caches_enabled", True)
        self._dir_vnode_cache: dict[str, tuple[int, Vnode]] = {}
        self._child_vnode_cache: dict[tuple[str, str], tuple[int, Vnode]] = {}
        self._entries_cache: dict[str, tuple[int, list[DirectoryEntry]]] = {}
        #: the table's decoded records, files' and directories' alike
        self._record_cache: dict[FicusFileHandle, tuple[int, AuxAttributes]] = {}
        # -- the attribute table: its vnode (a stable name, written in
        # place) and its index, built here by one read (``None`` after a
        # flush failed part-way: rebuilt from the device at next use)
        self._attr_vnode = self._base.lookup(ATTR_NAME)
        self._table: AttrTable | None = AttrTable.load(self._attr_vnode)
        # -- the operation scope: staged entry lists, by directory key, in
        # first-dirtied order, and staged records, by handle (never stamped:
        # they are not a cache)
        self._scope = _OperationScope(self, self._bottom.operation() if self._bottom is not None else None)
        self._pending: dict[str, _DirUpdate] = {}
        self._records: dict[FicusFileHandle, _Staged] = {}
        #: staging calls of the open operation, for ``dir_writes_coalesced``
        self._staged_calls = 0
        #: per id mint: the next id to hand out and the mark ``.meta`` holds
        self._mints: dict[str, list[int]] | None = None

    def _epoch(self) -> int:
        node = self._bottom
        return node.cache_epoch if node is not None else 0

    def _barrier(self) -> None:
        """Put every block the operation has written so far on the device
        before any it writes next (nothing is held without a bottom)."""
        if self._bottom is not None:
            self._bottom.fsync()

    def _cache_get(self, cache: dict, key) -> object | None:
        if not self._caches_enabled:
            return None
        entry = cache.get(key)
        if entry is None:
            return None
        if entry[0] != self._epoch():
            del cache[key]
            return None
        return entry[1]

    def _cache_put(self, cache: dict, key, value) -> None:
        if self._caches_enabled:
            cache[key] = (self._epoch(), value)

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

    @staticmethod
    def _dir_key(fh: FicusFileHandle) -> str:
        return fh.logical.to_hex()

    def has_directory(self, fh: FicusFileHandle) -> bool:
        try:
            self.dir_unix_vnode(fh)
            return True
        except FileNotFound:
            return False

    def dir_unix_vnode(self, fh: FicusFileHandle) -> Vnode:
        """The underlying Unix directory of a Ficus directory."""
        key = self._dir_key(fh)
        vnode = self._cache_get(self._dir_vnode_cache, key)
        if vnode is None:
            vnode = self._nodes.lookup(key)
            self._cache_put(self._dir_vnode_cache, key, vnode)
        return vnode

    def _unix_child(self, fh: FicusFileHandle, name: str) -> Vnode:
        """Look up (with caching) one name inside a directory's underlying
        Unix directory.  Mutations that unbind a cached name (unlink,
        directory removal) drop the affected keys."""
        key = (self._dir_key(fh), name)
        vnode = self._cache_get(self._child_vnode_cache, key)
        if vnode is None:
            vnode = self.dir_unix_vnode(fh).lookup(name)
            self._cache_put(self._child_vnode_cache, key, vnode)
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
        fh = fh.logical
        key = self._dir_key(fh)
        unix_dir = self._nodes.mkdir(key)
        fdir = unix_dir.create(FDIR_NAME)
        aux = AuxAttributes(fh=fh, etype=etype, refs=1, graft_volume=graft_volume)
        with self._scope:
            self._stage_new(fh, aux, parent)
        self._cache_put(self._dir_vnode_cache, key, unix_dir)
        self._cache_put(self._child_vnode_cache, (key, FDIR_NAME), fdir)
        self._cache_put(self._entries_cache, key, [])
        return unix_dir

    def remove_directory_storage(self, fh: FicusFileHandle, named_in: FicusFileHandle) -> None:
        """Ask for a dead directory's storage to be reclaimed: after the
        flush of ``named_in`` (the directory whose tombstone dropped the
        last name), and only if the directory then still has no reference
        and no live entry."""
        with self._scope:
            self._update(named_in).free_dirs.append(fh.logical)

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
        key = self._dir_key(fh)
        self._pending.pop(key, None)  # nothing left to describe
        unix_dir = self.dir_unix_vnode(fh)
        for entry in unix_dir.readdir():
            if entry.name not in (".", ".."):
                unix_dir.remove(entry.name)
        self._nodes.rmdir(key)
        self._dir_vnode_cache.pop(key, None)
        self._entries_cache.pop(key, None)
        for child_key in [k for k in self._child_vnode_cache if k[0] == key]:
            del self._child_vnode_cache[child_key]
        self._subtree_memo.clear()

    def read_entries(self, fh: FicusFileHandle) -> list[DirectoryEntry]:
        """All entries of a Ficus directory, tombstones included."""
        key = self._dir_key(fh)
        update = self._pending.get(key)
        if update is not None and update.entries is not None:
            return list(update.entries)
        cached = self._cache_get(self._entries_cache, key)
        if cached is not None:
            # fresh list: callers append/replace before writing back
            return list(cached)
        fdir = self._unix_child(fh, FDIR_NAME)
        entries = decode_directory(fdir.read_all())
        self._cache_put(self._entries_cache, key, list(entries))
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
        """A copy of a file's or directory's record as the open operation
        leaves it.  Keyed by the object alone: a hard-linked file has one
        record, so a write through any of its names is seen through every
        other."""
        return self._peek(fh.logical).clone()

    def write_record(self, fh: FicusFileHandle, aux: AuxAttributes) -> None:
        """Stage a file's or directory's whole record."""
        with self._scope:
            self._stage(fh.logical).aux = aux.clone()

    def staged_record(self, fh: FicusFileHandle) -> AuxAttributes:
        """A record as the open operation will leave it — the live object,
        so a change made to it is staged.  Only inside :meth:`operation`."""
        assert self._scope.depth, "records are staged inside an operation"
        return self._stage(fh.logical).aux

    def _peek(self, fh: FicusFileHandle) -> AuxAttributes:
        """One record as the open operation leaves it: the object the stage
        or the cache holds, which the caller must not change."""
        # an empty dict's get still hashes its key, and a handle's hash is
        # a Python call: most reads happen with nothing staged
        staged = self._records.get(fh) if self._records else None
        if staged is not None:
            if staged.aux is None:
                raise FileNotFound(f"the attribute record of {fh} is being cleared")
            return staged.aux
        aux = self._cache_get(self._record_cache, fh)
        if aux is None:
            aux = self._attr.read(fh)
            self._cache_put(self._record_cache, fh, aux)
        return aux

    def has_record(self, fh: FicusFileHandle) -> bool:
        """Does the table (as the open operation leaves it) hold ``fh``?"""
        staged = self._records.get(fh.logical) if self._records else None
        return staged.aux is not None if staged is not None else fh.logical in self._attr

    def record_handles(self) -> list[FicusFileHandle]:
        """Every handle with a record in the table."""
        return self._attr.handles()

    def _stage(self, fh: FicusFileHandle) -> _Staged:
        """The staged copy of an existing record, staged on first use."""
        staged = self._records.get(fh)
        if staged is None:
            stored = self._peek(fh)
            staged = self._records[fh] = _Staged(stored.clone(), stored)
        elif staged.aux is None:
            raise FileNotFound(f"the attribute record of {fh} is being cleared")
        self._staged_calls += 1
        self._subtree_memo.clear()
        return staged

    def _stage_new(self, fh: FicusFileHandle, aux: AuxAttributes, near: FicusFileHandle | None) -> None:
        """Stage a record for a handle that has none."""
        staged = self._records.get(fh)
        if staged is None:
            self._records[fh] = _Staged(aux, None, near)
        else:
            staged.aux = aux
        self._staged_calls += 1
        self._subtree_memo.clear()

    def _stage_clear(self, fh: FicusFileHandle) -> None:
        self._stage(fh).aux = None

    def _drop_name(self, fh: FicusFileHandle) -> None:
        """One stored name of a file is going: count it off its record, and
        clear the record with the last."""
        if not self.has_record(fh):
            return
        staged = self._stage(fh)
        staged.aux.refs -= 1
        if staged.aux.refs <= 0:
            staged.aux = None

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
        return self._dir_key(fh) not in self._pending and (not self._records or fh.logical not in self._records)

    def _update(self, fh: FicusFileHandle) -> _DirUpdate:
        key = self._dir_key(fh)
        update = self._pending.get(key)
        if update is None:
            update = self._pending[key] = _DirUpdate(fh.logical)
        self._subtree_memo.clear()
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
                    self._replace_record(self._unix_child(update.fh, FDIR_NAME), encode_directory(update.entries))
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
            for key, update in self._pending.items():
                if update.entries is not None:
                    self._cache_put(self._entries_cache, key, update.entries)
            for fh, staged in self._records.items():
                if staged.aux is None:
                    self._record_cache.pop(fh, None)
                else:
                    self._cache_put(self._record_cache, fh, staged.aux)
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
        self._entries_cache.clear()
        self._record_cache.clear()
        self._child_vnode_cache.clear()
        self._dir_vnode_cache.clear()
        self._subtree_memo.clear()
        self._ancestor_sync_memo.clear()
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
                if self.has_file(fh, child):
                    files.append((fh, child))
                    self._drop_name(child)
            for child in update.free_dirs:
                if (
                    child not in dirs
                    and self.has_directory(child)
                    and self._peek(child).refs <= 0
                    and not any(entry.live for entry in self.read_entries(child))
                ):
                    dirs.append(child)
                    self._doom_directory(child)
        return files, dirs

    # -- regular-file storage (lives inside the parent's Unix directory) --------

    @staticmethod
    def _file_key(fh: FicusFileHandle) -> str:
        return fh.logical.to_hex()

    def file_vnode(self, parent: FicusFileHandle, fh: FicusFileHandle) -> Vnode:
        """The contents vnode of a regular-file replica."""
        return self._unix_child(parent, self._file_key(fh))

    def mark_updating(self, fh: FicusFileHandle) -> None:
        """Mark a file's record ``updating``: an update session is about to
        write the contents for the first time since the vector's bump.  The
        mark must be on the device before that write, so it is written at
        once, never staged — the flag's byte, in place."""
        assert not self._scope.depth, "a mark is written before the write it announces"
        fh = fh.logical
        aux = self._peek(fh).clone()
        if aux.updating:
            return
        try:
            self._attr.mark_updating(fh)
        finally:
            self._record_cache.pop(fh, None)
        self.stats.records_in_place += 1
        aux.updating = True
        self._cache_put(self._record_cache, fh, aux)

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
        fh = fh.logical
        key = self._file_key(fh)
        contents = self.dir_unix_vnode(parent).create(key)
        aux = AuxAttributes(
            fh=fh,
            etype=etype,
            refs=1,
            merge_policy=merge_policy,
            ancestor=AuxAttributes.encode_ancestor([]),
        )
        self._cache_put(self._child_vnode_cache, (self._dir_key(parent), key), contents)
        with self._scope:
            self._stage_new(fh, aux, parent.logical)
        return contents

    def link_file_storage(
        self,
        src_parent: FicusFileHandle,
        dst_parent: FicusFileHandle,
        fh: FicusFileHandle,
    ) -> None:
        """Hard-link a file's contents into another directory.

        Gives the file a second name without copying: both Unix names share
        one inode, and the file keeps its one record, which counts the new
        name — so updates and version-vector changes are seen through
        every name.
        """
        fh = fh.logical
        key = self._file_key(fh)
        self.dir_unix_vnode(dst_parent).link(self.dir_unix_vnode(src_parent).lookup(key), key)
        with self._scope:
            self._stage(fh).aux.refs += 1

    def unlink_file_storage(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Ask for one directory's name for a file to be dropped: it goes
        after the flush has made the tombstone durable, and only if no live
        entry of the list it wrote names the file — a rename replayed as
        tombstone + insert in one operation keeps the storage it would
        otherwise pull again.  The flush that drops the last name clears
        the record, before the name goes."""
        fh = fh.logical
        with self._scope:
            if not self.has_file(parent, fh) or any(
                entry.live and entry.fh == fh for entry in self.read_entries(parent)
            ):
                return
            frees = self._update(parent).free_files
            if fh not in frees:
                frees.append(fh)

    def _unlink_file_storage(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        key = self._file_key(fh)
        self.dir_unix_vnode(parent).remove(key)
        self._child_vnode_cache.pop((self._dir_key(parent), key), None)
        self._subtree_memo.clear()

    def has_file(self, parent: FicusFileHandle, fh: FicusFileHandle) -> bool:
        try:
            self.file_vnode(parent, fh)
            return True
        except FileNotFound:
            return False

    # -- installing a version (single-file atomic commit, paper Section 3.2) ---

    def install(
        self,
        parent: FicusFileHandle,
        fh: FicusFileHandle,
        contents: bytes,
        vv: VersionVector,
        merge_policy: str,
        etype: EntryType = EntryType.FILE,
    ) -> None:
        """Install a version of a regular file — pulled, or a resolution —
        as ``contents`` with vector ``vv`` and policy tag ``merge_policy``.

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
        parent, fh = parent.logical, fh.logical
        ancestor = _ancestor_of(contents)
        with self._scope:
            if self.has_file(parent, fh):
                self._replace_record(self.file_vnode(parent, fh), contents)
            elif elsewhere := self._stored_elsewhere(parent, fh):
                self.link_file_storage(elsewhere[0], parent, fh)
                vnode = self.file_vnode(parent, fh)
                if vnode.read_all() != contents:  # a rename replayed: often the very bytes
                    self._replace_record(vnode, contents)
            else:
                key = self._file_key(fh)
                vnode = self.dir_unix_vnode(parent).create(key)
                self._cache_put(self._child_vnode_cache, (self._dir_key(parent), key), vnode)
                if contents:
                    vnode.write(0, contents)
                aux = AuxAttributes(fh=fh, etype=etype, vv=vv, merge_policy=merge_policy, ancestor=ancestor)
                self._stage_new(fh, aux, parent)
                return
            aux = self._stage(fh).aux
            aux.vv, aux.merge_policy, aux.ancestor = vv, merge_policy, ancestor

    def _stored_elsewhere(self, parent: FicusFileHandle, fh: FicusFileHandle) -> list[FicusFileHandle]:
        """The other directories storing ``fh`` (each names it in its
        entries); none unless its record counts a name outside ``parent``."""
        if not self.has_record(fh) or self._peek(fh).refs <= self.has_file(parent, fh):
            return []
        key = hash(fh)  # handles compare by their cached hash first: a full comparison is a nested one
        return [
            dir_fh
            for dir_fh in self.all_directory_handles()
            if dir_fh != parent
            and any(hash(entry.fh) == key and entry.fh == fh for entry in self.read_entries(dir_fh))
            and self.has_file(dir_fh, fh)
        ]

    # -- merge-ancestor retention (three-way conflict resolution) ---------------

    def note_file_synced(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Refresh the retained merge ancestor at an observed sync point.

        Called when reconciliation sees the local and remote versions
        EQUAL: the replicas demonstrably share these contents, so they are
        the latest common ancestor either side can prove.  Local writes
        never touch the record — only sync points do — which is what lets
        two later-conflicting hosts hold the *same* ancestor.
        """
        fh = fh.logical
        record = _ancestor_of(self.file_vnode(parent, fh).read_all())
        if self._peek(fh).ancestor != record:
            with self._scope:
                self._stage(fh).aux.ancestor = record

    def note_subtree_synced(self, fh: FicusFileHandle) -> None:
        """Refresh merge ancestors across a subtree proven equal to a peer.

        Reconciliation calls this when a subtree prune fires: the remote's
        subtree digest matched ours, so every file below this directory is
        demonstrably common — the same sync point ``note_file_synced``
        records per file, observed wholesale.  Without this hook the
        replica that *originated* an update would never retain an
        ancestor, because pruning skips the per-file EQUAL visit.
        """
        with self._scope:
            self._note_subtree_synced(fh.logical, set())

    def _note_subtree_synced(self, fh: FicusFileHandle, visiting: set[FicusFileHandle]) -> None:
        if fh in visiting:
            return
        visiting.add(fh)
        digest = self._subtree_digest(fh, set())
        if self._ancestor_sync_memo.get(fh) == digest:
            return  # already refreshed for this exact subtree state
        for entry in self.read_entries(fh):
            if not entry.live:
                continue
            if entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT):
                if self.has_directory(entry.fh):
                    self._note_subtree_synced(entry.fh.logical, visiting)
            elif entry.etype == EntryType.FILE and self.has_file(fh, entry.fh):
                self.note_file_synced(fh, entry.fh)
        self._ancestor_sync_memo[fh] = digest

    def recover(self) -> list[tuple[FicusFileHandle, VersionVector, VersionVector]]:
        """Crash recovery for the whole replica, the first act of a reboot,
        as one operation; returns the updates it counted, as (file, prior
        vector, new vector).

        A file whose record is marked ``updating`` was written by a session
        the crash cut short: its contents may be new, so the update is
        counted — its vector bumped, the mark cleared.  A directory the
        crash left half made or half freed goes: one whose
        Unix directory lacks ``.fdir``, or that has no record while no live
        entry names it — a ``mkdir`` cut short before anything published
        it, or a free cut short after its record was cleared.  Nothing can
        serve it, and reading it would fail the reboot.  Every other
        directory is recovered in turn (:meth:`recover_directory`).  Then
        each file's record counts the names it has left, and the records
        of objects stored nowhere are cleared: a file whose last name a
        crash removed, a directory whose Unix directory is gone.
        """
        counted = []
        with self._scope:
            for fh in self.record_handles():
                if self._peek(fh).updating:
                    aux = self._stage(fh).aux
                    prior, aux.vv, aux.updating = aux.vv, aux.vv.bump(self.replica_id), False
                    counted.append((fh, prior, aux.vv))
            dirs = self.all_directory_handles()
            whole = [fh for fh in dirs if FDIR_NAME in {e.name for e in self.dir_unix_vnode(fh).readdir()}]
            named = {self.root_handle()} | {
                entry.fh.logical for fh in whole for entry in self.read_entries(fh) if entry.live
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
                aux = self._peek(fh)
                if aux.etype in DIR_TYPES:
                    if not self.has_directory(fh):
                        self._stage_clear(fh)
                elif not names.get(fh):
                    self._stage_clear(fh)
                elif aux.refs != names[fh]:
                    self._stage(fh).aux.refs = names[fh]
        return counted

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
        fh = fh.logical
        unix_dir = self.dir_unix_vnode(fh)
        entries = self.read_entries(fh)
        live = {self._file_key(entry.fh) for entry in entries if entry.live}
        dead = {self._file_key(entry.fh) for entry in entries} - live
        kept = []
        for name in sorted(self._unix_names(fh)):
            child = handle_of(name)
            if child is not None and self.has_record(child) and (name in live or name not in dead):
                kept.append(child)
                continue  # served, or waiting for the entry only this host could publish
            unix_dir.remove(name)
            self._child_vnode_cache.pop((self._dir_key(fh), name), None)
            self._subtree_memo.clear()
        return kept

    # -- recon digests (subtree pruning, Merkle-style) ---------------------------

    def directory_digest(self, fh: FicusFileHandle) -> str:
        """This directory's own recon digest, computed from what the replica
        stores: its vector, the fold of its entry records, and the fold of
        each live child file stored in it with that file's vector — through
        whichever name the file was last written."""
        fh = fh.logical
        entries = self.read_entries(fh)
        files = ""
        seen: set[FicusFileHandle] = set()
        for entry in entries:
            child = entry.fh.logical
            if (
                entry.live
                and entry.etype in (EntryType.FILE, EntryType.SYMLINK)
                and child not in seen
                and self.has_record(child)
                and self.has_file(fh, child)
            ):
                seen.add(child)
                files = xor_fold(files, file_component(child, self._peek(child).vv))
        return content_digest(
            self._peek(fh).vv.encode(),
            entries_fold(entries) or EMPTY_DIGEST,
            files or EMPTY_DIGEST,
        )

    def subtree_digest(self, fh: FicusFileHandle) -> str:
        """The recon digest of everything reachable from one directory.

        Folds the directory's own digest with each stored child
        directory's subtree digest.  Memoized until the next mutation, so
        a converged replica answers repeated probes without touching disk.
        """
        return self._subtree_digest(fh.logical, set())

    def _subtree_digest(self, fh: FicusFileHandle, visiting: set[FicusFileHandle]) -> str:
        cached = self._subtree_memo.get(fh)
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
        self._subtree_memo[fh] = digest
        return digest

    def stored_child_directories(self, fh: FicusFileHandle) -> list[FicusFileHandle]:
        """Live child directories (and graft points) with storage here."""
        return sorted(
            {
                entry.fh.logical
                for entry in self.read_entries(fh)
                if entry.live
                and entry.etype in (EntryType.DIRECTORY, EntryType.GRAFT_POINT)
                and self.has_directory(entry.fh)
            },
            key=lambda child: child.to_hex(),
        )

    # -- block signatures (rsync-style delta propagation) ------------------------

    def file_block_digests(self, parent: FicusFileHandle, fh: FicusFileHandle) -> BlockDigests:
        """Content hashes of one file replica's fixed-size blocks."""
        contents = self.file_vnode(parent, fh).read_all()
        return BlockDigests(
            block_size=DELTA_BLOCK_SIZE,
            size=len(contents),
            vv=self._peek(fh.logical).vv,
            digests=[content_digest(block) for block in split_blocks(contents)],
        )

    def read_file_blocks(
        self, parent: FicusFileHandle, fh: FicusFileHandle, indices: list[int]
    ) -> dict[int, bytes]:
        """Fetch selected fixed-size blocks of one file replica."""
        vnode = self.file_vnode(parent, fh)
        out: dict[int, bytes] = {}
        for index in sorted({int(i) for i in indices}):
            data = vnode.read(index * DELTA_BLOCK_SIZE, DELTA_BLOCK_SIZE)
            if data:
                out[index] = data
        return out

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
