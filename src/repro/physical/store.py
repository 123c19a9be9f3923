"""Storage organization of one Ficus volume replica.

"A volume replica is stored entirely within a Unix disk partition" (paper
Section 4.1).  This module manages that storage *through the vnode
interface of the layer below* — normally UFS, but by stackability anything
presenting the same interface.

Layout under the lower layer's root::

    <volrep-hex>/            one UFS directory per hosted volume replica
      .meta                  identity + id-mint counters
      nodes/
        <dirfh-hex>/         the "underlying Unix directory" of one Ficus
                             directory (keyed by the *logical* handle so
                             every replica uses the same key)
          .fdir              the Ficus directory file (entry records)
          .faux              the directory's auxiliary attributes
          <filefh-hex>       a regular file replica's contents
          <filefh-hex>.aux   its auxiliary attributes (version vector...)
          <filefh-hex>.shadow  transient shadow during atomic propagation

Regular files live inside their directory's UFS directory — the "on-disk
file organization closely parallels the logical Ficus name space topology"
(Section 2.6), which is what lets the UFS caches exploit directory
locality.  A file with several names is hard-linked (contents and aux)
into each naming directory's UFS directory.  Ficus *directories* are keyed
flat in ``nodes/`` so that the directory DAG (multiple names for one
directory, a consequence of concurrent renames) needs no extra mechanism.

What an update writes, and when.  Two kinds of record, two disciplines.

*Write-through, in call order*: file contents, a file's own
``<filefh-hex>.aux``, the shadow and the UFS rename that commits it, and
``.meta``.  The (contents, version vector) commit of Section 3.2 is a
sequence the caller spells, and it reaches the device as spelled.  ``.meta``
holds the two id mints' high-water marks, fixed-width so the record never
changes length: ids are handed out from an in-memory range of
:data:`ID_RANGE` and the mark is written before the first id of a range is
used, so a crash skips ids and never reuses one.

*Staged, flushed once per operation and directory*: a directory's entry
list (``.fdir``) and its aux record (``.faux``).  Every store call that
changes either runs inside :meth:`ReplicaStore.operation` — re-entrant; a
call made outside any scope is a scope of its own — and only records what
the directory will hold.  ``read_entries``/``read_dir_aux`` answer from the
staged set first, whatever the decoded caches hold.  The outermost exit,
normal or by exception, writes each dirty directory in first-dirtied order:
``.fdir`` if its entries changed, then ``.faux`` once with the entry fold,
the file fold, the version vector and the reference count all final; a
record equal to the one the operation first read is not written.  Storage
an operation asked to free (:meth:`ReplicaStore.unlink_file_storage`,
:meth:`ReplicaStore.remove_directory_storage`) is freed after the flush of
the directory whose tombstone orphaned it, and only if the final state
still says it is garbage.  :meth:`ReplicaStore._flush_directory` is the
only writer of ``.fdir`` and ``.faux`` once ``create_directory_storage``
has made them.

A one-record file (``.meta``, ``.faux``, ``<filefh-hex>.aux``) is replaced
whole through :meth:`ReplicaStore._replace_record`: a record of the length
already on disk is overwritten in place (one data block, one inode write,
old-or-new under a crash), any other length is ``truncate(0)`` + ``write``.
``.fdir`` holds many records, changes length on every rewrite and is always
``truncate(0)`` + ``write``.  The device-write sequence of each operation,
what a crash between each pair of writes leaves, and the three rules of the
flush are ARCHITECTURE.md's "What one update writes, in order" and "The
flush protocol", held by ``tests/test_write_order.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FileNotFound, InvalidArgument
from repro.physical.wire import (
    AUX_SUFFIX,
    DELTA_BLOCK_SIZE,
    EMPTY_DIGEST,
    FAUX_NAME,
    FDIR_NAME,
    META_NAME,
    SHADOW_SUFFIX,
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
from repro.vnode.interface import Vnode
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


def _find_cache_epoch(root: Vnode) -> object | None:
    """Walk down a vnode chain to the storage bottom's epoch provider.

    Returns the first object exposing ``cache_epoch`` (the UFS vnode
    adaptor; see :attr:`BufferCache.epoch`), or ``None`` when the stack
    has no such bottom — decoded caches then rely purely on write-side
    invalidation through this store.
    """
    node: object | None = root
    while node is not None:
        if hasattr(node, "cache_epoch"):
            return node
        node = getattr(node, "lower", None)
    return None


def file_component(fh: FicusFileHandle, vv) -> str:
    """One stored child file's contribution to its directory's fold."""
    return content_digest(fh.logical.to_hex(), vv.encode())


@dataclass
class StoreStats:
    """What one replica store has done to its records, counted where it
    happens; the physical layer views it as the ``store.*`` metrics."""

    #: one-record replaces that kept the stored length (overwritten in place)
    records_in_place: int = 0
    #: one-record replaces that changed it (``truncate(0)`` + ``write``)
    records_resized: int = 0
    #: directories whose flush wrote ``.fdir`` or ``.faux``
    dir_flushes: int = 0
    #: staged directory-record updates a flush absorbed without a write
    dir_writes_coalesced: int = 0
    #: shadows made to receive a propagated version
    shadows_created: int = 0
    #: orphan shadows dropped by crash recovery
    shadows_scavenged: int = 0
    #: shadows renamed over the contents they replace
    shadow_commits: int = 0


class _DirUpdate:
    """What the open operation will leave in one directory's records."""

    __slots__ = ("fh", "entries", "stored_entries", "aux", "stored_aux", "free_files", "free_dirs", "staged")

    def __init__(self, fh: FicusFileHandle):
        self.fh = fh
        #: the staged entry list (``None``: not changed) and the list the
        #: operation first read
        self.entries: list[DirectoryEntry] | None = None
        self.stored_entries: list[DirectoryEntry] | None = None
        #: the staged aux record — the live object, edited in place —
        #: and the record the operation first read (equal records encode
        #: equally, so the comparison needs no encoding)
        self.aux: AuxAttributes | None = None
        self.stored_aux: AuxAttributes | None = None
        #: storage to free once this directory's records are durable
        self.free_files: list[FicusFileHandle] = []
        self.free_dirs: list[FicusFileHandle] = []
        #: staging calls, for ``StoreStats.dir_writes_coalesced``
        self.staged = 0


class _OperationScope:
    """The re-entrant ``with`` target of :meth:`ReplicaStore.operation`."""

    __slots__ = ("store", "depth")

    def __init__(self, store: "ReplicaStore"):
        self.store = store
        self.depth = 0

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, *exc_info: object) -> None:
        try:
            # still one deep while flushing: a store call the flush makes nests
            if self.depth == 1 and self.store._pending:
                self.store._flush()
        finally:
            self.depth -= 1


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
        self._epoch_node = _find_cache_epoch(lower_root)
        # A storage bottom with caching disabled (the A2 "no caches"
        # ablation) disables the decoded caches with it; stacks without
        # an epoch provider (NFS-hopped storage) keep them on and rely
        # on write-side invalidation.
        self._caches_enabled = getattr(self._epoch_node, "caches_enabled", True)
        self._dir_vnode_cache: dict[str, tuple[int, Vnode]] = {}
        self._child_vnode_cache: dict[tuple[str, str], tuple[int, Vnode]] = {}
        self._entries_cache: dict[str, tuple[int, list[DirectoryEntry]]] = {}
        self._dir_aux_cache: dict[str, tuple[int, AuxAttributes]] = {}
        self._file_aux_cache: dict[str, tuple[int, AuxAttributes]] = {}
        # -- the operation scope: staged directory records, by directory key,
        # in first-dirtied order (never stamped: they are not a cache)
        self._scope = _OperationScope(self)
        self._pending: dict[str, _DirUpdate] = {}
        #: per id mint: the next id to hand out and the mark ``.meta`` holds
        self._mints: dict[str, list[int]] | None = None

    def _epoch(self) -> int:
        node = self._epoch_node
        return node.cache_epoch if node is not None else 0

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

    def _replace_record(self, vnode: Vnode, data: bytes) -> None:
        """Replace the whole contents of a one-record file (``.meta``, a
        directory's ``.faux``, a file's ``.aux``).

        A record of the length already stored is overwritten in place:
        no block changes hands, and while the record fits one block of
        the storage below (every record the tests and workloads write
        does) that one block write carries all of it, so a crash leaves
        exactly the old record or exactly the new one.  Any other length
        is ``truncate(0)`` + ``write``, whose crash points can also leave
        the record empty.  Callers drop their decoded copy if this raises.
        """
        if vnode.getattr().size == len(data):
            self.stats.records_in_place += 1
        else:
            self.stats.records_resized += 1
            vnode.truncate(0)
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
        high-water mark; a range of :data:`ID_RANGE` is reserved by writing
        the mark through *before* the first id of the range is used, and a
        fresh attach resumes at the mark, so the ids a crash left reserved
        are skipped and none is ever handed out twice."""
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
        """Look up (with caching) one reserved file inside a directory's
        underlying Unix directory.  Mutations that rebind a cached name
        (shadow commit's rename, unlink, directory removal) drop the
        affected keys."""
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
    ) -> Vnode:
        """Materialize storage for a new Ficus directory (or graft point)."""
        key = self._dir_key(fh)
        unix_dir = self._nodes.mkdir(key)
        fdir = unix_dir.create(FDIR_NAME)
        aux = AuxAttributes(fh=fh.logical, etype=etype, refs=1, graft_volume=graft_volume)
        faux = unix_dir.create(FAUX_NAME)
        faux.write(0, aux.to_bytes())
        self._cache_put(self._dir_vnode_cache, key, unix_dir)
        self._cache_put(self._child_vnode_cache, (key, FDIR_NAME), fdir)
        self._cache_put(self._child_vnode_cache, (key, FAUX_NAME), faux)
        self._cache_put(self._entries_cache, key, [])
        self._cache_put(self._dir_aux_cache, key, aux.clone())
        self._subtree_memo.clear()
        return unix_dir

    def remove_directory_storage(self, fh: FicusFileHandle, named_in: FicusFileHandle) -> None:
        """Ask for a dead directory's storage to be reclaimed: after the
        flush of ``named_in`` (the directory whose tombstone dropped the
        last name), and only if the directory then still has no reference
        and no live entry."""
        with self._scope:
            self._update(named_in).free_dirs.append(fh.logical)

    def _remove_directory_storage(self, fh: FicusFileHandle) -> None:
        key = self._dir_key(fh)
        self._pending.pop(key, None)  # nothing left to describe
        unix_dir = self.dir_unix_vnode(fh)
        for entry in unix_dir.readdir():
            if entry.name in (".", ".."):
                continue
            unix_dir.remove(entry.name)
            self._file_aux_cache.pop(entry.name, None)
        self._nodes.rmdir(key)
        self._dir_vnode_cache.pop(key, None)
        self._entries_cache.pop(key, None)
        self._dir_aux_cache.pop(key, None)
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
        """Stage a directory's entry list, and its fold in the aux record."""
        with self._scope:
            update = self._stage_aux(fh)
            update.staged += 1  # two records: the list, and its fold in the aux
            if update.entries is None:
                update.stored_entries = self.read_entries(fh)
            update.entries = list(entries)
            update.aux.dig_entries = entries_fold(entries)

    def read_dir_aux(self, fh: FicusFileHandle) -> AuxAttributes:
        key = self._dir_key(fh)
        update = self._pending.get(key)
        if update is not None and update.aux is not None:
            return update.aux.clone()
        cached = self._cache_get(self._dir_aux_cache, key)
        if cached is not None:
            # clone: callers mutate the returned record in place
            return cached.clone()
        faux = self._unix_child(fh, FAUX_NAME)
        aux = AuxAttributes.from_bytes(faux.read_all())
        self._cache_put(self._dir_aux_cache, key, aux.clone())
        return aux

    def write_dir_aux(self, fh: FicusFileHandle, aux: AuxAttributes) -> None:
        """Stage a directory's whole aux record."""
        with self._scope:
            self._stage_aux(fh).aux = aux.clone()

    def staged_dir_aux(self, fh: FicusFileHandle) -> AuxAttributes:
        """A directory's aux record as the open operation will leave it —
        the live object, so a change made to it is staged.  Only inside
        :meth:`operation`."""
        assert self._scope.depth, "directory records are staged inside an operation"
        return self._stage_aux(fh).aux

    def _stage_aux(self, fh: FicusFileHandle) -> _DirUpdate:
        update = self._update(fh)
        update.staged += 1
        if update.aux is None:
            update.aux = self.read_dir_aux(fh)
            update.stored_aux = update.aux.clone()
        return update

    def _fold_file_into_dir(
        self,
        parent: FicusFileHandle,
        out_component: str = "",
        in_component: str = "",
    ) -> None:
        """Incrementally update a directory's stored-child-file fold."""
        with self._scope:
            aux = self.staged_dir_aux(parent)
            for component in (out_component, in_component):
                if component:
                    aux.dig_files = xor_fold(aux.dig_files, component)

    # -- the operation scope ------------------------------------------------------

    def operation(self) -> _OperationScope:
        """``with store.operation():`` — one operation's directory records
        are staged inside and flushed once, at the outermost exit."""
        return self._scope

    def flushed(self, fh: FicusFileHandle | None = None) -> bool:
        """Nothing staged for ``fh`` (``None``: for any directory)?  What
        leaves the host must describe durable state."""
        return not self._pending if fh is None else self._dir_key(fh) not in self._pending

    def _update(self, fh: FicusFileHandle) -> _DirUpdate:
        key = self._dir_key(fh)
        update = self._pending.get(key)
        if update is None:
            update = self._pending[key] = _DirUpdate(fh.logical)
        self._subtree_memo.clear()
        return update

    def _flush(self) -> None:
        """Write every staged directory, in first-dirtied order.  One that
        fails loses its decoded copies (the write may have half-landed) and
        the rest are still attempted; the first failure is raised."""
        failure: BaseException | None = None
        while self._pending:
            key = next(iter(self._pending))
            try:
                self._flush_directory(key, self._pending[key])
            except BaseException as exc:
                self._pending.pop(key, None)
                self._entries_cache.pop(key, None)
                self._dir_aux_cache.pop(key, None)
                failure = failure or exc
        if failure is not None:
            raise failure

    def _flush_directory(self, key: str, update: _DirUpdate) -> None:
        """``.fdir`` if the entries changed, then ``.faux`` once, then the
        frees this directory's tombstones asked for.  Until the records are
        written the directory stays staged, so every read here sees the
        state the operation is leaving."""
        fh = update.fh
        doomed = update.free_files
        if doomed:
            # a file a live entry of the final list names again keeps its
            # storage; it left the fold when the free was asked for, so
            # the folds are re-anchored from what is stored
            named = {entry.fh for entry in self.read_entries(fh) if entry.live}
            if named.intersection(doomed):
                doomed = [child for child in doomed if child not in named]
                self.refresh_dir_digests(fh)
        written = 0
        if update.entries is not None and update.entries != update.stored_entries:
            fdir = self._unix_child(fh, FDIR_NAME)
            data = encode_directory(update.entries)
            fdir.truncate(0)
            if data:
                fdir.write(0, data)
            written += 1
        if update.aux is not None and update.aux != update.stored_aux:
            self._replace_record(self._unix_child(fh, FAUX_NAME), update.aux.to_bytes())
            written += 1
        del self._pending[key]
        if update.entries is not None:
            self._cache_put(self._entries_cache, key, update.entries)
        if update.aux is not None:
            self._cache_put(self._dir_aux_cache, key, update.aux)
        if written:
            self.stats.dir_flushes += 1
        if update.staged > written:
            self.stats.dir_writes_coalesced += update.staged - written
        for child in doomed:
            if self.has_file(fh, child):
                self._unlink_file_storage(fh, child)
        for child in update.free_dirs:
            if (
                self.has_directory(child)
                and self.read_dir_aux(child).refs <= 0
                and not any(entry.live for entry in self.read_entries(child))
            ):
                self._remove_directory_storage(child)

    # -- regular-file storage (lives inside the parent's Unix directory) --------

    @staticmethod
    def _file_key(fh: FicusFileHandle) -> str:
        return fh.logical.to_hex()

    def file_vnode(self, parent: FicusFileHandle, fh: FicusFileHandle) -> Vnode:
        """The contents vnode of a regular-file replica."""
        return self._unix_child(parent, self._file_key(fh))

    def aux_vnode(self, parent: FicusFileHandle, fh: FicusFileHandle) -> Vnode:
        return self._unix_child(parent, self._file_key(fh) + AUX_SUFFIX)

    def read_file_aux(self, parent: FicusFileHandle, fh: FicusFileHandle) -> AuxAttributes:
        # Keyed by the FILE (not the ⟨parent, file⟩ pair): a hard-linked
        # file's aux is one shared inode, so a write through any naming
        # directory must be seen through every other name.
        key = self._file_key(fh)
        cached = self._cache_get(self._file_aux_cache, key)
        if cached is not None:
            return cached.clone()
        aux = AuxAttributes.from_bytes(self.aux_vnode(parent, fh).read_all())
        self._cache_put(self._file_aux_cache, key, aux.clone())
        return aux

    def write_file_aux(
        self, parent: FicusFileHandle, fh: FicusFileHandle, aux: AuxAttributes
    ) -> None:
        vnode = self.aux_vnode(parent, fh)
        old = self.read_file_aux(parent, fh)
        key = self._file_key(fh)
        try:
            self._replace_record(vnode, aux.to_bytes())
        except BaseException:
            self._file_aux_cache.pop(key, None)
            raise
        self._cache_put(self._file_aux_cache, key, aux.clone())
        if old.vv != aux.vv:
            self._fold_file_into_dir(
                parent,
                out_component=file_component(fh, old.vv),
                in_component=file_component(fh, aux.vv),
            )

    def create_file_storage(
        self,
        parent: FicusFileHandle,
        fh: FicusFileHandle,
        etype: EntryType = EntryType.FILE,
        merge_policy: str = "",
    ) -> Vnode:
        """Materialize contents + aux for a new regular file or symlink.

        The fresh aux record retains the empty file as the merge ancestor:
        creation is the first sync point (every replica starts from the
        same nothing).
        """
        unix_dir = self.dir_unix_vnode(parent)
        key = self._file_key(fh)
        contents = unix_dir.create(key)
        aux = AuxAttributes(
            fh=fh.logical,
            etype=etype,
            refs=1,
            merge_policy=merge_policy,
            ancestor=AuxAttributes.encode_ancestor([]),
        )
        aux_file = unix_dir.create(key + AUX_SUFFIX)
        aux_file.write(0, aux.to_bytes())
        dir_key = self._dir_key(parent)
        self._cache_put(self._child_vnode_cache, (dir_key, key), contents)
        self._cache_put(self._child_vnode_cache, (dir_key, key + AUX_SUFFIX), aux_file)
        self._cache_put(self._file_aux_cache, key, aux.clone())
        self._fold_file_into_dir(parent, in_component=file_component(fh, aux.vv))
        return contents

    def link_file_storage(
        self,
        src_parent: FicusFileHandle,
        dst_parent: FicusFileHandle,
        fh: FicusFileHandle,
    ) -> None:
        """Hard-link a file's contents and aux into another directory.

        Gives the file a second name without copying: both Unix names share
        one inode, so updates and version-vector changes are seen through
        every name.
        """
        src_dir = self.dir_unix_vnode(src_parent)
        dst_dir = self.dir_unix_vnode(dst_parent)
        key = self._file_key(fh)
        dst_dir.link(src_dir.lookup(key), key)
        dst_dir.link(src_dir.lookup(key + AUX_SUFFIX), key + AUX_SUFFIX)
        aux = self.read_file_aux(dst_parent, fh)
        self._fold_file_into_dir(dst_parent, in_component=file_component(fh, aux.vv))

    def unlink_file_storage(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Ask for one directory's name for a file to be dropped (UFS
        frees at the last link).  The file leaves the directory's fold now;
        its storage goes after ``parent``'s flush has made the tombstone
        durable, and only if no live entry of the list it wrote names the
        file — a rename replayed as tombstone + insert in one operation
        keeps the storage it would otherwise pull again."""
        fh = fh.logical
        with self._scope:
            if not self.has_file(parent, fh) or any(
                entry.live and entry.fh == fh for entry in self.read_entries(parent)
            ):
                return
            frees = self._update(parent).free_files
            if fh in frees:
                return
            try:
                component = file_component(fh, self.read_file_aux(parent, fh).vv)
            except (FileNotFound, InvalidArgument):
                component = ""
            self._fold_file_into_dir(parent, out_component=component)
            frees.append(fh)

    def _unlink_file_storage(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        unix_dir = self.dir_unix_vnode(parent)
        key = self._file_key(fh)
        unix_dir.remove(key)
        unix_dir.remove(key + AUX_SUFFIX)
        try:
            unix_dir.remove(key + SHADOW_SUFFIX)
        except FileNotFound:
            pass
        dir_key = self._dir_key(parent)
        self._child_vnode_cache.pop((dir_key, key), None)
        self._child_vnode_cache.pop((dir_key, key + AUX_SUFFIX), None)
        self._file_aux_cache.pop(key, None)
        self._subtree_memo.clear()

    def has_file(self, parent: FicusFileHandle, fh: FicusFileHandle) -> bool:
        try:
            self.file_vnode(parent, fh)
            return True
        except FileNotFound:
            return False

    # -- shadow files (single-file atomic commit, paper Section 3.2) -----------

    def shadow_vnode(self, parent: FicusFileHandle, fh: FicusFileHandle, create: bool = False) -> Vnode:
        unix_dir = self.dir_unix_vnode(parent)
        key = self._file_key(fh) + SHADOW_SUFFIX
        try:
            return unix_dir.lookup(key)
        except FileNotFound:
            if not create:
                raise
            self.stats.shadows_created += 1
            return unix_dir.create(key)

    def commit_shadow(
        self, parent: FicusFileHandle, fh: FicusFileHandle, vv: VersionVector
    ) -> None:
        """Atomically replace the file contents with its shadow.

        "a shadow file replica is used to hold the new version until it is
        completely propagated, and then the shadow atomically replaces the
        original by changing a low-level directory reference."  The
        low-level reference change is a UFS rename.
        """
        unix_dir = self.dir_unix_vnode(parent)
        key = self._file_key(fh)
        unix_dir.rename(key + SHADOW_SUFFIX, unix_dir, key)
        # the rename rebound the contents name to the shadow's inode: any
        # cached contents vnode for this name is now the WRONG file
        self._child_vnode_cache.pop((self._dir_key(parent), key), None)
        aux = self.read_file_aux(parent, fh)
        aux.vv = vv
        # a commit installs contents both replicas now share — a sync
        # point, so the installed version becomes the retained ancestor
        aux.ancestor = self._ancestor_record(parent, fh)
        self.write_file_aux(parent, fh, aux)
        self.stats.shadow_commits += 1

    def abort_shadow(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Discard an uncommitted shadow ("the shadow discarded")."""
        try:
            self.dir_unix_vnode(parent).remove(self._file_key(fh) + SHADOW_SUFFIX)
        except FileNotFound:
            pass

    # -- merge-ancestor retention (three-way conflict resolution) ---------------

    def _ancestor_record(self, parent: FicusFileHandle, fh: FicusFileHandle) -> str:
        """Encode the current contents' block digests as an ancestor record."""
        contents = self.file_vnode(parent, fh).read_all()
        return AuxAttributes.encode_ancestor(
            [content_digest(block) for block in split_blocks(contents)]
        )

    def note_file_synced(self, parent: FicusFileHandle, fh: FicusFileHandle) -> None:
        """Refresh the retained merge ancestor at an observed sync point.

        Called when reconciliation sees the local and remote versions
        EQUAL: the replicas demonstrably share these contents, so they are
        the latest common ancestor either side can prove.  Local writes
        never touch the record — only sync points do — which is what lets
        two later-conflicting hosts hold the *same* ancestor.
        """
        aux = self.read_file_aux(parent, fh)
        record = self._ancestor_record(parent, fh)
        if aux.ancestor != record:
            aux.ancestor = record
            # vv unchanged, so this never disturbs the recon digests
            self.write_file_aux(parent, fh, aux)

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

    def scavenge_shadows(self, fh: FicusFileHandle) -> int:
        """Crash recovery: drop every orphan shadow in one directory."""
        unix_dir = self.dir_unix_vnode(fh)
        dropped = 0
        for entry in unix_dir.readdir():
            if entry.name.endswith(SHADOW_SUFFIX):
                unix_dir.remove(entry.name)
                dropped += 1
        self.stats.shadows_scavenged += dropped
        return dropped

    def recover(self) -> None:
        """Crash recovery for the whole replica, the first act of a reboot.

        A directory the crash left half made or half freed goes: one whose
        Unix directory lacks ``.fdir`` or ``.faux``, or whose aux record
        does not decode while no live entry names it — a ``mkdir`` cut
        short before anything published it, or a free cut short after its
        tombstone was durable.  Nothing can serve it, and reading it would
        fail the reboot.  Every other directory is recovered in turn
        (:meth:`recover_directory`).
        """
        dirs = self.all_directory_handles()
        whole = [
            fh
            for fh in dirs
            if {FDIR_NAME, FAUX_NAME} <= {e.name for e in self.dir_unix_vnode(fh).readdir()}
        ]
        named = {self.root_handle()} | {
            entry.fh.logical for fh in whole for entry in self.read_entries(fh) if entry.live
        }
        for fh in dirs:
            if fh in whole and (fh in named or self._decodes(self.dir_unix_vnode(fh), FAUX_NAME)):
                self.recover_directory(fh)
            else:
                self._remove_directory_storage(fh)

    def recover_directory(self, fh: FicusFileHandle) -> None:
        """Crash recovery for one directory, in the order a reboot needs.

        Orphan shadows go.  A file the crash left half made or half
        unlinked goes — contents with no aux record beside them or the
        reverse, and contents no entry names whose aux record does not
        decode (a create cut short before it published anything): none of
        them can be served.  A free the crash cut short is finished: the
        tombstone was durable before the storage was to go, so storage
        only tombstones name is garbage.  Then the folds are recomputed
        from what is stored — a crash between a file's aux write and its
        directory's flush must not leave equal digests over different
        state.  A *published* record torn inside its resized replace reads
        empty and is left as it is: ``ficus_fsck``'s finding.
        """
        fh = fh.logical
        self.scavenge_shadows(fh)
        unix_dir = self.dir_unix_vnode(fh)
        names = {entry.name for entry in unix_dir.readdir()} - {".", "..", FDIR_NAME, FAUX_NAME}
        entries = self.read_entries(fh)
        live = {self._file_key(entry.fh) for entry in entries if entry.live}
        dead = {self._file_key(entry.fh) for entry in entries} - live
        for name in sorted(names):
            key = name.removesuffix(AUX_SUFFIX)
            whole = {key, key + AUX_SUFFIX} <= names
            if whole and (key in live or (key not in dead and self._decodes(unix_dir, key + AUX_SUFFIX))):
                continue  # served, or waiting for the entry only this host could publish
            unix_dir.remove(name)
        try:
            self.refresh_dir_digests(fh)
        except InvalidArgument:
            pass

    @staticmethod
    def _decodes(unix_dir: Vnode, name: str) -> bool:
        """Does the aux record ``name`` of ``unix_dir`` decode?"""
        try:
            AuxAttributes.from_bytes(unix_dir.lookup(name).read_all())
            return True
        except InvalidArgument:
            return False

    # -- recon digests (subtree pruning, Merkle-style) ---------------------------

    def directory_digest(self, fh: FicusFileHandle) -> str:
        """This directory's own recon digest: vv + entry fold + file fold."""
        aux = self.read_dir_aux(fh)
        return content_digest(
            aux.vv.encode(),
            aux.dig_entries or EMPTY_DIGEST,
            aux.dig_files or EMPTY_DIGEST,
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

    def refresh_dir_digests(self, fh: FicusFileHandle) -> None:
        """Authoritatively recompute one directory's digest components.

        The incremental folds can drift when a hard-linked file's aux is
        rewritten through a *different* naming directory (that path cannot
        see this parent).  Drift only delays pruning — digest inequality
        never skips needed work — and reconciliation calls this to
        re-anchor the folds from the actual stored state.
        """
        fh = fh.logical
        entries = self.read_entries(fh)
        fold_entries = entries_fold(entries)
        fold_files = ""
        seen: set[FicusFileHandle] = set()
        for entry in entries:
            child = entry.fh.logical
            if (
                not entry.live
                or entry.etype not in (EntryType.FILE, EntryType.SYMLINK)
                or child in seen
                or not self.has_file(fh, child)
            ):
                continue
            seen.add(child)
            fold_files = xor_fold(fold_files, file_component(child, self.read_file_aux(fh, child).vv))
        aux = self.read_dir_aux(fh)
        if aux.dig_entries != fold_entries or aux.dig_files != fold_files:
            with self._scope:
                aux = self.staged_dir_aux(fh)
                aux.dig_entries = fold_entries
                aux.dig_files = fold_files

    # -- block signatures (rsync-style delta propagation) ------------------------

    def file_block_digests(self, parent: FicusFileHandle, fh: FicusFileHandle) -> BlockDigests:
        """Content hashes of one file replica's fixed-size blocks."""
        contents = self.file_vnode(parent, fh).read_all()
        aux = self.read_file_aux(parent, fh)
        return BlockDigests(
            block_size=DELTA_BLOCK_SIZE,
            size=len(contents),
            vv=aux.vv,
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
