"""On-disk record formats and reply payloads of the physical layer.

* **Ficus directory entries and auxiliary attributes** — Ficus directories
  are stored as UFS *files* of entry records, and "replication-related
  attributes [are] stored in an auxiliary file" (paper Section 2.6).

* **Replies of the Ficus vnode operations** — attribute batches, sync
  probes and block digests.  They have no wire form: the NFS hop carries
  them as the objects they are, so only what is stored is encoded.

The paper "overloaded the lookup service by encoding an open/close request
as a null-terminated ASCII string" (Section 2.3) because SunOS NFS dropped
calls it did not know.  Our NFS forwards every operation the physical
layer implements, so nothing here encodes a request in a name; benchmark
E10 keeps a rendering of the paper's encoding and its name-length cost.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import InvalidArgument
from repro.util import FicusFileHandle, decode_record, encode_record
from repro.vv import VersionVector

#: Reserved UFS names inside a Ficus directory's underlying Unix directory.
FDIR_NAME = ".fdir"  # the Ficus directory entry file
FAUX_NAME = ".faux"  # the directory's auxiliary attribute file
META_NAME = ".meta"  # volume-replica counters (file-id / entry-id mints)
AUX_SUFFIX = ".aux"  # per-file auxiliary attribute file
SHADOW_SUFFIX = ".shadow"  # transient shadow replica during propagation

# ---------------------------------------------------------------------------
# Recon digests and block signatures (the incremental sync plane)
# ---------------------------------------------------------------------------

#: Fixed block size for block-delta propagation (rsync-style signatures).
DELTA_BLOCK_SIZE = 4096

#: Width of a recon digest in hex characters (128 bits of SHA-256).
DIGEST_HEX_LEN = 32

#: The fold identity: the digest of "nothing" (an empty entry/child set).
EMPTY_DIGEST = "0" * DIGEST_HEX_LEN


def content_digest(*parts: bytes | str) -> str:
    """Collision-resistant digest of some byte/str parts (hex, 128 bits)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.hexdigest()[:DIGEST_HEX_LEN]


def xor_fold(accumulated: str, part: str) -> str:
    """Fold one digest into an accumulator, order-independently.

    XOR makes the fold commutative and self-inverse, so a mutation can
    update an accumulated digest incrementally: fold the old component out
    and the new one in, without rescanning the whole set.
    """
    if not accumulated:
        accumulated = EMPTY_DIGEST
    if not part:
        part = EMPTY_DIGEST
    return format(int(accumulated, 16) ^ int(part, 16), f"0{DIGEST_HEX_LEN}x")


class EntryType(enum.Enum):
    """What a Ficus directory entry names."""

    FILE = "file"
    DIRECTORY = "dir"
    SYMLINK = "symlink"
    #: A graft point: "a special file type used to indicate that a
    #: (specific) volume is to be transparently grafted at this point in
    #: the name space" (paper Section 4.3).
    GRAFT_POINT = "graft"
    #: A volume-replica location record inside a graft point: "the list of
    #: volume replicas and the (Internet) addresses of the managing Ficus
    #: physical layers are conveniently maintained as directory entries"
    #: (Section 4.3).  Pure metadata — no backing storage.
    LOCATION = "loc"


@dataclass(frozen=True, order=True)
class EntryId:
    """Globally unique id of one directory-entry *insertion event*.

    Reinserting a deleted name is a new event with a new id, which is what
    lets insert/delete reconciliation converge without clocks.
    """

    replica_id: int
    seq: int

    def encode(self) -> str:
        # Frozen value object: encode once (hot in directory folds).
        cached = self.__dict__.get("_enc")
        if cached is None:
            cached = f"{self.replica_id:x}:{self.seq:x}"
            object.__setattr__(self, "_enc", cached)
        return cached

    @classmethod
    def decode(cls, text: str) -> "EntryId":
        try:
            rep, seq = text.split(":")
            return cls(int(rep, 16), int(seq, 16))
        except ValueError as exc:
            raise InvalidArgument(f"bad entry id {text!r}") from exc


@dataclass
class DirectoryEntry:
    """One record of a Ficus directory file.

    ``status`` is ``live`` or ``dead`` (a tombstone).  Tombstones are kept
    so that a deletion performed in one partition wins over the stale copy
    of the entry in another.  ``data`` carries graft-point payload (the
    storage-site host address for one volume replica).

    Two-phase tombstone collection state (dead entries only): ``acks``
    records which volume replicas have seen the deletion (phase 1);
    ``acks2`` records which replicas have *observed that phase 1 is
    complete* (phase 2).  A tombstone may be purged only when acks2
    covers every replica — purging on a full phase-1 set alone is the
    classic mistake (the purger stops relaying the acknowledgements its
    peers still need).
    """

    eid: EntryId
    name: str
    fh: FicusFileHandle
    etype: EntryType
    status: str = "live"
    data: str = ""
    acks: frozenset[int] = frozenset()
    acks2: frozenset[int] = frozenset()

    @property
    def live(self) -> bool:
        return self.status == "live"

    def killed(self, acks: frozenset[int] = frozenset()) -> "DirectoryEntry":
        return DirectoryEntry(self.eid, self.name, self.fh, self.etype, "dead", self.data, acks)

    def with_acks(
        self, acks: frozenset[int], acks2: frozenset[int] | None = None
    ) -> "DirectoryEntry":
        return DirectoryEntry(
            self.eid,
            self.name,
            self.fh,
            self.etype,
            self.status,
            self.data,
            frozenset(acks),
            frozenset(acks2) if acks2 is not None else self.acks2,
        )

    def to_record(self) -> dict[str, str]:
        rec = {
            "eid": self.eid.encode(),
            "name": self.name,
            "fh": self.fh.to_hex(),
            "type": self.etype.value,
            "status": self.status,
        }
        if self.data:
            rec["data"] = self.data
        if self.acks:
            rec["acks"] = ",".join(str(r) for r in sorted(self.acks))
        if self.acks2:
            rec["acks2"] = ",".join(str(r) for r in sorted(self.acks2))
        return rec

    def encoded_line(self) -> str:
        """This entry's serialized record line, memoized per instance.

        Entries are never mutated in place (``killed``/``with_acks``
        derive new objects), so the encoding of one instance is stable;
        rewriting a directory then re-encodes only the entries that
        actually changed.
        """
        cached = self.__dict__.get("_line")
        if cached is None:
            cached = encode_record(self.to_record())
            self._line = cached
        return cached

    def fold_component(self) -> str:
        """This entry's contribution to the directory entry fold."""
        cached = self.__dict__.get("_fold")
        if cached is None:
            cached = content_digest(self.encoded_line())
            self._fold = cached
        return cached

    @classmethod
    def from_record(cls, rec: dict[str, str]) -> "DirectoryEntry":
        try:
            return cls(
                eid=EntryId.decode(rec["eid"]),
                name=rec["name"],
                fh=FicusFileHandle.from_hex(rec["fh"]),
                etype=EntryType(rec["type"]),
                status=rec.get("status", "live"),
                data=rec.get("data", ""),
                acks=frozenset(int(r) for r in rec.get("acks", "").split(",") if r),
                acks2=frozenset(int(r) for r in rec.get("acks2", "").split(",") if r),
            )
        except KeyError as exc:
            raise InvalidArgument(f"directory entry missing field {exc}") from exc


@dataclass
class AuxAttributes:
    """Replication attributes of one file replica (the auxiliary file).

    "These attributes would be placed in the inode if we were to modify
    the UFS" (paper Section 2.6).
    """

    fh: FicusFileHandle
    etype: EntryType
    vv: VersionVector = field(default_factory=VersionVector)
    #: live directory entries referencing this object in this volume
    #: replica — drives storage garbage collection for directories.
    refs: int = 1
    #: graft points record their target volume here (hex VolumeId).
    graft_volume: str = ""
    #: recon digest components (directories only; empty = "not computed").
    #: ``dig_entries`` folds every entry record of the directory file;
    #: ``dig_files`` folds (handle, version vector) of each child file
    #: whose contents are stored here.  Maintained incrementally on every
    #: physical-layer mutation and recomputed authoritatively at the end
    #: of each directory reconciliation (hard links can leave a sibling
    #: directory's fold stale; drift only costs a missed prune, and the
    #: recompute self-heals it).
    dig_entries: str = ""
    dig_files: str = ""
    #: merge-policy tag naming the automatic conflict resolver for this
    #: file (regular files only; ``""`` = none declared).  Travels with
    #: the replica through the attribute plane so every host applies the
    #: same resolver to the same conflict.
    merge_policy: str = ""
    #: retained common-ancestor block digests for three-way merging
    #: (regular files only).  ``""`` = no ancestor on record; ``"-"`` =
    #: the ancestor was the empty file; else comma-joined block digests.
    #: Host-local (refreshed at sync points, never propagated as truth),
    #: but both ends of a conflict converge on the same record because
    #: each refresh captures contents the replicas demonstrably shared.
    ancestor: str = ""

    def clone(self) -> "AuxAttributes":
        """A copy callers may mutate (every field is an immutable value)."""
        return AuxAttributes(
            self.fh,
            self.etype,
            self.vv,
            self.refs,
            self.graft_volume,
            self.dig_entries,
            self.dig_files,
            self.merge_policy,
            self.ancestor,
        )

    def to_bytes(self) -> bytes:
        rec = {
            "fh": self.fh.to_hex(),
            "type": self.etype.value,
            "vv": self.vv.encode(),
            "refs": str(self.refs),
        }
        if self.graft_volume:
            rec["graftvol"] = self.graft_volume
        if self.dig_entries:
            rec["dige"] = self.dig_entries
        if self.dig_files:
            rec["digf"] = self.dig_files
        if self.merge_policy:
            rec["mpol"] = self.merge_policy
        if self.ancestor:
            rec["anc"] = self.ancestor
        return encode_record(rec).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "AuxAttributes":
        rec = decode_record(data.decode("utf-8"))
        try:
            return cls(
                fh=FicusFileHandle.from_hex(rec["fh"]),
                etype=EntryType(rec["type"]),
                vv=VersionVector.decode(rec.get("vv", "")),
                refs=int(rec.get("refs", "1")),
                graft_volume=rec.get("graftvol", ""),
                dig_entries=rec.get("dige", ""),
                dig_files=rec.get("digf", ""),
                merge_policy=rec.get("mpol", ""),
                ancestor=rec.get("anc", ""),
            )
        except KeyError as exc:
            raise InvalidArgument(f"aux record missing field {exc}") from exc

    def ancestor_digests(self) -> tuple[str, ...] | None:
        """The retained ancestor as a digest tuple, or ``None`` if absent."""
        if not self.ancestor:
            return None
        if self.ancestor == "-":
            return ()
        return tuple(self.ancestor.split(","))

    @staticmethod
    def encode_ancestor(digests: list[str] | tuple[str, ...]) -> str:
        """Encode block digests for the ``ancestor`` field (never ``""``)."""
        return ",".join(digests) or "-"


@dataclass
class AttrBatch:
    """One directory's worth of auxiliary attributes, fetched in one call.

    The reply of the ``getattrs_batch`` vnode operation: the directory's
    own aux record plus the aux records of the children stored at this
    replica, keyed by the logical half of their file handle (stable across
    replicas, unlike the physical half).  This is the attribute plane —
    replica selection needs every version vector of a directory anyway, so
    shipping them together turns O(children) per-file RPCs into one.
    """

    dir_aux: AuxAttributes
    children: dict[FicusFileHandle, AuxAttributes] = field(default_factory=dict)

    def child(self, fh: FicusFileHandle) -> AuxAttributes | None:
        return self.children.get(fh.logical)


@dataclass
class SyncProbe:
    """The reply of the ``sync_probe`` vnode operation.

    ``digest`` summarizes one directory's entire subtree — its version
    vector, entry records, stored child-file versions, and (recursively)
    its subdirectories.  Two replicas whose probes match are converged
    below that directory, so reconciliation can skip the subtree without
    reading a single remote directory.  ``children`` carries the subtree
    digest of each stored child directory (keyed by logical handle) so one
    probe prunes or descends per child without further probe RPCs.
    """

    digest: str
    children: dict[FicusFileHandle, str] = field(default_factory=dict)


@dataclass
class BlockDigests:
    """The reply of the ``block_digests`` vnode operation.

    Content hashes of one file replica's fixed-size blocks, plus the
    version vector the contents carried when they were hashed, so a puller
    can detect an out-of-band change between its attribute fetch and its
    digest fetch (and fall back to a whole-file copy).
    """

    block_size: int
    size: int
    vv: VersionVector
    digests: list[str] = field(default_factory=list)


def split_blocks(data: bytes, block_size: int = DELTA_BLOCK_SIZE) -> list[bytes]:
    """Slice contents into fixed-size blocks (last one may be short)."""
    return [data[i : i + block_size] for i in range(0, len(data), block_size)] if data else []


def encode_directory(entries: list[DirectoryEntry]) -> bytes:
    """Serialize a Ficus directory to its UFS file contents."""
    return "\n".join(entry.encoded_line() for entry in entries).encode("utf-8")


#: Memoized directory decodes, keyed by the raw file bytes.  Entries are
#: immutable by convention, so handing the same objects to every decoder
#: of identical bytes is safe; the returned *list* is always fresh
#: (callers append/replace elements before rewriting).
_DECODE_DIR_MEMO: OrderedDict[bytes, list[DirectoryEntry]] = OrderedDict()
_DECODE_DIR_CAP = 512


def decode_directory(data: bytes) -> list[DirectoryEntry]:
    """Parse a Ficus directory file back into entries."""
    cached = _DECODE_DIR_MEMO.get(data)
    if cached is not None:
        _DECODE_DIR_MEMO.move_to_end(data)
        return list(cached)
    text = data.decode("utf-8")
    if not text:
        return []
    entries = [DirectoryEntry.from_record(decode_record(line)) for line in text.split("\n")]
    _DECODE_DIR_MEMO[data] = list(entries)
    while len(_DECODE_DIR_MEMO) > _DECODE_DIR_CAP:
        _DECODE_DIR_MEMO.popitem(last=False)
    return entries
