"""Ficus identifiers (paper Section 4.2).

A volume is uniquely named by the pair ``⟨allocator-id, volume-id⟩`` where the
allocator-id is a value issued to each Ficus host before installation (the
paper suggests an Internet address) and the volume-id is issued by that
allocator.  A volume *replica* adds a replica-id; a file replica is fully
specified by ``⟨allocator-id, volume-id, file-id, replica-id⟩``.

Here that four-part name is always a pair: a :class:`FicusFileHandle`
``⟨volume, file-id⟩`` names the logical file, and the replica-id lives in
the :class:`VolumeReplicaId` that every structure addressing one replica
holds beside the handle — the replica store itself, the physical layer's
NFS handle ``(volrep, parent, fh, etype)`` and a notification's key.  So
one handle keys a file in every layer and on every host.

To let every volume replica assign file identifiers independently, a file-id
is the tuple ``⟨issuing-replica-id, unique-id⟩`` — prefixing with the issuing
replica's id guarantees global uniqueness with zero coordination.  The one
mint is :meth:`repro.physical.store.ReplicaStore.new_file_id`, whose
high-water mark the replica's ``.meta`` record keeps.

The paper notes a current limit of 2^32 replicas of a given file and 2^32
logical layers; we enforce the same bound.

Every identifier is a named tuple that validates in ``__new__``.  Ids are
dict keys and set members in every layer, and a tuple hashes and compares
in C; its hash is the one a frozen dataclass of the same fields would
generate, and its order is field order.  Equality ignores the class
(``VolumeId(1, 2) == FileId(1, 2)``), so no dict mixes id kinds.  The
instance ``__dict__`` holds only memos of derived forms.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

from repro.errors import InvalidArgument

#: Paper Section 3.1: "a current limit of 2^32 replicas of a given file,
#: and 2^32 logical layers".
MAX_ID = 2**32

#: The fifth field of a stored file name, where a replica-id would go: no
#: handle names a replica, so every name carries this constant.
_NO_REPLICA = "ffffffff"


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value < MAX_ID:
        raise InvalidArgument(f"{what} {value!r} outside [0, 2^32)")
    return value


class VolumeId(namedtuple("VolumeId", "allocator_id volume_num")):
    """Globally unique volume name: ⟨allocator-id, volume-num⟩."""

    def __new__(cls, allocator_id: int, volume_num: int) -> "VolumeId":
        _check_u32(allocator_id, "allocator-id")
        _check_u32(volume_num, "volume-num")
        return tuple.__new__(cls, (allocator_id, volume_num))

    def to_hex(self) -> str:
        # Frozen value object: encode once, reuse on every store lookup.
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = self._hex = f"{self.allocator_id:08x}.{self.volume_num:08x}"
        return cached

    @classmethod
    def from_hex(cls, text: str) -> "VolumeId":
        try:
            alloc, vol = text.split(".")
            return cls(int(alloc, 16), int(vol, 16))
        except ValueError as exc:
            raise InvalidArgument(f"bad volume id {text!r}") from exc

    def __str__(self) -> str:
        return f"vol<{self.allocator_id}:{self.volume_num}>"


class FileId(namedtuple("FileId", "issuing_replica unique")):
    """Volume-relative logical file name: ⟨issuing-replica-id, unique-id⟩."""

    def __new__(cls, issuing_replica: int, unique: int) -> "FileId":
        _check_u32(issuing_replica, "issuing-replica-id")
        _check_u32(unique, "unique-id")
        return tuple.__new__(cls, (issuing_replica, unique))

    def to_hex(self) -> str:
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = self._hex = f"{self.issuing_replica:08x}.{self.unique:08x}"
        return cached

    @classmethod
    def from_hex(cls, text: str) -> "FileId":
        try:
            issuer, unique = text.split(".")
            return cls(int(issuer, 16), int(unique, 16))
        except ValueError as exc:
            raise InvalidArgument(f"bad file id {text!r}") from exc

    def __str__(self) -> str:
        return f"file<{self.issuing_replica}:{self.unique}>"


class VolumeReplicaId(namedtuple("VolumeReplicaId", "volume replica_id")):
    """Globally unique volume replica: ⟨allocator, volume, replica⟩."""

    def __new__(cls, volume: VolumeId, replica_id: int) -> "VolumeReplicaId":
        _check_u32(replica_id, "replica-id")
        return tuple.__new__(cls, (volume, replica_id))

    def to_hex(self) -> str:
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = self._hex = f"{self.volume.to_hex()}.{self.replica_id:08x}"
        return cached

    @classmethod
    def from_hex(cls, text: str) -> "VolumeReplicaId":
        parts = text.rsplit(".", 1)
        if len(parts) != 2:
            raise InvalidArgument(f"bad volume replica id {text!r}")
        return cls(VolumeId.from_hex(parts[0]), int(parts[1], 16))

    def __str__(self) -> str:
        return f"{self.volume}r{self.replica_id}"


class FicusFileHandle(namedtuple("FicusFileHandle", "volume file_id")):
    """The handle the logical layer uses to talk to physical layers.

    The paper (Section 2.5): "The logical layer maps a client-supplied name
    into a Ficus file handle, which contains a set of fields that uniquely
    identify the file across all Ficus systems."  The handle names the
    logical file; the replica-id that completes a file replica's name is the
    :class:`VolumeReplicaId` every replica-addressing structure pairs with
    it (see the module docstring).  Its two fields validate themselves.
    """

    def to_hex(self) -> str:
        """Encode for use as a UFS pathname component (paper Section 2.6).

        "This second mapping is implemented by encoding the Ficus file
        handle into a hexadecimal string used by the UFS as a pathname."
        The fifth field is the constant ``ffffffff`` every stored name
        carries where a replica-id would go.
        """
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = self._hex = f"{self.volume.to_hex()}.{self.file_id.to_hex()}.{_NO_REPLICA}"
        return cached

    @classmethod
    def from_hex(cls, text: str) -> "FicusFileHandle":
        parts = text.split(".")
        if len(parts) != 5 or parts[4] != _NO_REPLICA:
            raise InvalidArgument(f"bad file handle {text!r}")
        try:
            volume = VolumeId(int(parts[0], 16), int(parts[1], 16))
            file_id = FileId(int(parts[2], 16), int(parts[3], 16))
        except ValueError as exc:
            raise InvalidArgument(f"bad file handle {text!r}") from exc
        return cls(volume, file_id)

    def __str__(self) -> str:
        volume, file_id = self
        return f"fh<{volume.allocator_id}:{volume.volume_num}:{file_id.issuing_replica}:{file_id.unique}>"


@dataclass
class IdAllocator:
    """Uncoordinated id issuance for one allocator (i.e. one Ficus host).

    Each host was "issued a unique value as its allocator-id" prior to
    installation; from then on it can mint volume ids with no communication.
    Each volume replica mints file-ids independently in its store.
    """

    allocator_id: int
    _next_volume: itertools.count = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self) -> None:
        _check_u32(self.allocator_id, "allocator-id")

    def new_volume_id(self) -> VolumeId:
        return VolumeId(self.allocator_id, next(self._next_volume))
