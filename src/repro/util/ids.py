"""Ficus identifiers (paper Section 4.2).

A volume is uniquely named by the pair ``⟨allocator-id, volume-id⟩`` where the
allocator-id is a value issued to each Ficus host before installation (the
paper suggests an Internet address) and the volume-id is issued by that
allocator.  A volume *replica* adds a replica-id; a file replica is fully
specified by ``⟨allocator-id, volume-id, file-id, replica-id⟩``.

To let every volume replica assign file identifiers independently, a file-id
is the tuple ``⟨issuing-replica-id, unique-id⟩`` — prefixing with the issuing
replica's id guarantees global uniqueness with zero coordination.

The paper notes a current limit of 2^32 replicas of a given file and 2^32
logical layers; we enforce the same bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import InvalidArgument

#: Paper Section 3.1: "a current limit of 2^32 replicas of a given file,
#: and 2^32 logical layers".
MAX_ID = 2**32


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value < MAX_ID:
        raise InvalidArgument(f"{what} {value!r} outside [0, 2^32)")
    return value


@dataclass(frozen=True, order=True)
class VolumeId:
    """Globally unique volume name: ⟨allocator-id, volume-num⟩."""

    allocator_id: int
    volume_num: int

    def __post_init__(self) -> None:
        _check_u32(self.allocator_id, "allocator-id")
        _check_u32(self.volume_num, "volume-num")

    def to_hex(self) -> str:
        # Frozen value object: encode once, reuse on every store lookup.
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = f"{self.allocator_id:08x}.{self.volume_num:08x}"
            object.__setattr__(self, "_hex", cached)
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


@dataclass(frozen=True, order=True)
class FileId:
    """Volume-relative logical file name: ⟨issuing-replica-id, unique-id⟩."""

    issuing_replica: int
    unique: int

    def __post_init__(self) -> None:
        _check_u32(self.issuing_replica, "issuing-replica-id")
        _check_u32(self.unique, "unique-id")

    def to_hex(self) -> str:
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = f"{self.issuing_replica:08x}.{self.unique:08x}"
            object.__setattr__(self, "_hex", cached)
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


@dataclass(frozen=True, order=True)
class VolumeReplicaId:
    """Globally unique volume replica: ⟨allocator, volume, replica⟩."""

    volume: VolumeId
    replica_id: int

    def __post_init__(self) -> None:
        _check_u32(self.replica_id, "replica-id")

    def to_hex(self) -> str:
        cached = self.__dict__.get("_hex")
        if cached is None:
            cached = f"{self.volume.to_hex()}.{self.replica_id:08x}"
            object.__setattr__(self, "_hex", cached)
        return cached

    @classmethod
    def from_hex(cls, text: str) -> "VolumeReplicaId":
        parts = text.rsplit(".", 1)
        if len(parts) != 2:
            raise InvalidArgument(f"bad volume replica id {text!r}")
        return cls(VolumeId.from_hex(parts[0]), int(parts[1], 16))

    def __str__(self) -> str:
        return f"{self.volume}r{self.replica_id}"


@dataclass(frozen=True, order=True)
class FicusFileHandle:
    """The handle the logical layer uses to talk to physical layers.

    The paper (Section 2.5): "The logical layer maps a client-supplied name
    into a Ficus file handle, which contains a set of fields that uniquely
    identify the file across all Ficus systems."  A handle that names a
    specific replica additionally carries the replica-id of the containing
    volume replica; a handle with ``replica_id=None`` names the logical file.
    """

    #: Reserved replica-id encoding "no specific replica" in the hex form.
    LOGICAL_SENTINEL = MAX_ID - 1

    volume: VolumeId
    file_id: FileId
    replica_id: int | None = None

    def __post_init__(self) -> None:
        if self.replica_id is not None:
            _check_u32(self.replica_id, "replica-id")
            if self.replica_id == self.LOGICAL_SENTINEL:
                raise InvalidArgument(
                    f"replica-id {self.LOGICAL_SENTINEL:#x} is reserved for logical handles"
                )

    @property
    def logical(self) -> "FicusFileHandle":
        """The replica-independent handle for the same logical file."""
        if self.replica_id is None:
            return self
        cached = self.__dict__.get("_logical")
        if cached is None:
            cached = FicusFileHandle(self.volume, self.file_id, None)
            object.__setattr__(self, "_logical", cached)
        return cached

    def __hash__(self) -> int:
        # Hashed on every dict and set probe: hash once.  The value is the
        # one the dataclass would generate, so iteration orders hold.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.volume, self.file_id, self.replica_id))
            object.__setattr__(self, "_hash", cached)
        return cached

    def at_replica(self, replica_id: int) -> "FicusFileHandle":
        """Bind this handle to a specific volume replica."""
        return FicusFileHandle(self.volume, self.file_id, replica_id)

    def to_hex(self) -> str:
        """Encode for use as a UFS pathname component (paper Section 2.6).

        "This second mapping is implemented by encoding the Ficus file
        handle into a hexadecimal string used by the UFS as a pathname."
        """
        cached = self.__dict__.get("_hex")
        if cached is None:
            rep = "ffffffff" if self.replica_id is None else f"{self.replica_id:08x}"
            cached = f"{self.volume.to_hex()}.{self.file_id.to_hex()}.{rep}"
            object.__setattr__(self, "_hex", cached)
        return cached

    @classmethod
    def from_hex(cls, text: str) -> "FicusFileHandle":
        parts = text.split(".")
        if len(parts) != 5:
            raise InvalidArgument(f"bad file handle {text!r}")
        volume = VolumeId(int(parts[0], 16), int(parts[1], 16))
        file_id = FileId(int(parts[2], 16), int(parts[3], 16))
        rep = None if parts[4] == "ffffffff" else int(parts[4], 16)
        return cls(volume, file_id, rep)

    def __str__(self) -> str:
        rep = "*" if self.replica_id is None else str(self.replica_id)
        return f"fh<{self.volume.allocator_id}:{self.volume.volume_num}:{self.file_id.issuing_replica}:{self.file_id.unique}:{rep}>"


@dataclass
class IdAllocator:
    """Uncoordinated id issuance for one allocator (i.e. one Ficus host).

    Each host was "issued a unique value as its allocator-id" prior to
    installation; from then on it can mint volume ids with no communication.
    Likewise each volume replica mints file unique-ids independently.
    """

    allocator_id: int
    _next_volume: itertools.count = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self) -> None:
        _check_u32(self.allocator_id, "allocator-id")

    def new_volume_id(self) -> VolumeId:
        return VolumeId(self.allocator_id, next(self._next_volume))


@dataclass
class FileIdAllocator:
    """Per-volume-replica file-id mint (paper Section 4.2).

    "Each volume replica assigns file identifiers to new files independently.
    To ensure that file-ids are uniquely issued, a file-id is prefixed with
    the issuing volume replica's replica-id."
    """

    replica_id: int
    _next_unique: itertools.count = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self) -> None:
        _check_u32(self.replica_id, "replica-id")

    def new_file_id(self) -> FileId:
        return FileId(self.replica_id, next(self._next_unique))

    def restore(self, highest_seen: int) -> None:
        """Resume issuance after restart, skipping already-issued uniques."""
        self._next_unique = itertools.count(highest_seen + 1)
