"""Shared utilities: Ficus identifiers, virtual time, record codec."""

from repro.util.clock import VirtualClock
from repro.util.codec import (
    decode_record,
    decode_records,
    encode_record,
    encode_records,
    escape_value,
    unescape_value,
)
from repro.util.ids import (
    MAX_ID,
    FicusFileHandle,
    FileId,
    IdAllocator,
    VolumeId,
    VolumeReplicaId,
)

__all__ = [
    "MAX_ID",
    "FicusFileHandle",
    "FileId",
    "IdAllocator",
    "VirtualClock",
    "VolumeId",
    "VolumeReplicaId",
    "decode_record",
    "decode_records",
    "encode_record",
    "encode_records",
    "escape_value",
    "unescape_value",
]
