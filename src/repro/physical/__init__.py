"""The Ficus physical layer: file replicas, version vectors, atomic commit."""

from repro.physical.check import FicusCheckReport, ficus_fsck
from repro.physical.policy import (
    CompositePolicy,
    GlobPolicy,
    SizeCapPolicy,
    StoragePolicy,
)
from repro.physical.layer import (
    FicusPhysicalLayer,
    NewVersionKey,
    NewVersionNote,
    UpdateNotification,
)
from repro.physical.store import ROOT_FILE_ID, ReplicaStore, volume_root_handle
from repro.physical.vnodes import (
    CONFLICT_SEP,
    PhysicalDirVnode,
    PhysicalFileVnode,
    PhysicalRootVnode,
    ReplicaNotStored,
    count_name_collisions,
    effective_entries,
)
from repro.physical.wire import (
    AttrBatch,
    AuxAttributes,
    DirectoryEntry,
    EntryId,
    EntryType,
    decode_directory,
    encode_directory,
)

__all__ = [
    "AttrBatch",
    "AuxAttributes",
    "CONFLICT_SEP",
    "CompositePolicy",
    "FicusCheckReport",
    "GlobPolicy",
    "SizeCapPolicy",
    "StoragePolicy",
    "ficus_fsck",
    "DirectoryEntry",
    "EntryId",
    "EntryType",
    "FicusPhysicalLayer",
    "NewVersionKey",
    "NewVersionNote",
    "PhysicalDirVnode",
    "PhysicalFileVnode",
    "PhysicalRootVnode",
    "ROOT_FILE_ID",
    "ReplicaNotStored",
    "ReplicaStore",
    "UpdateNotification",
    "count_name_collisions",
    "decode_directory",
    "effective_entries",
    "encode_directory",
    "volume_root_handle",
]
